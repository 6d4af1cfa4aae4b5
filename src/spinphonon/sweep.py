"""Relaxation pipeline and parameter-sweep orchestration.

The pipeline projects the modes of one q-point of each {q, -q} pair of
the q-grid (``paired_orbits``): the force constants are real, so
D(-q) = conj D(q), and the partner has the same frequencies and
conjugate eigenvectors. Its modes enter with weight 2 (1 where q = -q),
folded as sqrt(weight) into each mode's amplitude, which reproduces
the full-grid Redfield tensor to round-off. The crystal's operations
(``lattice.symmetry_rotations``), which the ``dos`` verb also folds in,
reduce the phonon eigensolves, not the projections: only one paired
q-point of each orbit is diagonalised, and the others take its
frequencies, bit for bit, and its eigenvectors turned by the operation
(``lattice.unfold_modes``); ``CouplingStack`` merges equal frequencies,
so assembly runs over one frequency per star. A grid of fewer than
``SYMMETRY_MIN_Q`` q-points seeks no operation. The derivative records
of the spin's tensors follow no rotation of the lattice, so every
paired q-point is projected. An operation is accepted within
``lattice.SYMMETRY_TOL`` of max|Phi|: on force constants that are
symmetric only to that level, the turned eigenvectors are exact for a
D(q) within that distance of the point's own. Mode counts in the
diagnostics (imaginary, below omega_min, pruned) and ``n_q`` are
full-grid counts; ``n_couplings`` counts the nonzero standing-wave
parts of the modes (``CouplingStack``); ``symmetry_ops`` and
``irreducible_q`` (diagonalised, paired) count the operations (None
where none were sought) and the q-points, as ``dos`` prints them.

The pipeline caches four things: the crystal's operations and the
phonon spectra per q-grid, both shared with ``with_spins`` siblings, the
tensors of the modes projected so far per (q-grid, omega_min), and the
spin Hamiltonian and coupling stack of the last point. A point projects
only the modes it keeps (``RelaxationPipeline.couplings`` prunes before
projecting), and a grid projects each mode at most once. The last
point's entry is keyed by every run parameter but the temperature,
which enters only the Bose factors of the Redfield tensor: a
temperature point reuses it, a point that moves any other parameter
rebuilds it. The Redfield tensor is assembled at
every point. Each point records the wall time of its stages and its
cache hits in its diagnostics; a point that reuses the coupling stack
counts one hit and spends no time on phonons, mode tensors, the spin
Hamiltonian or couplings.
"""

import copy
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .coupling import (CHANNELS, CHANNEL_OF_KIND, CouplingDerivativeSet,
                       CouplingStack, CouplingTerm, ModeTensors,
                       dipolar_network, mode_tensor_derivatives,
                       operator_terms)
from .errors import (CapacityError, NumericalError, ValidationError,
                     as_real, finite_number)
from .hamiltonian import assemble_hamiltonian
from .lattice import (DEFAULT_OMEGA_MIN, SYMMETRY_BLOCK, _unique_rows,
                      check_hermitian, enforce_acoustic_sum_rule,
                      phonon_spectrum, symmetry_rotations, unfold_modes)
from .redfield import (ASSEMBLY_BLOCK, PhononCorrelation, assemble_redfield,
                       extract_relaxation_time)
from .spins import SpinCenter, SpinSystem, build_spin_operators


def kpoint_grid(n1, n2, n3):
    """Gamma-centered uniform fractional grid, inversion-symmetric as a set."""
    if min(n1, n2, n3) < 1:
        raise ValidationError("grid divisions must be >= 1")
    axes = []
    for n in (n1, n2, n3):
        v = np.arange(n) / n
        axes.append(np.where(v > 0.5, v - 1.0, v))
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([x.reshape(-1) for x in g], axis=1)


class PairedOrbits(NamedTuple):
    """One q-point of each {q, -q} pair of a grid and, for each, the
    representative of its orbit under a crystal's operations
    (``paired_orbits``)."""

    qpoints: np.ndarray  # (P, 3) the pairs' first q-points, in grid order
    weights: np.ndarray  # (P,) 2, or 1 where q = -q modulo the grid
    source: np.ndarray  # (P,) index of the orbit's representative
    op: np.ndarray  # (P,) rotation k with S_k^T q = +-q[source]
    reverse: np.ndarray  # (P,) bool: the minus sign (time reversal)


def paired_orbits(n1, n2, n3, rotations=()):
    """The {q, -q} pairs of ``kpoint_grid(n1, n2, n3)`` and the orbits of
    ``rotations`` and time reversal over them: a ``PairedOrbits``.

    ``rotations`` are integer fractional rotations S of the crystal
    (x -> S x + tau), a group such as ``lattice.symmetry_rotations``
    returns; none stands for the identity. q and S^T q, in fractional
    reciprocal coordinates, have the same frequencies and decomposition
    weights. Those whose S^T does not map the grid onto itself are left
    out (the rest are a group too), and -E is always composed in: the
    force constants are real, so D(-q) = conj D(q). Each pair is
    represented by its point of smaller flat grid index; each orbit by
    its point of smallest flat index, which is one of those, and every
    paired point names it (``source``, an index into ``qpoints``) with
    the first operation that takes the point there: rotation ``op``,
    times -E where ``reverse``. A representative names itself with the
    identity when that is rotation 0. The images of all the paired
    points under all the operations are one stacked integer product on
    the grid indices (in chunks of at most ``lattice.SYMMETRY_BLOCK``
    elements), never a comparison of fractional coordinates.
    """
    qpts = kpoint_grid(n1, n2, n3)
    n = np.array((n1, n2, n3))
    strides = np.array((n2 * n3, n3, 1))
    # the flat index of -k, by broadcasting along the three axes
    partner = sum(np.reshape(-np.arange(m) % m * t, shape)
                  for m, t, shape in zip(n, strides, np.eye(3, dtype=int)
                                         * (n - 1) + 1)).reshape(-1)
    first = np.flatnonzero(np.arange(partner.size) <= partner)
    S = np.asarray(rotations, dtype=int).reshape(-1, 3, 3)
    if not len(S):
        S = np.eye(3, dtype=int)[None]
    # index k goes to A k with A_ab = S_ba n_a / n_b, an integer matrix
    # exactly when S^T maps the grid onto itself
    scaled = S.transpose(0, 2, 1) * n[:, None]
    ops = np.flatnonzero(~np.any(scaled % n, axis=(1, 2)))
    A = scaled[ops] // n
    # -E composed in, unless the group holds it already
    if not np.any(np.all(A == -np.eye(3, dtype=int), axis=(1, 2))):
        A = np.concatenate([A, -A])
    best, rep = _orbit_minima(A, first, n)
    position = np.zeros(partner.size, dtype=int)
    position[first] = np.arange(first.size)
    source = position[rep]
    return PairedOrbits(qpoints=qpts[first],
                        weights=np.where(partner[first] == first, 1, 2),
                        source=source, op=ops[best % len(ops)],
                        reverse=best >= len(ops))


def _orbit_minima(A, flat, n):
    """(action, image) of smallest flat index over the images A k mod n of
    each of the grid points ``flat`` (flat indices on the grid of
    divisions n), for the index maps A (g, 3, 3): one stacked integer
    product over the distinct rows of the A, in chunks of at most
    SYMMETRY_BLOCK elements."""
    strides = np.array((n[1] * n[2], n[2], 1))
    # the distinct (a, row a of an A): (A k)_a of each once, wrapped by
    # wrap[(A k)_a + off] = ((A k)_a mod n_a) strides[a]
    axis = np.broadcast_to(np.arange(3), A.shape[:2]).reshape(-1, 1)
    rows, which = _unique_rows(np.hstack([axis, A.reshape(-1, 3)]))
    which = which.reshape(-1, 3)
    span = int(np.max(np.abs(rows[:, 1:]) @ (n - 1)))
    wrap = np.concatenate([np.arange(-span, span + 1) % m * t
                           for m, t in zip(n, strides)]).astype(np.int32)
    off = (rows[:, :1] * (2 * span + 1) + span).astype(np.int32)
    rows = rows[:, 1:].astype(np.int32)
    k = np.stack(np.unravel_index(flat, n)).astype(np.int32)
    best = np.empty(flat.size, dtype=int)
    rep = np.empty(flat.size, dtype=int)
    step = max(1, SYMMETRY_BLOCK // (len(A) + len(rows)))
    for lo in range(0, flat.size, step):
        chunk = slice(lo, lo + step)
        part = rows @ k[:, chunk]
        part += off
        part = wrap[part]
        image = part[which[:, 0]]  # (action, point)
        image += part[which[:, 1]]
        image += part[which[:, 2]]
        best[chunk] = np.argmin(image, axis=0)
        rep[chunk] = np.min(image, axis=0)
    return best, rep


def kpoint_orbits(n1, n2, n3, rotations=()):
    """One q-point of each orbit of ``kpoint_grid`` under ``rotations``
    and time reversal, and its weight (``paired_orbits``).

    Returns (qpoints, weights): the rows of ``kpoint_grid(n1, n2, n3)``
    of smallest flat index in their orbit, in grid order, each weighted
    by the size of its orbit; the weights sum to n1 n2 n3. With no
    rotations the orbits are the {q, -q} pairs: weight 2, or 1 where
    q = -q modulo the grid (2q = 0).
    """
    pairs = paired_orbits(n1, n2, n3, rotations)
    own = pairs.source == np.arange(pairs.source.size)
    weights = np.bincount(pairs.source, pairs.weights, own.size)
    return pairs.qpoints[own], weights[own].astype(int)


#: fewest q-points of a grid (n1 n2 n3) on which the pipeline looks for
#: the crystal's operations; a smaller grid diagonalises every paired
#: q-point. Where the search (1.4-1.9 ms on the 16-operation toys) pays
#: depends on the branch count, the spin dimension and how many points
#: share the grid, which a q-point count ignores. One relax from a fresh
#: pipeline (1 thread, 2-vCPU Xeon) gains from 4^3 on the d = 32 pair
#: project (12 branches; 2^3 16.2 -> 19.3 ms, 4^3 20.9 -> 18.5 ms) and
#: still loses at 8^3 on the d = 2 soft preset (6 branches, 4.2 ->
#: 5.0 ms); the phonons stage alone breaks even between 6^3 and 7^3 on
#: the pair crystal. The value only separates the existing workloads:
#: the pair project at 2^3 below it, vanadyl at 8^3 and the soft sweep
#: at 16^3 above it
SYMMETRY_MIN_Q = 256

#: stages timed per point, in diagnostics["timings_s"]
STAGES = ("phonons", "mode_tensors", "hamiltonian", "couplings", "assembly",
          "spectral")


def physical_memory_bytes():
    """Physical memory of the machine (inf where os.sysconf cannot tell)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return float("inf")


def redfield_bytes(elements, n_channels, dimension, n_operators, n_freqs):
    """Estimated bytes that one relax point holds from the start of its
    assembly, with ``elements`` = sum n_c^2 in-cluster elements of R,
    d = ``dimension``, ``n_operators`` B_k summed over the terms of the
    coupling stack and ``n_freqs`` F distinct mode frequencies of the
    stack. Assembly pass 2 and the spectral stage are charged as if held
    at once. Per element: a complex vector per channel
    and one for the term being summed, the eight int64 index arrays of
    pass 2 (ab, cd, a, b, c, e, ac, db; ``BohrClusters.pairs`` peaks at
    as many), the b == e and a == c masks and the index gathers under
    them, and the cluster blocks of L, their eigenvectors and the inverse
    their condition forms, complex. Per coherence (d^2): pass 1's P and
    Q of every operator, which pass 2 holds, and S1 and S2 of every
    channel, complex. Once: pass 1's block of Bohr-frequency columns
    (its two kernels and G, or G and a term's H: two ASSEMBLY_BLOCK
    reals), which also covers the gathers of pass 2 (ASSEMBLY_BLOCK / 2
    complex elements at a time), pass 1's Bose weights over F and its two
    n + 1 temporaries, and numpy's 64 KiB iterator buffer."""
    per_element = 16 * n_channels + 16 + 8 * 8 + 2 * (1 + 8) + 3 * 16
    per_coherence = 2 * 16 * (n_operators + n_channels)
    return (elements * per_element + dimension ** 2 * per_coherence
            + 16 * ASSEMBLY_BLOCK + 3 * 8 * n_freqs + (1 << 16))


def _check_memory(clusters, n_channels, n_operators, n_freqs):
    """CapacityError when the Redfield arrays of a point with these Bohr
    clusters would not fit in physical memory."""
    d = math.isqrt(clusters.omega.size)
    need = redfield_bytes(int(clusters.offsets[-1]), n_channels, d,
                          n_operators, n_freqs)
    have = physical_memory_bytes()
    if need > have:
        raise CapacityError(
            f"a d={d} point with {n_channels} channels needs about "
            f"{need / 1e9:.3g} GB for its Redfield arrays, more than the "
            f"{have / 1e9:.3g} GB of physical memory")


class _StackCache(NamedTuple):
    """What a point reuses when only the temperature moved (``key``: its
    run parameters at 0 K)."""

    key: object
    system: object
    ham: object
    stack: object
    diag: dict


class PhononGrid(NamedTuple):
    """The phonons of one q-point of each {q, -q} pair of a grid
    (``RelaxationPipeline.phonons``): frequencies (P, 3N) and eigenvector
    columns vecs[k, :, a] of omega[k, a] at each q-point, its weight, the
    mask of the q-points that were diagonalised (``solved``) and the
    number of the crystal's operations, None where none were sought."""

    qpoints: np.ndarray
    weights: np.ndarray
    omega: np.ndarray
    vecs: np.ndarray
    solved: np.ndarray
    symmetry_ops: int


class _PhononCache:
    """What the pipelines on one crystal share: its symmetry operations
    (``lattice.symmetry_rotations``), found on first use, and a
    PhononGrid per q-grid (``spectra``)."""

    def __init__(self, fc):
        self.fc = fc
        self.spectra = {}

    @cached_property
    def symmetry(self):
        return symmetry_rotations(self.fc)


class _ModeCache:
    """The usable modes (omega >= omega_min) of one paired grid and the
    tensors of those projected so far.

    ``spectrum`` is the grid's PhononGrid; mode m is branch ``branch[m]``
    at q-point ``iq[m]``, of frequency ``omega[m]`` and weight
    ``weight[m]``. ``tensors`` holds the projected modes (``done``) in
    mode order; ``diag`` the full-grid mode counts, the crystal's
    ``symmetry_ops`` and ``irreducible_q``, the q-points diagonalised
    and paired."""

    def __init__(self, spectrum, omega_min):
        weights, omega = spectrum.weights, spectrum.omega
        self.spectrum = spectrum
        self.iq, self.branch = np.nonzero(omega >= omega_min)
        self.omega = omega[self.iq, self.branch]
        self.weight = weights[self.iq]
        nq = int(weights.sum())
        n_imaginary = int(weights @ np.count_nonzero(omega < -omega_min,
                                                     axis=1))
        skipped = nq * omega.shape[1] - int(self.weight.sum()) - n_imaginary
        self.diag = {"skipped_modes": skipped, "imaginary_modes": n_imaginary,
                     "n_q": nq, "symmetry_ops": spectrum.symmetry_ops,
                     "irreducible_q": [int(spectrum.solved.sum()),
                                       spectrum.solved.size]}
        self.done = np.zeros(self.omega.size, dtype=bool)
        self.targets = self.tensors = None

    def add(self, new, modes):
        """Files the ModeTensors ``modes`` of the modes masked by ``new``."""
        if self.tensors is None:
            self.targets, self.tensors = modes.targets, modes.tensors
        else:
            slot = np.cumsum(self.done | new) - 1
            tensors = np.empty((slot[-1] + 1,) + self.tensors.shape[1:],
                               dtype=complex)
            tensors[slot[self.done]] = self.tensors
            tensors[slot[new]] = modes.tensors
            self.tensors = tensors
        self.done |= new

    def select(self, keep):
        """ModeTensors of the projected modes masked by ``keep``."""
        tensors = self.tensors
        if not np.array_equal(keep, self.done):
            tensors = tensors[(np.cumsum(self.done) - 1)[keep]]
        return ModeTensors(omega=self.omega[keep], targets=self.targets,
                           tensors=tensors, weight=self.weight[keep])


class _PointLog:
    """Stage timings and cache hits of the point being evaluated; reset
    at the start of every ``relax``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.timings = dict.fromkeys(STAGES, 0.0)
        self.cache_hits = 0


def _channel_names(name, names):
    """``names`` as a tuple of channel names from CHANNELS."""
    names = tuple(names)
    unknown = [ch for ch in names if ch not in CHANNELS]
    if unknown:
        raise ValidationError(f"{name}: unknown channel(s) {unknown}; "
                              f"allowed: {CHANNELS}")
    return names


@dataclass(frozen=True)
class RunParams:
    """One relaxation-pipeline evaluation point.

    Every field is checked and normalised on construction, also by
    ``dataclasses.replace``; a bad value raises ValidationError naming
    the field.
    """

    qgrid: tuple = (8, 8, 8)
    sigma: float = 1.0
    temperature: float = 20.0
    field_B: tuple = None  # None: use the spin system's field
    channels: tuple = None  # None: every channel with derivative records
    secular: bool = False
    omega_min: float = DEFAULT_OMEGA_MIN
    freq_scale: float = 1.0
    coupling_scale: dict = None  # channel -> factor
    prune_sigma_mult: float = 20.0

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        try:
            grid = tuple(int(as_real(n)) for n in self.qgrid)
            ok = (len(grid) == 3 and min(grid) >= 1
                  and all(g == n for g, n in zip(grid, self.qgrid)))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValidationError(
                f"qgrid must be three integers >= 1, got {self.qgrid!r}")
        put("qgrid", grid)
        put("sigma", finite_number("sigma", self.sigma, 0.0))
        put("temperature", finite_number("temperature", self.temperature,
                                         0.0, strict=False))
        put("omega_min", finite_number("omega_min", self.omega_min, 0.0))
        put("freq_scale", finite_number("freq_scale", self.freq_scale, 0.0))
        if self.prune_sigma_mult is not None:
            put("prune_sigma_mult", finite_number("prune_sigma_mult",
                                                  self.prune_sigma_mult, 0.0))
        if self.field_B is not None:
            try:
                B = tuple(as_real(b) for b in self.field_B)
            except (TypeError, ValueError):
                B = ()
            if len(B) != 3 or not np.all(np.isfinite(B)):
                raise ValidationError(f"field_B must be a finite 3-vector, "
                                      f"got {self.field_B!r}")
            put("field_B", B)
        if self.channels is not None:
            put("channels", _channel_names("channels", self.channels))
        if self.coupling_scale is not None:
            scale = dict(self.coupling_scale)
            _channel_names("coupling_scale", scale)
            put("coupling_scale",
                {ch: finite_number(f"coupling_scale[{ch!r}]", f, -np.inf)
                 for ch, f in scale.items()})
        if self.secular not in (True, False):  # "false" is not False
            raise ValidationError(f"secular must be true or false, got "
                                  f"{self.secular!r}")
        put("secular", bool(self.secular))


@dataclass(frozen=True)
class SweepRow:
    """One tau point as the results writers take it: its label
    (``value``), tau and the per-channel taus (ms), its diagnostics,
    and the error of a point that raised."""

    value: object
    tau_ms: float
    tau_channel_ms: dict
    diagnostics: dict
    error: str = None

    @classmethod
    def failed(cls, value, exc):
        """The row of a point that raised ``exc``: tau NaN, no channel
        taus and no diagnostics."""
        return cls(value=value, tau_ms=float("nan"), tau_channel_ms={},
                   diagnostics={}, error=f"{type(exc).__name__}: {exc}")


class RelaxationPipeline:
    """Full chain crystal + force constants + derivatives -> tau."""

    def __init__(self, crystal, fc, derivs, system):
        self.crystal = crystal
        self.fc = enforce_acoustic_sum_rule(fc)
        self._phonon_cache = _PhononCache(self.fc)
        self._set_spins(system, derivs)

    def with_spins(self, system, derivs):
        """A pipeline for another spin system and derivative set on this
        one's crystal: it shares the sum-rule-clean force constants and
        the phonon spectra, and has its own spin operators, mode-tensor
        and coupling-stack caches and point log."""
        sibling = copy.copy(self)
        sibling._set_spins(system, derivs)
        return sibling

    def _set_spins(self, system, derivs):
        self.system = system
        self.derivs = derivs
        self.ops = build_spin_operators(system)
        self._precursor_cache = {}
        self._stack_cache = None  # _StackCache of the last point
        self._log = _PointLog()

    @contextmanager
    def _timed(self, stage):
        """Adds the block's perf_counter wall time to the point's stage."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._log.timings[stage] += time.perf_counter() - t0

    # -- cached stages ----------------------------------------------------
    @property
    def symmetry(self):
        """The crystal's operations (``lattice.symmetry_rotations``),
        found once and shared with the pipeline's siblings."""
        return self._phonon_cache.symmetry

    def phonons(self, qgrid):
        """Cached PhononGrid of one q-point of each {q, -q} pair of the
        grid (``paired_orbits``).

        On a grid of at least ``SYMMETRY_MIN_Q`` q-points, only the
        representative of each orbit of the crystal's operations
        (``symmetry``) and time reversal is diagonalised. Every other
        paired q-point takes its frequencies, bit for bit, and its
        eigenvectors turned by the operation (``lattice.unfold_modes``),
        eigenvectors of D(q) there, and is checked for a D(q) that departs
        from Hermitian as the diagonalised ones are
        (``lattice.check_hermitian``). A crystal with no operation but the
        identity, or a smaller grid, diagonalises every paired q-point."""
        key = tuple(qgrid)
        spectra = self._phonon_cache.spectra
        if key in spectra:
            self._log.cache_hits += 1
        else:
            with self._timed("phonons"):
                sought = math.prod(qgrid) >= SYMMETRY_MIN_Q
                pairs = paired_orbits(*qgrid, self.symmetry.rotations
                                      if sought else ())
                solved = pairs.source == np.arange(pairs.source.size)
                if not solved.all():
                    # the largest |element| of D - D^H need not be the
                    # same over an orbit: check every paired q-point
                    check_hermitian(self.fc, pairs.qpoints)
                omega, vecs = phonon_spectrum(self.fc, pairs.qpoints[solved])
                if not solved.all():
                    source = (np.cumsum(solved) - 1)[pairs.source]
                    moved = ~solved
                    turned = unfold_modes(
                        self.fc.crystal, self.symmetry, pairs.op[moved],
                        pairs.reverse[moved], pairs.qpoints[moved], vecs,
                        source[moved])
                    omega, vecs = omega[source], vecs[source]
                    vecs[moved] = turned
            spectra[key] = PhononGrid(
                pairs.qpoints, pairs.weights, omega, vecs, solved,
                len(self.symmetry.rotations) if sought else None)
        return spectra[key]

    def mode_precursors(self, qgrid, omega_min=DEFAULT_OMEGA_MIN, keep=None):
        """ModeTensors of the usable modes of the paired grid, each
        carrying its q-point's weight, plus full-grid counts of the
        imaginary modes (omega < -omega_min, so no eigh round-off) and
        of those with |omega| below omega_min.

        ``keep`` selects the modes: a function that takes the usable
        modes' frequencies (cm^-1) and returns the mask of those wanted;
        None wants every one. A mode is projected the first time a call
        wants it and cached per (q-grid, omega_min), so a grid projects
        each mode at most once. Its tensors do not depend on the other
        modes projected with it. A call that finds the grid's cache
        counts one hit, however many modes it still projects."""
        key = (tuple(qgrid), omega_min)
        cache = self._precursor_cache.get(key)
        if cache is None:
            cache = _ModeCache(self.phonons(qgrid), omega_min)
            self._precursor_cache[key] = cache
        else:
            self._log.cache_hits += 1
        want = (np.ones(cache.omega.size, dtype=bool) if keep is None
                else keep(cache.omega))
        new = want & ~cache.done
        if cache.tensors is None or new.any():
            qpts, weights, omega, vecs = cache.spectrum[:4]
            iq, branch = cache.iq[new], cache.branch[new]
            with self._timed("mode_tensors"):
                modes = mode_tensor_derivatives(
                    self.derivs, qpts[iq], omega[iq, branch],
                    vecs[iq, :, branch], self.crystal, cache.diag["n_q"],
                    weights[iq])
            cache.add(new, modes)
        return cache.select(want), cache.diag

    # -- per-point stages --------------------------------------------------
    def hamiltonian(self, field_B=None):
        system = self.system if field_B is None else self.system.with_field(field_B)
        return system, assemble_hamiltonian(system, self.ops)

    def couplings(self, params, ham, system):
        """CouplingStack of one CouplingTerm per target, on every
        retained mode.

        Modes farther than prune_sigma_mult * sigma from every spin gap
        are pruned before they are projected (``mode_precursors``). Each
        target's operator sum_k c_k B_k is kept as its coefficients c
        and its Hermitian basis B_k, rotated into the eigenbasis once
        per call: Re c gives the Hermitian part, Im c the anti-Hermitian
        part, and a part whose coefficients are all zero is no row.
        """
        fs = params.freq_scale
        near_a_gap = None
        if params.prune_sigma_mult is not None:
            # distance to the nearest spin gap, from its sorted neighbours
            gaps = np.unique(np.round(np.abs(ham.omega), 12))
            gaps = np.concatenate(([-np.inf], gaps, [np.inf]))
            reach = params.prune_sigma_mult * params.sigma

            def near_a_gap(omega):
                omega = omega * fs
                k = np.searchsorted(gaps, omega)
                near = np.minimum(gaps[k] - omega, omega - gaps[k - 1])
                return near <= reach
        modes, diag = self.mode_precursors(params.qgrid, params.omega_min,
                                           near_a_gap)
        with self._timed("couplings"):
            omega = modes.omega * fs
            scale = params.coupling_scale or {}
            terms = []
            for t, tgt in enumerate(modes.targets):
                ch = CHANNEL_OF_KIND[tgt[0]]
                if params.channels is not None and ch not in params.channels:
                    continue
                T = modes.tensors[:, t] / np.sqrt(fs) * scale.get(ch, 1.0)
                coeff, basis = operator_terms(system, self.ops, tgt, T)
                terms.append(CouplingTerm(ch, omega, coeff,
                                          ham.to_eigenbasis(basis)))
            stack = CouplingStack(terms=tuple(terms), dimension=ham.dimension)
        diag = dict(diag)
        # the usable modes are those neither count covers
        usable = (diag["n_q"] * 3 * self.crystal.n_atoms
                  - diag["skipped_modes"] - diag["imaginary_modes"])
        diag["pruned_modes"] = usable - int(modes.weight.sum())
        return stack, diag

    def redfield(self, params):
        """Redfield tensor of the point. Raises CapacityError once its
        Bohr clusters are known, before any element is assembled, when
        the point's Redfield arrays would not fit in physical memory
        (``redfield_bytes``).

        The spin Hamiltonian and the coupling stack of the last point
        are reused when only the temperature moved. A rebuild drops them
        first, so the pipeline never holds two stacks."""
        key = replace(params, temperature=0.0)
        if self._stack_cache is not None and self._stack_cache.key == key:
            self._log.cache_hits += 1
        else:
            self._stack_cache = None
            with self._timed("hamiltonian"):
                system, ham = self.hamiltonian(params.field_B)
            stack, diag = self.couplings(params, ham, system)
            self._stack_cache = _StackCache(key, system, ham, stack, diag)
        cache = self._stack_cache
        pc = PhononCorrelation(sigma=params.sigma, temperature=params.temperature)
        with self._timed("assembly"):
            R = assemble_redfield(cache.stack, cache.ham, pc,
                                  secular=params.secular, check=_check_memory)
        return R, cache.ham, cache.system, cache.diag

    def relax(self, params, value=None):
        """The SweepRow of the point, labelled ``value``: tau, the
        per-channel taus, and diagnostics that carry every field of the
        RelaxationEstimate but tau_ms.

        The channel taus reuse the Bohr clusters of the total generator
        and diagonalise only the clusters their slowest mode can come
        from. A one-channel tensor is diagonalised once: its channel tau
        is the total's."""
        self._log.reset()
        R, _, _, diag = self.redfield(params)
        tau_channel = {}
        channel_errors = {}
        with self._timed("spectral"):
            est = extract_relaxation_time(R, self.ops, method="both")
            others = list(R.channels)
            if len(others) == 1:
                tau_channel[others.pop()] = est.tau_ms
            for ch in others:
                try:
                    est_ch = extract_relaxation_time(R, self.ops,
                                                     method="slowest_mode",
                                                     channels=(ch,))
                    tau_channel[ch] = est_ch.tau_ms
                except NumericalError as exc:
                    tau_channel[ch] = float("nan")
                    channel_errors[ch] = str(exc)
        estimate = asdict(est)
        tau_ms = estimate.pop("tau_ms")
        diag = {**diag, "n_couplings": R.n_couplings, **estimate,
                "channel_errors": channel_errors,
                "timings_s": dict(self._log.timings),
                "cache_hits": self._log.cache_hits}
        return SweepRow(value=value, tau_ms=tau_ms, tau_channel_ms=tau_channel,
                        diagnostics=diag)


# -- sweeps ----------------------------------------------------------------

SWEEP_AXES = ("field_magnitude", "temperature", "qgrid", "sigma",
              "n_spins", "coupling_scale", "frequency_scale")


@dataclass(frozen=True)
class SweepPlan:
    axis: str
    values: tuple
    params: RunParams = field(default_factory=RunParams)
    channel: str = None  # for coupling_scale
    replication_axis: int = 0  # for n_spins

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValidationError(f"unknown sweep axis {self.axis!r}; "
                                  f"allowed: {SWEEP_AXES}")
        try:
            vals = tuple(self.values)
            finite = (self.axis == "qgrid"
                      or all(np.isfinite(as_real(v)) for v in vals))
        except (TypeError, ValueError):
            raise ValidationError("sweep values must be a list of numbers")
        if not vals:
            raise ValidationError("sweep values must be nonempty")
        if not finite:
            raise ValidationError("sweep values must be finite")
        object.__setattr__(self, "values", vals)
        if self.channel is not None and self.channel not in CHANNELS:
            raise ValidationError(f"sweep channel {self.channel!r} is not a "
                                  f"channel; allowed: {CHANNELS}")
        if (isinstance(self.replication_axis, bool)
                or self.replication_axis not in (0, 1, 2)):
            raise ValidationError(f"replication_axis must be 0, 1 or 2, got "
                                  f"{self.replication_axis!r}")
        object.__setattr__(self, "replication_axis", int(self.replication_axis))


@dataclass(frozen=True)
class SweepResult:
    plan_axis: str
    rows: tuple
    metadata: dict


def _point(pipeline, plan, value):
    """(pipeline, params) of the sweep point at ``value``."""
    p = plan.params
    if plan.axis == "n_spins":
        if int(value) != value:
            raise ValidationError(
                f"n_spins must be a whole number of cells, got {value!r}")
        return pipeline.with_spins(*replicated_spin_system(
            pipeline, int(value), plan.replication_axis)), p
    if plan.axis == "field_magnitude":
        # the direction of the point's field, else of the system's
        base = np.asarray(p.field_B if p.field_B is not None
                          else pipeline.system.field_B, float)
        n = np.linalg.norm(base)
        direction = base / n if n > 0 else np.array([0.0, 0.0, 1.0])
        p = replace(p, field_B=tuple(direction * float(value)))
    elif plan.axis == "temperature":
        p = replace(p, temperature=float(value))
    elif plan.axis == "qgrid":
        # RunParams checks the value: a scalar n stands for (n, n, n)
        p = replace(p, qgrid=(value,) * 3 if np.isscalar(value) else value)
    elif plan.axis == "sigma":
        p = replace(p, sigma=float(value))
    elif plan.axis == "frequency_scale":
        p = replace(p, freq_scale=float(value))
    else:  # coupling_scale
        scale = dict(p.coupling_scale or {})
        for ch in (CHANNELS if plan.channel is None else (plan.channel,)):
            scale[ch] = scale.get(ch, 1.0) * float(value)
        p = replace(p, coupling_scale=scale)
    return pipeline, p


def run_sweep(pipeline, plan):
    """Evaluate tau along one axis, one point after another; per-point
    failures are recorded in the row and the sweep continues. Every row
    is labelled by its plan value; an n_spins point (1..3 cells of
    ``replicated_spin_system``) runs on a pipeline of its own that
    shares this one's phonon spectra."""
    rows = []
    for value in plan.values:
        try:
            point_pipeline, params = _point(pipeline, plan, value)
            rows.append(point_pipeline.relax(params, value))
        except Exception as exc:  # per-point failure stays in the row
            rows.append(SweepRow.failed(value, exc))
    meta = {"axis": plan.axis}
    if plan.axis == "n_spins":
        meta["replication_axis"] = plan.replication_axis
    meta["params"] = asdict(plan.params)
    return SweepResult(plan_axis=plan.axis, rows=tuple(rows), metadata=meta)


def perturbation_study(pipeline, params, kind, channel="hyperfine"):
    """Supplementary-style robustness checks: double one channel's
    couplings or rescale every phonon frequency by 0.8."""
    if kind not in ("coupling_x2", "freq_x0.8"):
        raise ValidationError(f"unknown perturbation {kind!r}")
    # the perturbed point is checked before the baseline runs
    if kind == "coupling_x2":
        scale = dict(params.coupling_scale or {})
        scale[channel] = scale.get(channel, 1.0) * 2.0
        pert_params = replace(params, coupling_scale=scale)
    else:
        pert_params = replace(params, freq_scale=params.freq_scale * 0.8)
    base = pipeline.relax(params, "baseline")
    pert = pipeline.relax(pert_params, kind)
    meta = {"kind": kind, "channel": channel,
            "tau_ratio": pert.tau_ms / base.tau_ms,
            "params": asdict(params)}
    return SweepResult(plan_axis="perturbation", rows=(base, pert),
                       metadata=meta)


def replicated_spin_system(pipeline, count, axis=0):
    """Spin system and derivatives for 1..3 unit cells of electron
    pairs stacked along one lattice direction, dipolar-coupled from
    geometry."""
    base_sys = pipeline.system
    electrons = [c for c in base_sys.centers if c.kind == "electronic"]
    if not electrons:
        raise ValidationError("replication needs electronic spins")
    if not (1 <= count <= 3):
        raise ValidationError("replication count must be 1..3")
    lshift = np.zeros(3, dtype=int)
    lshift[axis] = 1
    cell_vec = pipeline.crystal.cell[axis]
    # carrier atoms: match electron positions against atom positions
    cart = pipeline.crystal.cart_positions
    carrier = [int(np.argmin(np.linalg.norm(cart - c.position, axis=1)))
               for c in electrons]

    # new center k is electrons[k % n] in cell k // n
    n = len(electrons)
    cell = np.arange(count * n) // n
    centers = [SpinCenter(id=k, kind="electronic", s=c.s, g=c.g,
                          position=c.position + cell[k] * cell_vec)
               for k, c in enumerate(electrons * count)]
    couplings, dipolar = dipolar_network(centers, carrier * count,
                                         [c * lshift for c in cell])
    system = SpinSystem(centers=tuple(centers), couplings=tuple(couplings),
                        field_B=base_sys.field_B,
                        dimension_cap=base_sys.dimension_cap)

    # each base electron's g records, copied into every cell
    base = pipeline.derivs
    rows = [np.flatnonzero([t == ("g", c.id) for t in base.targets])
            for c in electrons]
    new_id = np.repeat(np.arange(count * n), [r.size for r in rows] * count)
    idx = np.concatenate(rows * count)
    g = CouplingDerivativeSet(
        targets=[("g", int(k)) for k in new_id], atom=base.atom[idx],
        s=base.s[idx], lvecs=base.lvecs[idx] + np.outer(cell[new_id], lshift),
        tensors=base.tensors[idx],
        provenance=[base.provenance[k] for k in idx])
    return system, g.merged(dipolar)


def converge_protocol(pipeline, params, sigmas=(4.0, 2.0, 1.0),
                      grids=((4, 4, 4), (8, 8, 8), (16, 16, 16)),
                      rel_tol=0.02):
    """Nested convergence: for each sigma, grow the q-grid until tau
    changes by less than rel_tol, then move to the next (smaller)
    sigma. Returns a list of dicts, one per sigma."""
    report = []
    for sigma in sigmas:
        taus = []
        converged = False
        used = []
        for grid in grids:
            p = replace(params, sigma=float(sigma), qgrid=tuple(grid))
            taus.append(pipeline.relax(p).tau_ms)
            used.append(tuple(grid))
            if len(taus) >= 2 and abs(taus[-1] / taus[-2] - 1.0) < rel_tol:
                converged = True
                break
        report.append({"sigma": float(sigma), "grids": used,
                       "tau_ms": taus, "converged": converged})
    return report
