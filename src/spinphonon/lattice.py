"""Harmonic lattice dynamics: force constants, D(q), DOS, decomposition."""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, finite_number
from .units import FREQ_CM1_PER_SQRT_EV_A2_AMU, KB_CM1_PER_K

#: most q-points per block of the DOS; ``dos_qblock`` takes fewer when
#: the block's D(q) product would pass ``DOS_GEMM_MAX``
DOS_QBLOCK = 256

#: largest m n k of a DOS block's D(q) product (q x n_l)(n_l x (3N)^2).
#: Above about 2^16, OpenBLAS runs a zgemm on several threads (cpu/wall
#: 1.00 at 64,512, 1.26 at 96,768 and about 2 from 124,416 on 2 vCPU),
#: and its workers then spin on the cores the DOS block pool needs. On
#: the 12-branch criterion-07 crystal at 32^3 (n_l = 7, 16,388 paired
#: q-points, 2 vCPU), the blocks took 389 ms serial, 262 ms pooled in
#: blocks of 64 q-points and 505 ms pooled in blocks of 256.
DOS_GEMM_MAX = 2 ** 16

#: reach of a mode's kernel in the DOS, in units of sigma
DOS_REACH = 8

#: DOS grid points smeared together: the modes within DOS_REACH sigma of
#: a tile form one slice of the frequency-sorted modes. ``phonon_dos``
#: takes at most 16, which bounds its kernel recurrence
DOS_TILE = 16

#: most modes in one kernel product of a DOS tile (bounds its scratch)
DOS_CHUNK = 4096

#: largest |D - D^H| (eV/A^2/amu) accepted before D(q) is symmetrized
ASYMMETRY_TOL = 1e-9

#: tolerance of ``symmetry_rotations``, relative to the crystal's own
#: scale: the metric to max|cell cell^T|, atom positions to the longest
#: lattice vector, force constants to max|Phi|
SYMMETRY_TOL = 1e-9

#: |omega| (cm^-1) below which a mode counts as zero whatever its sign:
#: eigh round-off leaves the Gamma acoustic modes at either sign, so only
#: omega < -DEFAULT_OMEGA_MIN is imaginary. The relaxation pipeline also
#: leaves out the modes below it, which guards the 1/sqrt(omega)
#: amplitude of the coupling.
DEFAULT_OMEGA_MIN = 0.01


def gaussian_kernel(x, sigma):
    """Normalized smearing kernel exp(-x^2/sigma^2) / (sigma sqrt(pi)).

    sigma is a breadth, not a standard deviation. Evaluated in place on
    one copy of x; a scalar x gives a scalar.
    """
    y = np.array(x, dtype=float)
    y /= sigma
    np.square(y, out=y)
    np.negative(y, out=y)
    np.exp(y, out=y)
    y /= sigma * np.sqrt(np.pi)
    return y[()]


def _unique_rows(rows):
    """(distinct rows in lexicographic order, index of each row among
    them) of an (n, k) integer array: np.unique(rows, axis=0,
    return_inverse=True) by one lexsort of the columns."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


@dataclass(frozen=True)
class ForceConstantSet:
    """Sparse real-space force constants Phi_{is,jt}(l0) in eV/A^2.

    One record per (l_vec, i, s, j, t); i,j are atom indices in cell 0
    and cell l respectively, s,t Cartesian indices 0..2.
    """

    crystal: object
    lvecs: np.ndarray  # (n, 3) int
    i: np.ndarray
    s: np.ndarray
    j: np.ndarray
    t: np.ndarray
    values: np.ndarray
    _blocks: tuple = field(default=None, repr=False, compare=False)
    _weighted: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lvecs", np.asarray(self.lvecs, dtype=int))
        for name in ("i", "s", "j", "t"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=int))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite force constant values")
        n = self.crystal.n_atoms
        if self.values.size and (self.i.max() >= n or self.j.max() >= n):
            raise ValidationError("force constant atom index out of range")

    @property
    def n_records(self):
        return self.values.size

    def dense_blocks(self):
        """(unique_lvecs, Phi) with Phi[k] the 3N x 3N block for lvec k."""
        if self._blocks is not None:
            return self._blocks
        n3 = 3 * self.crystal.n_atoms
        uniq, inv = _unique_rows(self.lvecs)
        phi = np.zeros((len(uniq), n3, n3))
        rows = 3 * self.i + self.s
        cols = 3 * self.j + self.t
        np.add.at(phi, (inv, rows, cols), self.values)
        object.__setattr__(self, "_blocks", (uniq, phi))
        return self._blocks

    def mass_weighted_blocks(self):
        """(lvecs, sym, asym) over the union of the lattice vectors l and -l.

        With Phi_w(l) = Phi(l) / sqrt(m_i m_j), zero for a vector without
        records, sym[k] = (Phi_w(l) + Phi_w(-l)^T) / 2 and asym[k] =
        Phi_w(l) - Phi_w(-l)^T for l = lvecs[k]; asym is None when it is
        exactly zero. D(q) = sum_l sym(l) e^{i q.R_l} is then Hermitian,
        and D - D^H of the unsymmetrized sum is sum_l asym(l) e^{i q.R_l}.
        """
        if self._weighted is not None:
            return self._weighted
        uniq, phi = self.dense_blocks()
        n3 = phi.shape[1]
        lvecs, inv = _unique_rows(np.concatenate([uniq, -uniq]))
        invsq = 1.0 / np.sqrt(np.repeat(self.crystal.masses, 3))
        weighted = np.zeros((len(lvecs), n3, n3))
        weighted[inv[:len(uniq)]] = phi * np.outer(invsq, invsq)
        # negation reverses the lexicographic order: -lvecs[k] = lvecs[-1-k]
        partner = weighted[::-1].transpose(0, 2, 1)
        asym = weighted - partner
        object.__setattr__(self, "_weighted", (
            lvecs, 0.5 * (weighted + partner), asym if np.any(asym) else None))
        return self._weighted

    def sum_rule_residual(self):
        """Max |sum_{l,j} Phi_{is,jt}(l)| over (i, s, t)."""
        uniq, phi = self.dense_blocks()
        n = self.crystal.n_atoms
        total = phi.sum(axis=0)  # 3N x 3N
        res = total.reshape(n, 3, n, 3).sum(axis=2)  # (i, s, t)
        return float(np.max(np.abs(res)))


def enforce_acoustic_sum_rule(fc):
    """Adjust self-terms Phi_ii(0) so every (i,s,t) row sums to zero."""
    uniq, phi = fc.dense_blocks()
    n = fc.crystal.n_atoms
    residual = phi.sum(axis=0).reshape(n, 3, n, 3).sum(axis=2)  # (i, s, t)
    i, s, t = np.nonzero(residual)
    if not i.size:
        return fc
    return ForceConstantSet(
        crystal=fc.crystal,
        lvecs=np.concatenate([fc.lvecs, np.zeros((i.size, 3), dtype=int)]),
        i=np.concatenate([fc.i, i]),
        s=np.concatenate([fc.s, s]),
        j=np.concatenate([fc.j, i]),
        t=np.concatenate([fc.t, t]),
        values=np.concatenate([fc.values, -residual[i, s, t]]),
    )


def _lattice_rotations(cell):
    """Integer fractional rotations S (x -> S x) with S^T G S = G for the
    metric G = cell cell^T. Column a of S, the image of lattice vector a,
    is drawn from the integer vectors in {-1, 0, 1}^3 of that vector's
    length, which holds every rotation of a reduced cell; a cell that is
    not reduced may lose some, which costs speed, not correctness."""
    G = cell @ cell.T
    tol = SYMMETRY_TOL * np.max(np.abs(G))
    vecs = np.indices((3, 3, 3)).reshape(3, -1).T - 1
    lengths = np.einsum("ka,ab,kb->k", vecs, G, vecs)
    cols = [vecs[np.abs(lengths - G[a, a]) <= tol] for a in range(3)]
    S = np.empty((*(len(c) for c in cols), 3, 3), dtype=int)
    S[..., 0] = cols[0][:, None, None]
    S[..., 1] = cols[1][None, :, None]
    S[..., 2] = cols[2][None, None, :]
    S = S.reshape(-1, 3, 3)
    metric = np.einsum("kai,ab,kbj->kij", S, G, S)
    S = S[np.all(np.abs(metric - G) <= tol, axis=(1, 2))]
    # the identity first
    return S[np.argsort(~np.all(S == np.eye(3, dtype=int), axis=(1, 2)),
                        kind="stable")]


def _atom_maps(frac, cell, kind, mol, S, taus):
    """(perm, shift, tau) for the first of ``taus`` under which every
    atom i, at fractional ``frac[i]``, goes to S x_i + tau =
    x_perm[i] + shift[i], an atom of the same ``kind`` (equal mass), with the
    molecules (``mol``) going onto whole molecules and one integer shift
    for all the atoms of each; None when no tau does."""
    n = frac.shape[0]
    diff = ((frac @ S.T)[None, :, None, :] + taus[:, None, None, :]
            - frac[None, None, :, :])  # (tau, i, j, 3)
    shift = np.rint(diff)
    off = (diff - shift) @ cell
    reach = SYMMETRY_TOL * np.sqrt(np.max(np.sum(cell * cell, axis=1)))
    match = ((np.sum(off * off, axis=-1) <= reach * reach)
             & (kind[:, None] == kind[None, :]))
    same = mol[:, None] == mol[None, :]
    first = np.argmax(same, axis=1)  # first atom of each atom's molecule
    for c in np.flatnonzero(match.any(axis=2).all(axis=1)):
        perm = np.argmax(match[c], axis=1)
        moved = shift[c, np.arange(n), perm].astype(int)
        if (np.array_equal(np.sort(perm), np.arange(n))
                and np.array_equal(same[perm][:, perm], same)
                and np.array_equal(moved, moved[first])):
            return perm, moved, taus[c]
    return None


def _maps_force_constants(fc, S, perm, shift):
    """Whether the operation takes every block Phi_ij(l) onto
    Phi_perm(i) perm(j)(S l + shift_j - shift_i) = R Phi_ij(l) R^T, R its
    Cartesian rotation, within SYMMETRY_TOL of max|Phi|. A block mapped
    to a lattice vector without records must vanish there."""
    cell = fc.crystal.cell
    uniq, phi = fc.dense_blocks()
    n = fc.crystal.n_atoms
    R = cell.T @ S @ np.linalg.inv(cell.T)
    phi = phi.reshape(len(uniq), n, 3, n, 3)
    turned = np.einsum("as,kisjt,bt->kijab", R, phi, R)
    target = ((uniq @ S.T)[:, None, None, :] + shift[None, None, :, :]
              - shift[None, :, None, :])
    # lattice vectors as integer keys, monotone in their lexicographic order
    reach = int(max(np.max(np.abs(uniq)), np.max(np.abs(target)))) + 1
    base = 2 * reach + 1
    weights = np.array([base * base, base, 1])
    keys = (uniq + reach) @ weights
    want = (target + reach) @ weights
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    found = keys[pos] == want
    actual = phi[pos, perm[None, :, None], :, perm[None, None, :], :]
    actual[~found] = 0.0
    scale = np.max(np.abs(phi))
    return bool(np.max(np.abs(turned - actual)) <= SYMMETRY_TOL * scale)


def symmetry_rotations(fc):
    """The space-group operations x -> S x + tau of the crystal of ``fc``
    that also leave its force constants and molecules unchanged.

    Returns (rotations, translations): integer fractional rotations S
    (m, 3, 3), identity first, and one fractional translation tau (m, 3)
    each. S preserves the metric cell cell^T (``_lattice_rotations``);
    the operation takes every atom onto an atom of the same mass, every
    molecule, by its unwrapped positions, onto a molecule with one
    lattice shift for all its atoms (so the rigid-body rows of
    ``decomposition_weights`` go onto rigid-body rows), and the force
    constants onto themselves within ``SYMMETRY_TOL``. Such an S gives
    D(S^-T q) = U D(q) U^H with U unitary, the same frequencies and
    decomposition weights at both q-points (``sweep.kpoint_orbits``).
    Candidate translations take the first atom of the rarest mass onto
    each atom of that mass.
    """
    crystal = fc.crystal
    frac, cell = crystal.frac_positions, crystal.cell
    _, kind, count = np.unique(crystal.masses, return_inverse=True,
                               return_counts=True)
    mol = np.array([a.molecule for a in crystal.atoms])
    ref = int(np.argmin(count[kind]))
    candidates = frac[kind == kind[ref]]
    rotations, translations = [], []
    for S in _lattice_rotations(cell):
        mapped = _atom_maps(frac, cell, kind, mol, S,
                            candidates - S @ frac[ref])
        if mapped is not None and _maps_force_constants(fc, S, *mapped[:2]):
            rotations.append(S)
            translations.append(mapped[2])
    return (np.array(rotations, dtype=int).reshape(-1, 3, 3),
            np.array(translations, dtype=float).reshape(-1, 3))


def dynamical_matrices(fc, qpoints):
    """Mass-weighted D(q) = sum_l Phi^l0 e^{i q.R_l} / sqrt(m_i m_j).

    q-points in fractional reciprocal coordinates; returns the stack
    (nq, 3N, 3N), Hermitian to round-off, built from the symmetrized
    blocks of ``ForceConstantSet.mass_weighted_blocks`` as one
    (nq x n_l)(n_l x 9N^2) product. A force constant set whose unsymmetrized D(q) departs
    from Hermitian by more than ``ASYMMETRY_TOL`` at any q-point is
    rejected, naming the worst q-point; the check is skipped when every
    block equals the transpose of its -l partner.
    """
    if fc.n_records == 0:
        raise ValidationError("empty force constant set")
    if np.any(fc.crystal.masses <= 0):
        raise ValidationError("missing or non-positive masses")
    lvecs, sym, asym = fc.mass_weighted_blocks()
    qpoints = np.asarray(qpoints, dtype=float)
    phases = np.exp(2j * np.pi * (qpoints @ lvecs.T))  # (nq, nl)
    if asym is not None:
        defect = np.max(np.abs(phases @ asym.reshape(len(lvecs), -1)), axis=1)
        worst = int(np.argmax(defect))
        if defect[worst] > ASYMMETRY_TOL:
            raise ValidationError(
                f"D(q) asymmetry {defect[worst]:.2e} above "
                f"{ASYMMETRY_TOL:.0e} at q={qpoints[worst].tolist()}")
    return (phases @ sym.reshape(len(lvecs), -1)).reshape(
        len(qpoints), *sym.shape[1:])


def phonon_spectrum(fc, qpoints):
    """Frequencies (nq, 3N) and eigenvectors (nq, 3N, 3N) over a grid.

    Eigenvector columns vecs[iq, :, a] belong to omega[iq, a]; negative
    omega flags an unstable mode.
    """
    lam, vecs = np.linalg.eigh(dynamical_matrices(fc, qpoints))
    omega = np.sign(lam) * FREQ_CM1_PER_SQRT_EV_A2_AMU * np.sqrt(np.abs(lam))
    return omega, vecs


def bose_population(omega, T):
    """Bose-Einstein occupation for omega in cm^-1 at temperature T (K)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValidationError("bose_population requires omega > 0")
    if T < 0:
        raise ValidationError("negative temperature")
    if T == 0:
        return np.zeros_like(omega) if omega.shape else 0.0
    x = omega / (KB_CM1_PER_K * T)
    with np.errstate(over="ignore"):
        n = 1.0 / np.expm1(x)
    n = np.where(np.isfinite(n), n, 0.0)
    return n if omega.shape else float(n)


@dataclass(frozen=True)
class DosCurve:
    """Phonon density of states and its rigid-body decomposition."""

    frequency: np.ndarray  # cm^-1 grid
    total: np.ndarray
    translational: np.ndarray
    rotational: np.ndarray
    intra: np.ndarray
    sigma: float
    #: full-grid count of the modes left out as imaginary
    imaginary_modes: int = 0
    #: wall seconds of the q-blocks (D(q), eigh and the decomposition
    #: weights, on the pool) and of the sort and kernel after them
    timings_s: dict = field(default_factory=dict, compare=False)
    #: threads the q-blocks ran on, and how many blocks there were
    workers: int = field(default=1, compare=False)
    blocks: int = field(default=0, compare=False)

    def area(self):
        return float(np.trapezoid(self.total, self.frequency))


def decomposition_weights(crystal, eigvecs):
    """Batched translation/rotation/intra weights summed over molecules.

    eigvecs: (..., 3N, nmodes) stacks; returns three arrays of shape
    (..., nmodes). Each weight is one sum of |P @ eigvecs|^2 over the
    rows of its kind of ``CrystalModel.rigid_body_rows``; intra is what
    is left of |eigvecs|^2.
    """
    rows, n_trans = crystal.rigid_body_rows
    proj = rows @ eigvecs
    proj = proj.real ** 2 + proj.imag ** 2
    w_t = proj[..., :n_trans, :].sum(axis=-2)
    w_r = proj[..., n_trans:, :].sum(axis=-2)
    share = np.sum(eigvecs.real ** 2 + eigvecs.imag ** 2, axis=-2)
    w_i = np.clip(share - w_t - w_r, 0.0, None)
    return w_t, w_r, w_i


def dos_qblock(fc):
    """q-points per block of ``phonon_dos``: at most ``DOS_QBLOCK``, and
    few enough that the block's D(q) product, (q x n_l)(n_l x (3N)^2)
    over the n_l lattice vectors of ``mass_weighted_blocks``, stays
    within ``DOS_GEMM_MAX``, so OpenBLAS runs it on one thread."""
    n_l = len(fc.mass_weighted_blocks()[0])
    n3 = 3 * fc.crystal.n_atoms
    return max(1, min(DOS_QBLOCK, DOS_GEMM_MAX // max(1, n_l * n3 * n3)))


def usable_cpus():
    """CPUs this process may run on: its affinity set, or the machine's
    count where the platform has no affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(run, blocks, workers):
    """run(start, stop) for each block, on ``workers`` threads when that
    is more than one. A failure raises the error of the first failing
    block in q order, as the serial loop does, and the blocks after it
    that have not started are cancelled."""
    if workers == 1:
        for start, stop in blocks:
            run(start, stop)
        return
    # imported here, not with the module: relax and sweep never pool,
    # and the executor's modules put 0.15 MB on their peak RSS
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(run, *block) for block in blocks]
        wait(futures, return_when=FIRST_EXCEPTION)
        failed = next((k for k, f in enumerate(futures)
                       if f.done() and f.exception() is not None), None)
        if failed is not None:
            for f in futures[failed + 1:]:
                f.cancel()
        for f in futures:
            f.result()


def _dos_weights(weights, nq):
    """Per-q-point DOS weights: one finite, non-negative number per
    q-point, with a positive sum (all 1 when ``weights`` is None)."""
    if weights is None:
        return np.ones(nq)
    try:
        w = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("DOS weights must be numbers") from None
    if w.ndim != 1 or w.size != nq:
        raise ValidationError(
            f"DOS weights must be one per q-point ({nq}), got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValidationError("DOS weights must be finite and >= 0")
    if not w.sum() > 0:
        raise ValidationError("DOS weights must have a positive sum")
    return w


def phonon_dos(fc, qpoints, sigma, weights=None):
    """Gaussian-smeared phonon DOS over a weighted q-point list.

    DOS(w) = sum_{alpha q} w_q kernel(w - w_{alpha q}) / sum_q w_q; the
    integral equals 3N per cell. ``weights`` (one finite, non-negative
    number per q-point with a positive sum, default 1) let one q-point
    stand for its orbit under the crystal's point operations and -E
    (``sweep.kpoint_orbits``, ``symmetry_rotations``), whose q-points
    have the same frequencies and decomposition weights. ``sigma`` must
    be a finite number > 0, the rule of ``RunParams``. Imaginary modes
    (omega < -DEFAULT_OMEGA_MIN) are excluded and counted. Modes with
    |omega| < DEFAULT_OMEGA_MIN, the Gamma acoustic ones, are placed at
    exactly 0, so the round-off that eigh leaves on them does not move
    the DOS near 0.

    The q-points are diagonalised in blocks of ``dos_qblock(fc)``, on a
    thread per usable CPU (``usable_cpus``, at most one per block; with
    one, the blocks run inline). Each block keeps only its modes' omega
    and the weights of their four curves (total, translational,
    rotational, intra), written into its own rows, so the result does
    not depend on the number of threads. The modes are then sorted by
    omega. The grid runs from 0 to max(omega) + DOS_REACH sigma in uniform
    steps Delta of about sigma / 4. Each tile of ``DOS_TILE`` grid points
    (at most 16) takes the kernel of the modes within DOS_REACH sigma of
    it, a contiguous slice of the sorted modes, as a product
    weights @ kernel in chunks of at most ``DOS_CHUNK`` modes; the kernel
    left out is below exp(-DOS_REACH^2) = e^-64 of its peak. On the tile
    t_i = t_0 + i Delta, with delta = Delta / sigma and
    u = (t_0 - omega) / sigma,

        kernel(t_i - omega) = e^(-u^2) r^i c_i,  r = e^(-2 delta u),
        c_i = e^(-(i delta)^2) / (sigma sqrt(pi)),

    so a mode costs two exps per tile and one multiply per further grid
    point, and c scales the product's columns. The slice bounds |u| by
    DOS_REACH + 15 delta (about 11.75), so every factor stays within
    e^+-140. The identity puts t_i at t_0 + i Delta, which differs from
    the grid's rounded t_i by at most an ulp of t_i: a curve moves by at
    most about 2e-16 max(t) / sigma of its maximum.
    """
    sigma = finite_number("sigma", sigma, 0.0)
    qpoints = np.asarray(qpoints, dtype=float)
    if qpoints.size == 0:
        raise ValidationError("empty q-point grid")
    nq = qpoints.shape[0]
    weights = _dos_weights(weights, nq)
    n3 = 3 * fc.crystal.n_atoms
    omega = np.empty(nq * n3)
    mode_w = np.empty((4, nq * n3))  # total, translational, rotational, intra

    def run(start, stop):
        block_omega, vecs = phonon_spectrum(fc, qpoints[start:stop])
        parts = decomposition_weights(fc.crystal, vecs)
        rows = slice(start * n3, stop * n3)
        omega[rows] = block_omega.reshape(-1)
        wq = weights[start:stop, None]
        for curve_w, w in zip(mode_w, (1.0, *parts)):
            curve_w[rows] = np.broadcast_to(wq * w,
                                            block_omega.shape).reshape(-1)

    qblock = dos_qblock(fc)
    blocks = [(start, min(start + qblock, nq))
              for start in range(0, nq, qblock)]
    workers = min(usable_cpus(), len(blocks))
    t0 = time.perf_counter()
    _run_blocks(run, blocks, workers)
    t1 = time.perf_counter()

    omega[np.abs(omega) < DEFAULT_OMEGA_MIN] = 0.0
    order = np.argsort(omega)
    omega = omega[order]
    for curve_w in mode_w:
        curve_w[:] = curve_w[order]
    top = omega[-1] + DOS_REACH * sigma
    n = max(600, int(top / (sigma / 4.0)))
    freq_grid = np.linspace(0.0, top, n)

    cut = int(np.searchsorted(omega, -DEFAULT_OMEGA_MIN))
    imaginary = int(round(mode_w[0, :cut].sum()))
    omega, mode_w = omega[cut:], mode_w[:, cut:]
    reach, delta = DOS_REACH * sigma, top / (n - 1) / sigma
    run = min(DOS_TILE, 16)  # |u| <= DOS_REACH + 15 delta
    c = np.exp(-np.square(np.arange(run) * delta)) / (sigma * np.sqrt(np.pi))
    curves = np.zeros((4, n))
    for g0 in range(0, n, run):
        tile = freq_grid[g0:g0 + run]
        lo, hi = np.searchsorted(omega, (tile[0] - reach, tile[-1] + reach))
        for m0 in range(lo, hi, DOS_CHUNK):
            m1 = min(m0 + DOS_CHUNK, hi)
            u = (tile[0] - omega[m0:m1]) / sigma
            kernel = np.empty((tile.size, m1 - m0))  # e^-u^2 r^i
            np.exp(-u * u, out=kernel[0])
            r = np.exp(-2.0 * delta * u)
            for i in range(1, tile.size):
                np.multiply(kernel[i - 1], r, out=kernel[i])
            curves[:, g0:g0 + run] += (
                mode_w[:, m0:m1] @ kernel.T) * c[:tile.size]
    total, trans, rot, intra = curves / weights.sum()
    timings = {"blocks": t1 - t0, "kernel": time.perf_counter() - t1}
    return DosCurve(frequency=freq_grid, total=total, translational=trans,
                    rotational=rot, intra=intra, sigma=sigma,
                    imaginary_modes=imaginary, timings_s=timings,
                    workers=workers, blocks=len(blocks))
