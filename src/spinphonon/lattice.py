"""Harmonic lattice dynamics: force constants, D(q), DOS, decomposition."""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .units import FREQ_CM1_PER_SQRT_EV_A2_AMU, KB_CM1_PER_K

#: q-points per block of the DOS, diagonalised and then smeared together.
#: On the 12-branch criterion-07 crystal at 32^3 (16,388 paired q-points,
#: 2 vCPU), the `dos` verb took 0.60 s at 256 (76 MB peak RSS of the
#: process), 0.82 s at 64, 0.67-0.86 s at 1024 (82 MB) and 0.70-0.81 s
#: at 2048 (90 MB).
DOS_QBLOCK = 256

#: reach of a mode's kernel in the DOS, in units of sigma
DOS_REACH = 8

#: DOS grid points smeared together: the modes within DOS_REACH sigma of
#: a tile form one slice of the frequency-sorted modes
DOS_TILE = 16

#: most modes in one kernel product of a DOS tile (bounds its scratch)
DOS_CHUNK = 4096

#: largest |D - D^H| (eV/A^2/amu) accepted before D(q) is symmetrized
ASYMMETRY_TOL = 1e-9

#: |omega| (cm^-1) below which a mode counts as zero whatever its sign:
#: eigh round-off leaves the Gamma acoustic modes at either sign, so only
#: omega < -DEFAULT_OMEGA_MIN is imaginary. The relaxation pipeline also
#: leaves out the modes below it, which guards the 1/sqrt(omega)
#: amplitude of the coupling.
DEFAULT_OMEGA_MIN = 0.01


def gaussian_kernel(x, sigma):
    """Normalized smearing kernel exp(-x^2/sigma^2) / (sigma sqrt(pi)).

    sigma is a breadth, not a standard deviation.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-((x / sigma) ** 2)) / (sigma * np.sqrt(np.pi))


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
        uniq, inv = np.unique(self.lvecs, axis=0, return_inverse=True)
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
        lvecs, inv = np.unique(np.concatenate([uniq, -uniq]), axis=0,
                               return_inverse=True)
        invsq = 1.0 / np.sqrt(np.repeat(self.crystal.masses, 3))
        weighted = np.zeros((len(lvecs), n3, n3))
        weighted[inv.reshape(-1)[:len(uniq)]] = phi * np.outer(invsq, invsq)
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
    #: seconds in phonon_spectrum, decomposition_weights and the kernel
    timings_s: dict = field(default_factory=dict, compare=False)

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


def phonon_dos(fc, qpoints, sigma, weights=None):
    """Gaussian-smeared phonon DOS over a weighted q-point list.

    DOS(w) = sum_{alpha q} w_q kernel(w - w_{alpha q}) / sum_q w_q; the
    integral equals 3N per cell. ``weights`` (one per q-point, default
    1) let one q-point stand for its partner at -q (``sweep.
    paired_kpoint_grid``), which has the same frequencies and
    decomposition weights. Imaginary modes (omega < -DEFAULT_OMEGA_MIN)
    are excluded and counted; the Gamma acoustic modes are kept whatever
    the sign eigh leaves on them.

    The q-points are diagonalised in blocks of ``DOS_QBLOCK``, and only
    each mode's omega and the weights of its four curves (total,
    translational, rotational, intra) are kept, then sorted by omega.
    The grid runs from 0 to max(omega) + DOS_REACH sigma in steps of
    about sigma / 4. Each tile of ``DOS_TILE`` grid points takes the
    kernel of the modes within DOS_REACH sigma of it, a contiguous slice
    of the sorted modes, as a product weights @ kernel in chunks of at
    most ``DOS_CHUNK`` modes; the kernel left out is below
    exp(-DOS_REACH^2) = e^-64 of its peak.
    """
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    qpoints = np.asarray(qpoints, dtype=float)
    if qpoints.size == 0:
        raise ValidationError("empty q-point grid")
    nq = qpoints.shape[0]
    weights = (np.ones(nq) if weights is None
               else np.asarray(weights, dtype=float).reshape(nq))
    n3 = 3 * fc.crystal.n_atoms
    omega = np.empty(nq * n3)
    mode_w = np.empty((4, nq * n3))  # total, translational, rotational, intra
    timings = {"spectrum": 0.0, "decomposition": 0.0}
    start_s = time.perf_counter()
    for start in range(0, nq, DOS_QBLOCK):
        stop = min(start + DOS_QBLOCK, nq)
        t0 = time.perf_counter()
        block_omega, vecs = phonon_spectrum(fc, qpoints[start:stop])
        t1 = time.perf_counter()
        parts = decomposition_weights(fc.crystal, vecs)
        timings["spectrum"] += t1 - t0
        timings["decomposition"] += time.perf_counter() - t1
        rows = slice(start * n3, stop * n3)
        omega[rows] = block_omega.reshape(-1)
        wq = weights[start:stop, None]
        for curve_w, w in zip(mode_w, (1.0, *parts)):
            curve_w[rows] = np.broadcast_to(wq * w,
                                            block_omega.shape).reshape(-1)

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
    reach = DOS_REACH * sigma
    curves = np.zeros((4, n))
    for g0 in range(0, n, DOS_TILE):
        tile = freq_grid[g0:g0 + DOS_TILE]
        lo, hi = np.searchsorted(omega, (tile[0] - reach, tile[-1] + reach))
        for m0 in range(lo, hi, DOS_CHUNK):
            m1 = min(m0 + DOS_CHUNK, hi)
            curves[:, g0:g0 + DOS_TILE] += mode_w[:, m0:m1] @ gaussian_kernel(
                tile[None, :] - omega[m0:m1, None], sigma)
    total, trans, rot, intra = curves / weights.sum()
    timings["kernel"] = (time.perf_counter() - start_s - timings["spectrum"]
                         - timings["decomposition"])
    return DosCurve(frequency=freq_grid, total=total, translational=trans,
                    rotational=rot, intra=intra, sigma=sigma,
                    imaginary_modes=imaginary, timings_s=timings)
