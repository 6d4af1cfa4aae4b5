"""Harmonic lattice dynamics: force constants, D(q), DOS, decomposition."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .units import FREQ_CM1_PER_SQRT_EV_A2_AMU, KB_CM1_PER_K

#: q-points per block of the DOS, diagonalised and then smeared together.
#: On the 12-branch criterion-07 crystal at 32^3 (2 vCPU), 256 gave the
#: fastest DOS (2.5 s, 87 MB peak RSS); 2048 took 3.2 s and 174 MB.
DOS_QBLOCK = 256

#: reach of a mode's kernel in the DOS, in units of sigma
DOS_REACH = 8

#: largest |D - D^H| (eV/A^2/amu) accepted before D(q) is symmetrized
ASYMMETRY_TOL = 1e-9


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

    q-points in fractional reciprocal coordinates; returns the
    symmetrized (Hermitian) stack (nq, 3N, 3N). A force constant set
    whose D(q) departs from Hermitian by more than ``ASYMMETRY_TOL`` at
    any q-point is rejected.
    """
    if fc.n_records == 0:
        raise ValidationError("empty force constant set")
    uniq, phi = fc.dense_blocks()
    masses = fc.crystal.masses
    if np.any(masses <= 0):
        raise ValidationError("missing or non-positive masses")
    invsq = 1.0 / np.sqrt(np.repeat(masses, 3))
    weight = np.outer(invsq, invsq)
    qpoints = np.asarray(qpoints, dtype=float)
    phases = np.exp(2j * np.pi * (qpoints @ uniq.T))  # (nq, nl)
    D = np.tensordot(phases, phi, axes=(1, 0)) * weight[None, :, :]
    Dh = np.conj(np.transpose(D, (0, 2, 1)))
    asym = np.max(np.abs(D - Dh), axis=(1, 2))
    worst = int(np.argmax(asym))
    if asym[worst] > ASYMMETRY_TOL:
        raise ValidationError(
            f"D(q) asymmetry {asym[worst]:.2e} above {ASYMMETRY_TOL:.0e} "
            f"at q={qpoints[worst].tolist()}")
    return 0.5 * (D + Dh)


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

    def area(self):
        return float(np.trapezoid(self.total, self.frequency))


def rigid_body_basis(crystal, molecule_id):
    """Orthonormal mass-weighted translation/rotation vectors for one molecule.

    Returns (atom_indices, T, R): T is (3, 3n_mol) and R (rank, 3n_mol)
    in the molecule's own 3n_mol-dimensional block. Rank-deficient
    rotations (linear molecules, single atoms) simply yield fewer rows.
    """
    idx = crystal.molecule_atoms(molecule_id)
    masses = crystal.masses[idx]
    pos = crystal.cart_positions[idx]
    com = masses @ pos / masses.sum()
    rel = pos - com
    sq = np.sqrt(masses)

    trans = np.zeros((3, 3 * idx.size))
    for s in range(3):
        trans[s, s::3] = sq
    rots = np.zeros((3, 3 * idx.size))
    for s in range(3):
        axis = np.zeros(3)
        axis[s] = 1.0
        disp = np.cross(np.broadcast_to(axis, rel.shape), rel)
        rots[s] = (disp * sq[:, None]).reshape(-1)

    # Orthonormalize: translations are already orthogonal; project them
    # out of the rotations and keep the non-degenerate directions.
    trans /= np.linalg.norm(trans, axis=1, keepdims=True)
    rots -= (rots @ trans.T) @ trans
    u, sv, vt = np.linalg.svd(rots, full_matrices=False)
    scale = max(1.0, sv[0]) if sv.size else 1.0
    keep = sv > 1e-10 * scale
    rot_basis = vt[keep]
    return idx, trans, rot_basis


def decomposition_weights(crystal, eigvecs):
    """Batched translation/rotation/intra weights summed over molecules.

    eigvecs: (..., 3N, nmodes) stacks; returns three arrays of shape
    (..., nmodes).
    """
    w_t = 0.0
    w_r = 0.0
    share = 0.0
    for mol in crystal.molecule_ids:
        idx, trans, rots = rigid_body_basis(crystal, mol)
        comp = (3 * idx[:, None] + np.arange(3)[None, :]).reshape(-1)
        block = np.take(eigvecs, comp, axis=-2)
        share = share + np.sum(np.abs(block) ** 2, axis=-2)
        w_t = w_t + np.sum(np.abs(np.einsum("bk,...kn->...bn", trans, block)) ** 2, axis=-2)
        if rots.size:
            w_r = w_r + np.sum(np.abs(np.einsum("bk,...kn->...bn", rots, block)) ** 2, axis=-2)
    w_i = np.clip(share - w_t - w_r, 0.0, None)
    return w_t, w_r, w_i


def phonon_dos(fc, qpoints, sigma, weights=None):
    """Gaussian-smeared phonon DOS over a weighted q-point list.

    DOS(w) = sum_{alpha q} w_q kernel(w - w_{alpha q}) / sum_q w_q; the
    integral equals 3N per cell. ``weights`` (one per q-point, default
    1) let one q-point stand for its partner at -q (``sweep.
    paired_kpoint_grid``), which has the same frequencies and
    decomposition weights. Imaginary modes are excluded.

    The q-points are diagonalised in blocks of ``DOS_QBLOCK``, and only
    each mode's omega and its three decomposition weights are kept. The
    grid runs from 0 to max(omega) + DOS_REACH sigma in steps of about
    sigma / 4. Each mode's kernel is added only on a fixed-width window
    of grid points covering omega +- DOS_REACH sigma (shifted to stay
    inside the grid); the kernel left out is below
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
    # per q-block: omega and the weights of its four curves (total,
    # translational, rotational, intra), flat over modes
    blocks = []
    for start in range(0, nq, DOS_QBLOCK):
        omega, vecs = phonon_spectrum(fc, qpoints[start:start + DOS_QBLOCK])
        wq = weights[start:start + DOS_QBLOCK, None]
        parts = decomposition_weights(fc.crystal, vecs)
        blocks.append((omega.reshape(-1), np.stack(
            [np.broadcast_to(wq * w, omega.shape).reshape(-1)
             for w in (1.0, *parts)])))
    top = max(float(omega.max()) for omega, _ in blocks) + DOS_REACH * sigma
    n = max(600, int(top / (sigma / 4.0)))
    freq_grid = np.linspace(0.0, top, n)

    step = top / (n - 1)
    width = min(n, int(np.ceil(2 * DOS_REACH * sigma / step)) + 2)
    curves = np.zeros((4, n))
    for omega, w in blocks:
        stable = omega >= 0
        omega, w = omega[stable], w[:, stable]
        first = np.clip(np.floor((omega - DOS_REACH * sigma) / step).astype(int),
                        0, n - width)
        idx = first[:, None] + np.arange(width)
        k = gaussian_kernel(freq_grid[idx] - omega[:, None], sigma)
        idx = idx.reshape(-1)
        for curve, wc in zip(curves, w):
            curve += np.bincount(idx, weights=(wc[:, None] * k).reshape(-1),
                                 minlength=n)
    total, trans, rot, intra = curves / weights.sum()
    return DosCurve(frequency=freq_grid, total=total, translational=trans,
                    rotational=rot, intra=intra, sigma=sigma)
