"""Harmonic lattice dynamics: force constants, D(q), DOS, decomposition."""

import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

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

#: most elements of a temporary array of the symmetry search and of
#: ``sweep.paired_orbits``: a larger stack of operations, or of their
#: q-point images, is taken in chunks
SYMMETRY_BLOCK = 1 << 18

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


def _closure(S):
    """The distinct integer matrices S (m, 3, 3) closed under products,
    those of S first and the products after them in order of first
    appearance. Matrices of a finite group close into a subgroup: the
    inverse of each is one of its powers."""
    while True:
        m = len(S)
        # every S_a S_b at once: rows (a, i) of S times columns (b, k)
        prod = S.reshape(-1, 3) @ S.transpose(1, 0, 2).reshape(3, -1)
        rows = np.concatenate([S.reshape(-1, 9), prod.reshape(
            m, 3, m, 3).transpose(0, 2, 1, 3).reshape(-1, 9)])
        keys = _unique_rows(rows)[1]
        if np.all(np.isin(keys[m:], keys[:m])):
            return S
        first = np.unique(keys, return_index=True)[1]
        S = rows[np.sort(first)].reshape(-1, 3, 3)


def _cartesian(cell, S):
    """Cartesian rotations R = cell^T S cell^-T of fractional rotations S
    (..., 3, 3), for Cartesian positions cell^T x."""
    return cell.T @ S @ np.linalg.inv(cell.T)


def _lattice_rotations(cell):
    """Integer fractional rotations S (x -> S x) with S^T G S = G for the
    metric G = cell cell^T, the identity first: a group. Column a of S,
    the image of lattice vector a, is drawn from the integer vectors in
    {-1, 0, 1}^3 of that vector's length, which holds every rotation of
    a reduced cell. A cell that is not reduced misses some there, so the
    found set is closed under products (``_closure``); that recovers
    those the found ones generate, and a missing one costs speed, not
    correctness."""
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
    metric = S.transpose(0, 2, 1) @ G @ S
    S = S[np.all(np.abs(metric - G) <= tol, axis=(1, 2))]
    # the identity first
    return _closure(S[np.argsort(~np.all(S == np.eye(3, dtype=int),
                                         axis=(1, 2)), kind="stable")])


def _atom_maps(frac, cell, kind, mol, S, taus):
    """(ok, perm, shift, tau) of each rotation S[k] (m, 3, 3) and the
    first of its candidate translations taus[k] (m, c, 3) under which
    every atom i, at fractional ``frac[i]``, goes to S x_i + tau =
    x_perm[i] + shift[i], an atom of the same ``kind`` (equal mass), with
    the molecules (``mol``) going onto whole molecules and one integer
    shift for all the atoms of each; ok[k] is False when no tau does."""
    n = frac.shape[0]
    diff = ((frac @ S.transpose(0, 2, 1))[:, None, :, None, :]
            + taus[:, :, None, None, :] - frac)  # (k, tau, i, j, 3)
    shift = np.rint(diff)
    off = (diff - shift) @ cell
    reach = SYMMETRY_TOL * np.sqrt(np.max(np.sum(cell * cell, axis=1)))
    match = ((np.sum(off * off, axis=-1) <= reach * reach)
             & (kind[:, None] == kind[None, :]))
    perm = np.argmax(match, axis=-1)  # (k, tau, i)
    moved = np.take_along_axis(shift, perm[..., None, None],
                               axis=-2)[..., 0, :].astype(int)
    same = mol[:, None] == mol[None, :]
    first = np.argmax(same, axis=1)  # first atom of each atom's molecule
    ok = (match.any(axis=-1).all(axis=-1)
          & np.all(np.sort(perm, axis=-1) == np.arange(n), axis=-1)
          & np.all(same[perm[..., :, None], perm[..., None, :]] == same,
                   axis=(-2, -1))
          & np.all(moved == moved[..., first, :], axis=(-2, -1)))
    k, c = np.arange(len(S)), np.argmax(ok, axis=1)
    return ok[k, c], perm[k, c], moved[k, c], taus[k, c]


class _ForceConstantBlocks:
    """The nonzero 3 x 3 blocks Phi_ij(l) of a force constant set, keyed
    by (l, i, j) for the check of ``__call__``."""

    def __init__(self, fc):
        uniq, phi = fc.dense_blocks()
        n = fc.crystal.n_atoms
        phi = phi.reshape(len(uniq), n, 3, n, 3)
        k, self.i, self.j = np.nonzero(np.any(phi != 0.0, axis=(2, 4)))
        self.lvecs, self.blocks = uniq[k], phi[k, self.i, :, self.j]
        self.tol = SYMMETRY_TOL * np.max(np.abs(self.blocks), initial=0.0)
        self.n, self.cell = n, fc.crystal.cell

    def __call__(self, S, perm, shift):
        """Whether each operation k takes every block Phi_ij(l) onto
        Phi_perm(i) perm(j)(S l + shift_j - shift_i) = R Phi_ij(l) R^T, R
        its Cartesian rotation, within SYMMETRY_TOL of max|Phi|: (m,)
        bool. A block mapped where there is none must vanish. Then every
        block is also the image of one: the operation cycles the blocks
        (l, i, j)."""
        i, j, n = self.i, self.j, self.n
        if not i.size:
            return np.ones(len(S), dtype=bool)
        R = _cartesian(self.cell, S)
        # R B R^T of each block B, as B (R x R)^T on the flattened B
        kron = np.einsum("kas,kbt->kstab", R, R).reshape(-1, 9, 9)
        turned = self.blocks.reshape(-1, 9) @ kron  # (k, block, 9)
        target = (self.lvecs @ S.transpose(0, 2, 1) + shift[:, j]
                  - shift[:, i])
        # blocks as integer keys, monotone in the order of (l, i, j)
        reach = int(max(np.max(np.abs(self.lvecs)),
                        np.max(np.abs(target)))) + 1
        base = 2 * reach + 1
        weights = np.array([base * base, base, 1])
        keys = ((self.lvecs + reach) @ weights * n + i) * n + j
        want = ((target + reach) @ weights * n + perm[:, i]) * n + perm[:, j]
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        found = keys[pos] == want
        actual = self.blocks.reshape(-1, 9)[pos]
        actual[~found] = 0.0
        return np.max(np.abs(turned - actual), axis=(1, 2)) <= self.tol


class Symmetry(NamedTuple):
    """Operations x -> S x + tau of a crystal (``symmetry_rotations``):
    operation k takes atom i to atom perms[k, i] in the cell of lattice
    vector shifts[k, i]."""

    rotations: np.ndarray  # (m, 3, 3) int fractional S, identity first
    translations: np.ndarray  # (m, 3) fractional tau
    perms: np.ndarray  # (m, N) int
    shifts: np.ndarray  # (m, N, 3) int


def _chunked(fn, size, *stacks):
    """fn over the leading axis of ``stacks`` in chunks, each of whose
    operations holds ``size`` elements, of at most SYMMETRY_BLOCK
    elements; the tuples fn returns, concatenated."""
    step = max(1, SYMMETRY_BLOCK // max(1, size))
    parts = [fn(*(s[k:k + step] for s in stacks))
             for k in range(0, len(stacks[0]), step)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def symmetry_rotations(fc):
    """The space-group operations x -> S x + tau of the crystal of ``fc``
    that also leave its force constants and molecules unchanged: a
    ``Symmetry``, a group whose first operation is the identity.

    S preserves the metric cell cell^T (``_lattice_rotations``); the
    operation takes every atom onto an atom of the same mass, every
    molecule, by its unwrapped positions, onto a molecule with one
    lattice shift for all its atoms (so the rigid-body rows of
    ``decomposition_weights`` go onto rigid-body rows), and the force
    constants onto themselves within ``SYMMETRY_TOL`` of max|Phi|. Such
    an operation gives D(q') = U D(S^T q') U^H with U unitary
    (``unfold_modes``), so q' and S^T q' have the same frequencies and
    decomposition weights (``sweep.kpoint_orbits``). Candidate
    translations take the first atom of the rarest mass onto each atom
    of that mass; the first that maps the atoms is kept. Every rotation
    is checked at once, in chunks of ``SYMMETRY_BLOCK`` elements. On force
    constants that are symmetric only to within the tolerance, products
    of accepted operations may fail it; the set is then not a group, and
    only the identity is kept.
    """
    crystal = fc.crystal
    frac, cell = crystal.frac_positions, crystal.cell
    _, kind, count = np.unique(crystal.masses, return_inverse=True,
                               return_counts=True)
    mol = np.array([a.molecule for a in crystal.atoms])
    ref = int(np.argmin(count[kind]))
    S = _lattice_rotations(cell)
    taus = frac[kind == kind[ref]][None] - (S @ frac[ref])[:, None]
    n = crystal.n_atoms
    ok, perm, shift, tau = _chunked(
        lambda *a: _atom_maps(frac, cell, kind, mol, *a),
        3 * taus.shape[1] * n * n, S, taus)
    S, perm, shift, tau = S[ok], perm[ok], shift[ok], tau[ok]
    keep = np.ones(len(S), dtype=bool)
    if len(S) > 1:  # the identity, first, needs no check
        blocks = _ForceConstantBlocks(fc)
        keep[1:], = _chunked(lambda *a: (blocks(*a),), 9 * len(blocks.i) + 1,
                             S[1:], perm[1:], shift[1:])
    if len(_closure(S[keep])) > np.count_nonzero(keep):
        keep = [0]
    return Symmetry(S[keep], tau[keep], perm[keep], shift[keep])


def unfold_modes(crystal, symmetry, op, reverse, qpoints, vecs, source):
    """Eigenvectors at q' = qpoints[k] (fractional) from those
    ``vecs[source[k]]`` (3N, M) of D(q) at a q-point that operation
    S = symmetry.rotations[op[k]] relates to it: S^T q' = q, or
    S^T q' = -q where ``reverse[k]``, modulo the reciprocal lattice.

    D(q') = U D(S^T q') U^H with U_perm(i),i = e^{-2 pi i q'.shift_i} R
    (R the Cartesian rotation, ``Symmetry`` the permutation and shifts),
    and D(-q) = conj D(q): the force constants are real. So the
    eigenvectors at q' are U v, or U conj(v), with the frequencies of
    q. Returns the stack (K, 3N, M)."""
    K, M = len(op), vecs.shape[-1]
    R = _cartesian(crystal.cell, symmetry.rotations)[op][:, None]
    # row j of U v is the turned row of the atom that goes to j
    atom = np.argsort(symmetry.perms, axis=1)[op]  # (K, N)
    v = np.reshape(vecs, (len(vecs), -1, 3, M))[source[:, None], atom]
    # R is real: it turns the real and imaginary parts side by side, and
    # R conj(v) = conj(R v)
    turned = (R @ v.view(float)).view(complex)
    np.conjugate(turned, out=turned, where=reverse[:, None, None, None])
    shift = symmetry.shifts[op[:, None], atom]  # (K, N, 3)
    turned *= np.exp(-2j * np.pi * np.sum(shift * qpoints[:, None], axis=2)
                     )[:, :, None, None]
    return turned.reshape(K, -1, M)


def dynamical_matrices(fc, qpoints):
    """Mass-weighted D(q) = sum_l Phi^l0 e^{i q.R_l} / sqrt(m_i m_j).

    q-points in fractional reciprocal coordinates; returns the stack
    (nq, 3N, 3N), Hermitian to round-off, built from the symmetrized
    blocks of ``ForceConstantSet.mass_weighted_blocks`` as one
    (nq x n_l)(n_l x 9N^2) product, after ``check_hermitian`` at every
    q-point.
    """
    if fc.n_records == 0:
        raise ValidationError("empty force constant set")
    if np.any(fc.crystal.masses <= 0):
        raise ValidationError("missing or non-positive masses")
    lvecs, sym, _ = fc.mass_weighted_blocks()
    qpoints = np.asarray(qpoints, dtype=float)
    phases = np.exp(2j * np.pi * (qpoints @ lvecs.T))  # (nq, nl)
    check_hermitian(fc, qpoints, phases)
    return (phases @ sym.reshape(len(lvecs), -1)).reshape(
        len(qpoints), *sym.shape[1:])


def check_hermitian(fc, qpoints, phases=None):
    """ValidationError naming the worst q-point when the unsymmetrized
    D(q) of ``fc`` departs from Hermitian by more than ``ASYMMETRY_TOL``
    (largest |element| of D - D^H) at any of the fractional ``qpoints``;
    ``phases`` are their e^{i q.R_l} over ``fc.mass_weighted_blocks()``,
    if already at hand. Nothing is computed when every block equals the
    transpose of its -l partner."""
    lvecs, _, asym = fc.mass_weighted_blocks()
    if asym is None:
        return
    if phases is None:
        phases = np.exp(2j * np.pi * (qpoints @ lvecs.T))
    defect = np.max(np.abs(phases @ asym.reshape(len(lvecs), -1)), axis=1)
    worst = int(np.argmax(defect))
    if defect[worst] > ASYMMETRY_TOL:
        raise ValidationError(
            f"D(q) asymmetry {defect[worst]:.2e} above "
            f"{ASYMMETRY_TOL:.0e} at q={qpoints[worst].tolist()}")


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
