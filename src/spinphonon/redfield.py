"""Non-secular Redfield superoperator, propagation and relaxation times.

rho evolves under L = -i diag(omega_ab) + R in the eigenbasis of the spin
Hamiltonian. Every spectral step diagonalises L on clusters of Bohr
frequencies (``bohr_clusters``, ``_BlockEigensystem``): the partial-
secular approximation, which drops the elements of R between clusters
at least CLUSTER_GAP_FACTOR rates apart.

Rate units: with spin energies in cm^-1 and the one-phonon correlation
function carrying 1/cm^-1, the master-matrix elements come out in 1/ps
after multiplying by the rad/ps-per-cm^-1 conversion (hbar = 1).
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .lattice import bose_population, gaussian_kernel
from .units import ANGULAR_FREQUENCY_PER_CM1, KB_CM1_PER_K, PS_PER_MS

#: (pi / 2 hbar^2) in working units: multiplies V^2 [cm^-2] * G [cm] -> 1/ps
RATE_PREFACTOR = 0.5 * np.pi * ANGULAR_FREQUENCY_PER_CM1

SECULAR_TOL_CM1 = 1e-8

#: partial-secular rule: Bohr frequencies further apart than this many
#: times the rate scale fall into different clusters
CLUSTER_GAP_FACTOR = 100

#: most negative eigenvalue a stationary state may have
POSITIVITY_TOL = 1e-8

#: largest forward error bound, eps cond_1(M), of the zero-cluster
#: solves: above it the stationary state is not unique to working precision
SOLVE_TOL = 1e-3

#: elements of each temporary array of assembly that grows with d^2
ASSEMBLY_BLOCK = 1 << 16


@dataclass(frozen=True)
class PhononCorrelation:
    """Gaussian-smeared one-phonon correlation function parameters."""

    sigma: float  # cm^-1 (breadth)
    temperature: float  # K

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        if self.temperature < 0:
            raise ValidationError("negative temperature")


def phonon_correlation_value(pc, omega_ij, omega_mode):
    """G = n gauss(w_mode - w_ij) + (n+1) gauss(w_mode + w_ij), in 1/cm^-1."""
    if np.any(np.asarray(omega_mode) <= 0):
        raise ValidationError("omega_mode must be positive")
    n = bose_population(omega_mode, pc.temperature)
    # in place: G spans every mode frequency and Bohr frequency
    G = gaussian_kernel(omega_mode - omega_ij, pc.sigma)
    G *= n
    emission = gaussian_kernel(omega_mode + omega_ij, pc.sigma)
    emission *= n + 1.0
    G += emission
    return G


@dataclass(frozen=True)
class RedfieldTensor:
    """The superoperator on vectorized rho, in the eigenbasis, inside the
    Bohr clusters of the total generator: one complex element vector
    (1/ps) per channel on the kept clusters (``BohrClusters``). Channel
    selections share the total's clusters and need no reassembly."""

    ham: object
    channels: dict = field(repr=False)
    clusters: object = field(repr=False)
    n_couplings: int = 0

    @property
    def dimension(self):
        return self.ham.dimension

    def elements(self, channels=None):
        """The element vector (1/ps) summed over the requested channels,
        every channel by default."""
        return sum((x for ch, x in self.channels.items()
                    if channels is None or ch in channels),
                   np.zeros(self.clusters.offsets[-1], complex))

    def matrix(self, channels=None):
        """Dense d^2 x d^2 superoperator (1/ps) summed over the requested
        channels, zero between clusters, each cluster above zero scattered
        again as its conjugate on transposed indices: for checks at small d."""
        d, zero = self.dimension, self.clusters.offsets[1]
        out = np.zeros((d * d,) * 2, dtype=complex)
        x, ab = self.elements(channels), np.stack(self.clusters.pairs())
        out[tuple(ab)] = x
        out[tuple(_transposed(ab[:, zero:], d))] = x[zero:].conj()
        return out


def _term_sums(stack, pc, omega):
    """[(P, Q)] (n, d, d) of every term of ``stack`` at the correlations
    G(omega_xy; omega_f) of the Bohr frequencies ``omega`` (d, d), in
    real products on the (Re, Im) pairs of each B.

    Columns xy with x <= y are taken in blocks, each with its transposes
    yx: omega_yx = -omega_xy exactly, so G there holds the same two
    kernels with the Bose weights swapped. A block of m columns over F
    mode frequencies holds the kernels (m, F) and G (2m, F), and a term
    H (2m, n^2), with m sized so that G and H hold at most
    ASSEMBLY_BLOCK elements each: no array spans F x d^2."""
    d, freqs = omega.shape[0], stack.freqs
    n = bose_population(freqs, pc.temperature)  # raises on omega_f <= 0
    x, y = np.triu_indices(d)
    upper, lower, w = x * d + y, y * d + x, omega.reshape(-1, 1)
    sums = [(np.empty((t.basis.shape[0], d * d), complex),
             np.empty((t.basis.shape[0], d * d), complex))
            for t in stack.terms]
    rows = max([1, freqs.size] + [W.shape[1] for W in stack.gram])
    size = max(1, ASSEMBLY_BLOCK // (2 * rows))
    for start in range(0, upper.size, size):
        j = slice(start, start + size)
        cols = np.concatenate([upper[j], lower[j]])
        absorb = gaussian_kernel(freqs - w[upper[j]], pc.sigma)
        emit = gaussian_kernel(freqs + w[upper[j]], pc.sigma)
        m = absorb.shape[0]
        # as phonon_correlation_value forms it, at xy and at yx
        G = np.empty((2 * m, freqs.size))
        np.multiply(absorb, n, out=G[:m])
        np.multiply(emit, n, out=G[m:])
        absorb *= n + 1.0
        emit *= n + 1.0
        G[:m] += emit
        G[m:] += absorb
        del absorb, emit
        for (P, Q), term, W in zip(sums, stack.terms, stack.gram):
            k = term.basis.shape[0]
            H = (G @ W).reshape(2, m, k, k)  # H_kl of each column
            B = np.take(term.basis.reshape(k, -1), cols, axis=1)
            Bri = np.ascontiguousarray(B.T).view(float).reshape(2, m, k, 2)
            # Q_k,xy = sum_l H_kl,yx B_l,xy: the halves of H swapped
            for out, h in ((P, H), (Q, H[::-1])):
                out[:, cols] = (h @ Bri).view(complex).reshape(2 * m, k).T
            # h views H: free this term's arrays before the next term's
            del H, h, B, Bri
        del G  # before the next block's kernels
    return [(P.reshape(-1, d, d), Q.reshape(-1, d, d)) for P, Q in sums]


def _term_elements(P, Q, B, ac, db):
    """sum_k (P_k,ac B_k,db + B_k,ac Q_k,db) of each element of a term,
    ASSEMBLY_BLOCK / 4n elements at a time: the two gathers of each
    product together hold half of ASSEMBLY_BLOCK."""
    n = B.shape[0]
    P, Q, B = (x.reshape(n, -1) for x in (P, Q, B))
    out = np.empty(ac.size, dtype=complex)
    size = max(1, ASSEMBLY_BLOCK // (4 * n))
    for start in range(0, ac.size, size):
        k = slice(start, start + size)
        i, j = ac[k], db[k]
        out[k] = np.einsum("jk,jk->k", np.take(P, i, axis=1),
                           np.take(B, j, axis=1))
        out[k] += np.einsum("jk,jk->k", np.take(B, i, axis=1),
                            np.take(Q, j, axis=1))
    return out


def assemble_redfield(stack, ham, pc, secular=False, check=None):
    """In-cluster elements of the (non-)secular Redfield tensor of a
    CouplingStack in the eigenbasis of ``ham``; per channel, over the
    rows V of its terms,

        R_{ab,cd} = sum_V V_ac V_db (G_ac + G_bd)
                    - delta_bd S1_ac - delta_ac S2_db,
        S1 = sum_V V (G V),  S2 = sum_V (V G^T) V,

    G = G(omega_xy; omega_V) elementwise: R conserves the trace. No
    product of two rows enters, even within a term. One row obeys
    detailed balance, R_bb,aa / R_aa,bb = exp(-omega_V / kT), for
    omega_V and omega_ba several sigma above zero; a sum of rows need
    not. A term's rows are real combinations of its n operators B_k, so
    its sums are taken on them: with its Gram W, H_kl = sum_f W_f,kl G^f
    (one real GEMM), P_k = sum_l H_kl o B_l, Q_k = sum_l H_kl^T o B_l
    (o elementwise; ``_term_sums``), S1 = sum_k B_k P_k,
    S2 = sum_k Q_k B_k, and each element takes 2n products
    (``_term_elements``).

    Pass 1 evaluates G once per distinct mode frequency, on blocks of
    Bohr-frequency columns of ASSEMBLY_BLOCK elements (``_term_sums``),
    forms P, Q, S1 and S2 of every term and bounds the absolute row sums
    of R by the triangle inequality over k,

        bound_ab = sum_terms sum_k [(sum_c |P_k,ac|)(sum_d |B_k,db|)
                                    + (sum_c |B_k,ac|)(sum_d |Q_k,db|)]
                   + sum_c |S1_ac| + sum_d |S2_db|

    with S1 and S2 summed over every term, and clusters the Bohr
    frequencies at that rate; ``check(clusters, n_channels, n_operators,
    n_freqs)`` may raise, with n_operators the B_k of every term, whose P
    and Q pass 2 holds, and n_freqs the F mode frequencies of pass 1.
    Pass 2 computes the elements of the kept clusters only: the zero
    cluster and those above zero. Its temporaries that grow with the
    elements hold ASSEMBLY_BLOCK elements."""
    d = ham.dimension
    if stack.dimension != d:
        raise ValidationError(
            "coupling not rotated into the Hamiltonian eigenbasis")
    omega = ham.omega  # (x, y): E_x - E_y
    bound, S1, S2, sums = np.zeros((d, d)), {}, {}, []
    for term, (P, Q) in zip(stack.terms, _term_sums(stack, pc, omega)):
        B, ch = term.basis, term.channel
        n = B.shape[0]
        size = np.abs(B)
        bound += np.abs(P).sum(axis=2).T @ size.sum(axis=1)
        bound += size.sum(axis=2).T @ np.abs(Q).sum(axis=1)
        S1[ch] = S1.get(ch, 0.0) + B.transpose(1, 0, 2).reshape(
            d, n * d) @ P.reshape(n * d, d)
        S2[ch] = S2.get(ch, 0.0) + Q.transpose(1, 0, 2).reshape(
            d, n * d) @ B.reshape(n * d, d)
        sums.append((ch, P, Q, B))
    bound += np.abs(sum(S1.values(), np.zeros((d, d)))).sum(axis=1)[:, None]
    bound += np.abs(sum(S2.values(), np.zeros((d, d)))).sum(axis=0)
    # np.max, not max: a NaN must propagate into the rate
    clusters = bohr_clusters(omega.reshape(-1) * ANGULAR_FREQUENCY_PER_CM1,
                             RATE_PREFACTOR * np.max(bound))
    if check is not None:
        check(clusters, len(S1), sum(B.shape[0] for *_, B in sums),
              stack.freqs.size)

    ab, cd = clusters.pairs()
    (a, b), (c, e) = np.divmod(ab, d), np.divmod(cd, d)
    ac, db = a * d + c, e * d + b
    parts = {ch: np.zeros(ab.size, dtype=complex) for ch in S1}
    for ch, P, Q, B in sums:
        parts[ch] += _term_elements(P, Q, B, ac, db)
    w = omega.reshape(-1)
    for ch, x in parts.items():
        x[b == e] -= S1[ch].reshape(-1)[ac[b == e]]
        x[a == c] -= S2[ch].reshape(-1)[db[a == c]]
        x *= RATE_PREFACTOR
        if secular:
            # elements coupling rho_ab to rho_cd with w_ab != w_cd
            x[np.abs(w[ab] - w[cd]) > SECULAR_TOL_CM1] = 0.0
    return RedfieldTensor(ham=ham, channels=parts, clusters=clusters,
                          n_couplings=len(stack))


def equilibrium_state(ham, T):
    """rho_eq = exp(-H/kT)/Z in the eigenbasis: a diagonal d x d array."""
    if T <= 0:
        raise ValidationError("equilibrium_state requires T > 0")
    x = -(ham.eigvals - ham.eigvals.min()) / (KB_CM1_PER_K * T)
    w = np.exp(x)
    return np.diag(w / w.sum()).astype(complex)


@dataclass(frozen=True)
class BohrClusters:
    """The d^2 coherences rho_ab, in the vectorised (ab) index, grouped by
    Bohr frequency omega_ab (rad/ps): sorted, then split wherever two
    neighbours differ by more than CLUSTER_GAP_FACTOR times ``rate``, a
    bound on the row sums of the generator (1/ps).

    ``kept`` holds the zero-frequency cluster, which contains every
    population and is its own conjugate, then those of positive
    frequency; each of the latter stands for its conjugate on
    transposed indices (rho_ba = conj rho_ab). An element vector holds
    the kept clusters' row-major n x n blocks from ``offsets`` on.
    ``count`` and ``largest`` cover every cluster; ``gap_ratio`` is
    ``rate`` over the smallest gap between clusters (0 for one
    cluster)."""

    omega: np.ndarray
    rate: float
    kept: tuple
    offsets: np.ndarray
    count: int
    largest: int
    gap_ratio: float

    def pairs(self):
        """(ab, cd) of each element of an element vector."""
        n = np.array([g.size for g in self.kept])
        first, start, n = (np.repeat(x, n * n) for x in (
            np.cumsum(n) - n, self.offsets[:-1], n))
        i, j = np.divmod(np.arange(n.size) - start, n)
        members = np.concatenate(self.kept)
        return members[first + i], members[first + j]

    @functools.cached_property
    def zero_twins(self):
        """Place in the zero cluster of the transpose (ba) of each of its
        members (ab): the zero cluster is its own conjugate."""
        zero = self.kept[0]
        where = np.empty(self.omega.size, dtype=int)
        where[zero] = np.arange(zero.size)
        return where[_transposed(zero, math.isqrt(self.omega.size))]

    @functools.cached_property
    def row_starts(self):
        """Where each row of a kept cluster's block starts in an element
        vector."""
        n = np.array([g.size for g in self.kept])
        length = np.repeat(n, n)
        return np.cumsum(length) - length


def bohr_clusters(omega, rate):
    """BohrClusters of Bohr frequencies ``omega`` (d^2,) in rad/ps at the
    rate scale ``rate`` (1/ps). A non-finite rate raises
    NumericalError."""
    if not np.isfinite(rate):
        raise NumericalError("generator has non-finite entries")
    order = np.argsort(omega, kind="stable")
    gaps = np.diff(omega[order])
    cut = np.flatnonzero(gaps > CLUSTER_GAP_FACTOR * rate)
    bounds = np.concatenate(([0], cut + 1, [omega.size]))
    # the zero cluster (every population lies in it), then those above:
    # the groups whose last frequency is >= 0
    first = np.searchsorted(omega[order[bounds[1:] - 1]], 0.0)
    kept = tuple(order[lo:hi] for lo, hi in zip(bounds[first:-1].tolist(),
                                                bounds[first + 1:].tolist()))
    return BohrClusters(
        omega=omega, rate=float(rate), kept=kept,
        offsets=np.cumsum([0] + [g.size ** 2 for g in kept]),
        count=cut.size + 1, largest=int(np.diff(bounds).max()),
        gap_ratio=float(rate / gaps[cut].min()) if cut.size else 0.0)


def _transposed(idx, d):
    """The (ba) index of each (ab) index."""
    return idx % d * d + idx // d


class _ClusterStack:
    """Clusters of one size n, stacked: (ab) indices ``idx`` (k, n), mean
    frequencies ``mean`` (k,), which row is the zero cluster (``zero``)
    and the shifted blocks L_c = R_c - i diag(omega - mean_c) (k, n, n).
    Their eigenvalues ``w`` (k, n) and eigenvectors ``V`` (k, n, n), all
    NaN when the stacked eig fails, come from one eig on first read;
    ``evolve`` reads neither."""

    def __init__(self, idx, L, mean, zero):
        self.idx, self.L, self.mean, self.zero = idx, L, mean, zero

    @functools.cached_property
    def _eig(self):
        if self.idx.shape[1] == 1:
            return self.L[:, :, 0], np.ones_like(self.L)
        try:
            return np.linalg.eig(self.L)
        except np.linalg.LinAlgError:
            return (np.full(self.idx.shape, np.nan + 0j),
                    np.full_like(self.L, np.nan))

    @property
    def w(self):
        return self._eig[0]

    @property
    def V(self):
        return self._eig[1]

    def evolve(self, x0, times):
        """exp(L_c t) x0_c e^{-i mean_c t} for each cluster c, (T, k, n),
        one scaling-and-squaring expm per block and time. Not from V: eig
        balances L first, and where rates span many orders that leaves V
        exact for an L + E far from L, however well conditioned."""
        import scipy.linalg  # only here: a cold relax never loads scipy
        x = x0[self.idx][..., None]
        out = np.empty((times.size,) + self.idx.shape, dtype=complex)
        # time by time: a stack over the times would hold T k n^2
        for i, t in enumerate(times):
            out[i] = (scipy.linalg.expm(t * self.L) @ x)[..., 0]
        phase = np.exp(-1j * np.multiply.outer(times, self.mean))
        return out * phase[..., None]


class _BlockEigensystem:
    """Eigensystem of L = -i diag(omega_ab) + R, cluster by cluster.

    ``R`` is a RedfieldTensor, summed over ``channels``. Each kept Bohr
    cluster's block is read from its element vector ``x``
    (``BohrClusters.offsets``); a cluster below zero is the conjugate of
    its twin on transposed indices (``evolve``). The mean frequency is
    taken out: L_c = R_c - i diag(omega - mean_c), whose
    eigenvalues are those of L plus i mean_c. Elements between clusters
    are dropped, which moves the eigenvalues by O(rate^2 / gap). The
    clusters of one size share one stacked eig call, made when something
    first reads that size's eigenpairs (``stack``): ``eigenvalues``
    reads every size, ``slowest_mode`` only those that can hold the mode
    it looks for, and ``evolve`` none, since it propagates by expm.

    An element vector with a non-finite entry raises NumericalError. A
    generator must map Hermitian rho to Hermitian rho: the zero cluster
    is its own conjugate, and where R_ba,dc differs from conj R_ab,cd on
    it (``BohrClusters.zero_twins``) beyond 1e-12 of max|R|, it raises
    ValidationError. The other clusters hold that symmetry by layout.
    ``rate`` is the Gershgorin row-sum bound of the in-cluster R, the
    scale of every rate tolerance.
    """

    def __init__(self, R, channels=None):
        self.clusters = clusters = R.clusters
        self.d = R.dimension
        self.x = x = R.elements(channels)
        if not np.all(np.isfinite(x)):
            raise NumericalError("generator has non-finite entries")
        size = np.abs(x)
        scale = np.max(size)
        n, t = clusters.kept[0].size, clusters.zero_twins
        zero = x[:n * n].reshape(n, n)
        asym = np.max(np.abs(zero[t][:, t] - zero.conj()))
        if asym > 1e-12 * scale:
            raise ValidationError(
                f"generator does not preserve Hermiticity: R_ba,dc differs "
                f"from conj R_ab,cd by {asym:.2e} (max|R| {scale:.2e})")
        self.rate = float(np.max(np.add.reduceat(size, clusters.row_starts)))
        self.sizes = np.array([idx.size for idx in clusters.kept])
        self._stacks = {}
        self._done = np.zeros(self.sizes.size, dtype=bool)

    def stack(self, n):
        """The _ClusterStack of the kept clusters of size ``n``, built on
        first use."""
        if n not in self._stacks:
            kept, start = self.clusters.kept, self.clusters.offsets
            omega = self.clusters.omega
            members = np.flatnonzero(self.sizes == n)
            idx = np.stack([kept[k] for k in members])
            L = self.x[start[members][:, None] + np.arange(n * n)]
            L = L.reshape(-1, n, n)
            zero = members == 0
            mean = np.where(zero, 0.0, omega[idx].mean(axis=1))
            L[:, range(n), range(n)] -= 1j * (omega[idx] - mean[:, None])
            self._stacks[n] = _ClusterStack(idx, L, mean, zero)
            self._done[members] = True
        return self._stacks[n]

    @functools.cached_property
    def blocks(self):
        """The stacks of every size, smallest first."""
        return [self.stack(n) for n in np.unique(self.sizes)]

    @property
    def zero(self):
        """(stack, row) of the zero-frequency cluster, the first of its
        size."""
        return self.stack(self.sizes[0]), 0

    def eigenvalues(self, stacks=None):
        """The eigenvalues of L on the kept clusters of ``stacks`` (every
        block by default), one array; the conjugate clusters have their
        complex conjugates."""
        return np.concatenate([(b.w - 1j * b.mean[:, None]).reshape(-1)
                               for b in (stacks or self.blocks)])

    def slowest_mode(self, o):
        """The eigenvalue of the decaying mode whose eigenvector v
        overlaps the unit vector ``o`` the most, |<o, v>| / ||v||, the
        mode of smallest |lambda| (the stationary state) and those with
        |Re lambda| below 1e-14 of ``rate`` or below the round-off of
        their cluster's eig, eps ||L_c||_1 (which do not decay, in every
        eigenvector gauge), left out. NumericalError when a stack it
        reads failed to diagonalise or no mode is left.

        It reads the zero cluster's size first, then the size of the
        cluster of largest ||o_c|| (o on the cluster's coherences) that
        could still change the answer, until none can: by Cauchy-Schwarz
        no mode of cluster c overlaps o by more than ||o_c||, and by
        Gershgorin no eigenvalue of c is below min_c |omega| - rate in
        modulus. Modes are compared in ``blocks`` order, so a tie goes
        as it would over every block."""
        members = np.concatenate(self.clusters.kept)
        starts = np.cumsum(self.sizes) - self.sizes
        norm = np.sqrt(np.add.reduceat(np.abs(o[members]) ** 2, starts))
        low = np.minimum.reduceat(np.abs(self.clusters.omega[members]),
                                  starts) - self.rate
        n = self.sizes[0]
        while True:
            self.stack(n)
            stacks = [self._stacks[m] for m in sorted(self._stacks)]
            lam = self.eigenvalues(stacks)
            if not np.all(np.isfinite(lam)):
                raise NumericalError(
                    "eigendecomposition of the generator failed")
            weights = np.concatenate([
                (np.abs(np.einsum("kn,knj->kj", o[b.idx].conj(), b.V))
                 / np.linalg.norm(b.V, axis=1)).reshape(-1) for b in stacks])
            null = int(np.argmin(np.abs(lam)))
            weights[null] = -1.0
            # eig resolves each eigenvalue to about eps ||L_c||_1
            roundoff = np.concatenate([np.repeat(
                np.max(np.abs(b.L).sum(axis=1), axis=1), b.L.shape[1])
                for b in stacks]) * np.finfo(float).eps
            weights[np.abs(lam.real)
                    < np.maximum(1e-14 * self.rate, roundoff)] = -1.0
            k = int(np.argmax(weights))
            # the margin covers the round-off of a computed overlap
            open_ = ~self._done & ((norm >= weights[k] * (1.0 - 1e-12))
                                   | (low <= abs(lam[null])))
            if not open_.any():
                break
            n = self.sizes[open_][np.argmax(norm[open_])]
        if weights[k] < 0:
            raise NumericalError("no decaying mode overlaps the observable")
        return lam[k]

    @property
    def cond(self):
        """The largest 1-norm condition number of the eigenvectors of a
        block diagonalised so far, inf when one is singular."""
        return float(max(np.max(np.linalg.cond(b.V, 1))
                         for b in self._stacks.values()))

    def evolve(self, x0, times):
        """Vectorised exp(L t) x0 of a Hermitian x0, one row per time."""
        X = np.zeros((times.size, x0.size), dtype=complex)
        for b in self.blocks:
            Y = b.evolve(x0, times)
            X[:, b.idx] = Y
            X[:, _transposed(b.idx[~b.zero], self.d)] = Y[:, ~b.zero].conj()
        return X


def _hermitian_part(M):
    """(M + M^H) / 2 of a matrix or a stack of them."""
    return 0.5 * (M + np.swapaxes(M, -1, -2).conj())


def propagate(rho0, R, times):
    """(T, d, d) stack of rho(t) = exp(L t) rho0 at the requested times
    (ps, ascending), L = -i diag(omega_ab) + R on the Bohr clusters of
    R (``_BlockEigensystem``), from the Hermitian part of rho0 (d x d)."""
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
        raise ValidationError("times must be ascending and non-negative")
    d = R.dimension
    rho0 = np.asarray(rho0)
    if rho0.shape != (d, d):
        raise ValidationError(f"rho0 of shape {rho0.shape} is not {d} x {d}")
    X = _BlockEigensystem(R).evolve(_hermitian_part(rho0).reshape(-1), times)
    drift = X[:, ::d + 1].sum(axis=1).real - 1.0
    bad = np.flatnonzero(~(np.abs(drift) <= 1e-8))  # NaN is drift too
    if bad.size:
        k = bad[0]
        raise NumericalError(f"trace drift {drift[k]:.2e} at t={times[k]}")
    return _hermitian_part(X.reshape(-1, d, d))


@dataclass(frozen=True)
class RelaxationEstimate:
    """Relaxation time of the slowest mode, and its cross-check (ms)."""

    tau_ms: float  # headline: slowest-mode value
    tau_int_ms: float = None  # linear-response integral time
    tau_int_error: str = None  # why there is no tau_int
    solve_residual: float = None  # backward error of the tau_int solve
    min_rho_eigenvalue: float = None  # of the stationary state
    mismatch: bool = False
    eigvec_cond: float = None  # largest 1-norm condition of a read block's V
    bohr_clusters: int = None  # clusters of the Bohr frequencies
    largest_cluster: int = None  # coherences in the largest cluster
    cluster_gap_ratio: float = None  # rate / smallest gap between clusters


def stationary_state(R):
    """Trace-one stationary state of the generator L of the
    RedfieldTensor ``R``, as a d x d matrix (``_stationary_state``)."""
    return _stationary_state(_BlockEigensystem(R))[0]


def _stationary_state(eigsys):
    """(rho_ss, its lowest eigenvalue, M) from bordered solves on the
    zero cluster, which holds rho_ss; they use no eigenvector.

    L conserves the trace, so M_u = L - rate u Tr, u = I/d, is singular
    exactly when L has a second null mode, traceless or not; otherwise
    M_u rho0 = -rate u gives the one state with L rho0 = 0 and trace 1.
    rho0 is exact only to round-off over the gap to the next mode, and
    that error lies along the slow modes that L^-1 amplifies, so rho0
    borders again, M = L - rate rho0 Tr, and one Newton step with M,
    rho = rho0 - M^-1 L rho0, takes it out. Scaled by ``rate``, each
    border keeps its matrix as well conditioned as L allows.
    NumericalError when the forward error bound of the solves, eps times
    the 1-norm condition of M (inf when M_u is singular), is above
    SOLVE_TOL: rho_ss is not unique to working precision. NumericalError
    too when rho_ss has an eigenvalue below -POSITIVITY_TOL: it is not
    physical (it can reach outside the range of any observable)."""
    block, k = eigsys.zero
    d, idx, L, rate = eigsys.d, block.idx[k], block.L[k], eigsys.rate
    trace = idx % (d + 1) == 0
    u = rate / d * trace
    try:
        r = np.linalg.solve(L - np.outer(u, trace), -u)
        M = L - rate * np.outer(r, trace)
        cond = np.linalg.cond(M, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond * np.finfo(float).eps <= SOLVE_TOL:
        raise NumericalError(
            f"the stationary state is not unique to working precision: "
            f"the zero-cluster matrix has condition {cond:.3g}")
    v = np.zeros(d * d, dtype=complex)
    v[idx] = r - np.linalg.solve(M, L @ r)
    rho = _hermitian_part(v.reshape(d, d))
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if lowest < -POSITIVITY_TOL:
        raise NumericalError(f"stationary state is not physical: minimum "
                             f"eigenvalue {lowest:.3g}")
    return rho, lowest, M


def _integral_time(eigsys, rho, M, O):
    """(tau_int in ps, backward error of its solve) of the observable O
    in the stationary state rho: the Kubo correlation time

        tau_int = <O|(-L)^-1|drho> / <O|drho>,  drho = {O - <O>, rho} / 2,

    with drho and L taken on the zero cluster, which holds rho: <O|drho>
    is the variance of O in rho less drho's share on other clusters.
    drho is traceless, and M = L - rate rho0 Tr of ``_stationary_state``
    acts as L on traceless vectors, so M x = drho has the traceless
    solution x = L^-1 drho. NumericalError when O has no variance in
    rho."""
    block, k = eigsys.zero
    d, idx = eigsys.d, block.idx[k]
    shifted = O - np.trace(O @ rho) * np.eye(d)
    y = (0.5 * (shifted @ rho + rho @ shifted)).reshape(-1)[idx]
    o = O.T.reshape(-1)[idx]
    variance = (o @ y).real
    if not variance > 0:
        raise NumericalError(f"the observable has no variance in the "
                             f"stationary state ({variance:.3g})")
    x = np.linalg.solve(M, y)
    norm = functools.partial(np.linalg.norm, ord=1)
    residual = norm(M @ x - y) / (norm(M) * norm(x))
    return float(-(o @ x).real / variance), float(residual)


def extract_relaxation_time(R, ops, observable=None, method="both",
                            channels=None):
    """Relaxation time of ``observable`` (default Sz of the first spin
    center of ``ops``) by ``method``, "both" or "slowest_mode".

    Every step runs on one ``_BlockEigensystem`` of
    L = -i diag(omega_ab) + R (summed over ``channels``, on the Bohr
    clusters of the total generator), which diagonalises only the
    clusters that can hold the slowest mode
    (``_BlockEigensystem.slowest_mode``).

    slowest_mode: tau = 1 / |Re lambda| for the decaying eigenvalue of L
    whose eigenvector overlaps the observable's traceless part the most;
    NumericalError when that mode grows (Re lambda > 0). A mode with
    |Re lambda| below 1e-14 of the rate scale, or below eps ||L_c||_1 of
    its cluster, does not decay. It forms no inverse.
    both: also the linear-response integral time ``tau_int_ms`` of the
    observable (``_integral_time``) in the stationary state rho_ss
    (``_stationary_state``). rho_ss, its uniqueness and tau_int come
    from bordered solves on the zero cluster and read no eigenvector,
    so tau_int checks the eigensolve as well as the
    extraction rule; ``min_rho_eigenvalue`` is rho_ss's lowest
    eigenvalue and ``solve_residual`` the backward error of the tau_int
    solve. A tau_int that is missing, not positive or more than 5% from
    tau sets ``mismatch``; it never reads as agreement. Without a
    physical stationary state, unique to working precision, in which
    the observable varies, there is no tau_int: ``tau_int_error`` says
    why, and tau is still reported.
    """
    if method not in ("both", "slowest_mode"):
        raise ValidationError(f"unknown method {method!r}; allowed: "
                              f"both, slowest_mode")
    ham, d = R.ham, R.dimension
    eigsys = _BlockEigensystem(R, channels)
    if observable is None:
        first = min(ops.system.centers, key=lambda c: c.id).id
        observable = ham.to_eigenbasis(ops.embedded[first][2])
    O = np.asarray(observable, dtype=complex)
    O_traceless = O - np.trace(O) / d * np.eye(d)
    norm = np.linalg.norm(O_traceless)
    if norm == 0:
        raise ValidationError("observable has no traceless part")
    o_vec = O_traceless.reshape(-1) / norm

    if eigsys.rate == 0.0:
        raise NumericalError("Redfield tensor is zero; no relaxation")
    lam = eigsys.slowest_mode(o_vec)
    if lam.real > 0:
        raise NumericalError(
            f"the mode that overlaps the observable most grows "
            f"(Re lambda = {lam.real:.3g} /ps); it has no relaxation time")
    clusters = eigsys.clusters
    estimate = RelaxationEstimate(
        tau_ms=1.0 / abs(lam.real) / PS_PER_MS,
        bohr_clusters=clusters.count, largest_cluster=clusters.largest,
        cluster_gap_ratio=clusters.gap_ratio)

    if method == "slowest_mode":
        return estimate
    estimate = replace(estimate, eigvec_cond=eigsys.cond, mismatch=True)
    try:
        rho_ss, lowest, M = _stationary_state(eigsys)
        estimate = replace(estimate, min_rho_eigenvalue=lowest)
        tau_int_ps, residual = _integral_time(eigsys, rho_ss, M, O)
    except NumericalError as exc:
        return replace(estimate, tau_int_error=str(exc))
    tau_int_ms = tau_int_ps / PS_PER_MS
    mismatch = not (tau_int_ms > 0
                    and abs(tau_int_ms / estimate.tau_ms - 1.0) <= 0.05)
    return replace(estimate, tau_int_ms=tau_int_ms, solve_residual=residual,
                   mismatch=mismatch)
