"""Dense references for the tests.

Redfield: every element of R written out from the coupling stack, and the
partial-secular rule applied to it. ``assemble_redfield`` builds only the
elements inside the Bohr clusters; these helpers build all d^4 of them,
which is affordable at the small d of the tests. The slowest-mode rule
as an argmax over the modes of every cluster, which the pipeline's
search prunes. The phonon correlation G as one expression, where the
pipeline works in place. A hand-built dense generator as the
RedfieldTensor of one cluster at zero Bohr frequency, and a master
equation that obeys detailed balance in that form.

Lattice: D(q) as one product per lattice vector, then symmetrized; the
decomposition weights one molecule at a time; the DOS kernel as one
window of grid points per mode, summed with ``np.bincount``.

Project files and mode projection: the force-constant reader that parses
and checks each field as it reads it, and the projection that takes the
Bloch phase of every mode and record and sums each record into a
(M, n_targets, 3, 3) complex stack.
"""

import math

import numpy as np

from spinphonon import lattice
from spinphonon.coupling import ModeTensors
from spinphonon.crystal import rigid_body_basis
from spinphonon.errors import NumericalError, ParseError, ValidationError
from spinphonon.hamiltonian import diagonalize
from spinphonon.lattice import (ASYMMETRY_TOL, DEFAULT_OMEGA_MIN, DOS_REACH,
                                ForceConstantSet, bose_population,
                                gaussian_kernel, phonon_spectrum)
from spinphonon.project import (_iter_records, _parse_float, _parse_lvec,
                                _parse_site)
from spinphonon.redfield import (CLUSTER_GAP_FACTOR, RATE_PREFACTOR,
                                 SECULAR_TOL_CM1, RedfieldTensor,
                                 bohr_clusters, phonon_correlation_value)
from spinphonon.units import ANGULAR_FREQUENCY_PER_CM1, ZERO_POINT_LENGTH_A


def reference_correlation(pc, omega_ij, omega_mode):
    """G of ``phonon_correlation_value`` as one expression, each
    operation on a fresh array."""
    n = bose_population(omega_mode, pc.temperature)
    x = np.asarray(omega_mode - omega_ij, dtype=float)
    y = np.asarray(omega_mode + omega_ij, dtype=float)
    c = pc.sigma * np.sqrt(np.pi)
    return (n * (np.exp(-((x / pc.sigma) ** 2)) / c)
            + (n + 1.0) * (np.exp(-((y / pc.sigma) ** 2)) / c))


def reference_part(V, G):
    """One coupling's tensor, written out term by term:
    R_{ab,cd} = (V G)_ac V_db + V_ac (V G^T)_db
                - delta_bd (V (G V))_ac - delta_ac ((V G^T) V)_db."""
    d = V.shape[0]
    eye = np.eye(d)
    R = np.einsum("ac,db->abcd", V * G, V)
    R += np.einsum("ac,db->abcd", V, V * G.T)
    R -= np.einsum("ac,bd->abcd", V @ (G * V), eye)
    R -= np.einsum("ac,db->abcd", eye, (V * G.T) @ V)
    return RATE_PREFACTOR * R.reshape(d * d, d * d)


def coupling_rows(stack):
    """(omega (M,), channel (M,), V (M, d, d)) of every row of a
    CouplingStack: term by term, the rows (Re c) B, then (Im c) B, in
    mode order, without the all-zero ones."""
    d = stack.dimension
    omega, channel, V = [np.empty(0)], [], [np.empty((0, d, d))]
    for term in stack.terms:
        n = term.basis.shape[0]
        for modes, c in term.parts():
            omega.append(term.omega[modes])
            channel += [term.channel] * modes.size
            V.append((c @ term.basis.reshape(n, d * d)).reshape(-1, d, d))
    return (np.concatenate(omega), np.array(channel, dtype=str),
            np.concatenate(V))


def dense_redfield(stack, ham, pc, secular=False):
    """{channel: dense d^2 x d^2 R} of a CouplingStack, row by row."""
    parts = {}
    for omega, ch, V in zip(*coupling_rows(stack)):
        G = phonon_correlation_value(pc, ham.omega, omega)
        parts[str(ch)] = parts.get(str(ch), 0.0) + reference_part(V, G)
    if secular:
        w = ham.omega.reshape(-1)
        off = np.abs(w[:, None] - w[None, :]) > SECULAR_TOL_CM1
        for R in parts.values():
            R[off] = 0.0
    return parts


def row_rate_bound(stack, ham, pc):
    """Rate bound (1/ps) of the row sums of R by the triangle inequality
    over the rows V of a CouplingStack, with A = |V| and G of each row:
    the largest over (ab) of

        sum_V [(sum_c A_ac G_ac)(sum_d A_db) + (sum_c A_ac)(sum_d A_db G_bd)]
        + sum_c |S1_ac| + sum_d |S2_db|,

    S1 and S2 those of ``reference_part`` summed over every row."""
    d = stack.dimension
    bound, S1, S2 = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    for omega, V in zip(*coupling_rows(stack)[::2]):
        G = phonon_correlation_value(pc, ham.omega, omega)
        A = np.abs(V)
        bound += np.outer((A * G).sum(axis=1), A.sum(axis=0))
        bound += np.outer(A.sum(axis=1), (A * G.T).sum(axis=0))
        S1 = S1 + V @ (G * V)
        S2 = S2 + (V * G.T) @ V
    bound += np.abs(S1).sum(axis=1)[:, None] + np.abs(S2).sum(axis=0)
    return RATE_PREFACTOR * float(np.max(bound))


def bohr_omega(ham):
    """Bohr frequency omega_ab (rad/ps) of each (ab) index."""
    return ham.omega.reshape(-1) * ANGULAR_FREQUENCY_PER_CM1


def gershgorin_rate(R):
    """Largest absolute row sum of a dense generator."""
    return float(np.max(np.sum(np.abs(R), axis=1)))


def dense_generator(M):
    """The d^2 x d^2 generator M, in its (ab, cd) layout, as a
    RedfieldTensor: a zero Hamiltonian, so every Bohr frequency is zero
    and the coherences form one cluster at M's largest absolute row sum,
    and M as its one ("zeeman") channel."""
    M = np.asarray(M)
    d = math.isqrt(M.shape[0])
    return RedfieldTensor(
        ham=diagonalize(np.zeros((d, d))),
        channels={"zeeman": M.reshape(-1).astype(complex)},
        clusters=bohr_clusters(np.zeros(d * d),
                               np.max(np.sum(np.abs(M), axis=1))))


def detailed_balance_generator(rng, d, decades, rate=1.0):
    """The dense_generator of a d-level master equation that obeys
    detailed balance with random populations p: the rate from b to a is
    K_ab sqrt(p_a / p_b), K symmetric, of order ``rate`` within each
    half of the levels and 10**-decades of it between the halves (a slow
    mode, as a nuclear flip makes one); each coherence ab dephases at
    half the escape rates of a and b plus a symmetric random rate."""
    p = rng.uniform(0.2, 1.0, size=d)
    p /= p.sum()
    half = np.arange(d) < d // 2
    K = rate * rng.uniform(0.5, 1.0, size=(d, d)) * np.where(
        half[:, None] == half, 1.0, 10.0 ** -decades)
    K = np.triu(K, 1)
    W = (K + K.T) * np.sqrt(p[:, None] / p[None, :])  # W[a, b]: a <- b
    escape = W.sum(axis=0)
    extra = rng.uniform(0.0, rate, size=(d, d))
    R = np.zeros((d, d, d, d))  # (a, b, c, e): rho_ab <- rho_ce
    a, b = np.nonzero(~np.eye(d, dtype=bool))
    R[a, a, b, b] = W[a, b]
    R[a, b, a, b] = -0.5 * (escape[a] + escape[b]) - (extra + extra.T)[a, b]
    R[range(d), range(d), range(d), range(d)] = -escape
    return dense_generator(R.reshape(d * d, d * d))


def cluster_labels(omega, rate):
    """Cluster label of each (ab) index by the partial-secular rule: sort
    the Bohr frequencies and split where neighbours differ by more than
    CLUSTER_GAP_FACTOR times ``rate``."""
    order = np.argsort(omega)
    split = np.diff(omega[order]) > CLUSTER_GAP_FACTOR * rate
    labels = np.empty(omega.size, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(split)])
    return labels


def smallest_gap(omega, labels):
    """Smallest distance between two clusters (inf for one cluster)."""
    order = np.argsort(omega)
    cut = np.diff(labels[order]) != 0
    gaps = np.diff(omega[order])[cut]
    return float(gaps.min()) if gaps.size else np.inf


def transposed(idx, d):
    """The (ba) index of each (ab) index."""
    return idx % d * d + idx // d


def in_cluster(R):
    """(d^2, d^2) mask of the elements a RedfieldTensor stands for: the
    kept clusters and the conjugates of those above zero."""
    d = R.dimension
    mask = np.zeros((d * d,) * 2, dtype=bool)
    for idx in R.clusters.kept:
        t = transposed(idx, d)
        mask[np.ix_(idx, idx)] = mask[np.ix_(t, t)] = True
    return mask


def assert_matches_dense(R, ref, rel=1e-12):
    """Every channel's in-cluster elements equal the dense reference to
    ``rel`` of its largest element, and so does the conjugate of each
    cluster above zero on transposed indices; the clusters are those of
    the rule at ``R.clusters.rate``, which bounds the dense rows sums."""
    assert set(R.channels) == set(ref)
    omega = bohr_omega(R.ham)
    d = R.dimension
    total = sum(ref.values())
    clusters = R.clusters
    assert clusters.rate >= gershgorin_rate(total) * (1.0 - 1e-12)
    labels = cluster_labels(omega, clusters.rate)
    assert clusters.count == np.unique(labels).size
    kept = clusters.kept
    seen = np.concatenate(kept + tuple(transposed(g, d) for g in kept[1:]))
    assert np.array_equal(np.sort(seen), np.arange(omega.size))
    scale = max(np.max(np.abs(part)) for part in ref.values())
    start = clusters.offsets
    for k, idx in enumerate(kept):
        assert np.unique(labels[idx]).size == 1
        assert np.count_nonzero(labels == labels[idx[0]]) == idx.size
        t = transposed(idx, d)
        for ch, part in R.channels.items():
            got = part[start[k]:start[k + 1]]
            want = ref[ch][np.ix_(idx, idx)].reshape(-1)
            assert np.max(np.abs(got - want)) <= rel * scale
            if k > 0:
                want = ref[ch][np.ix_(t, t)].reshape(-1)
                assert np.max(np.abs(got.conj() - want)) <= rel * scale


def exhaustive_slowest_mode(eigsys, o):
    """The eigenvalue of the slowest mode of a ``_BlockEigensystem`` for
    the unit vector ``o``, from every block: the decaying mode whose
    eigenvector overlaps o the most, leaving out the mode of smallest
    |lambda| and those with |Re lambda| below 1e-14 of the rate.
    NumericalError as the pipeline raises it."""
    lam = eigsys.eigenvalues()
    if not np.all(np.isfinite(lam)):
        raise NumericalError("eigendecomposition of the generator failed")
    weights = np.concatenate([
        (np.abs(np.einsum("kn,knj->kj", o[b.idx].conj(), b.V))
         / np.linalg.norm(b.V, axis=1)).reshape(-1) for b in eigsys.blocks])
    weights[int(np.argmin(np.abs(lam)))] = -1.0
    weights[np.abs(lam.real) < 1e-14 * eigsys.rate] = -1.0
    k = int(np.argmax(weights))
    if weights[k] < 0:
        raise NumericalError("no decaying mode overlaps the observable")
    return lam[k]


def reference_dynamical_matrices(fc, qpoints):
    """D(q) summed block by block over the lattice vectors of the records,
    checked against D^H at every q-point, then symmetrized."""
    uniq, phi = fc.dense_blocks()
    invsq = 1.0 / np.sqrt(np.repeat(fc.crystal.masses, 3))
    qpoints = np.asarray(qpoints, dtype=float)
    phases = np.exp(2j * np.pi * (qpoints @ uniq.T))
    D = np.tensordot(phases, phi, axes=(1, 0)) * np.outer(invsq, invsq)
    Dh = np.conj(np.transpose(D, (0, 2, 1)))
    asym = np.max(np.abs(D - Dh), axis=(1, 2))
    worst = int(np.argmax(asym))
    if asym[worst] > ASYMMETRY_TOL:
        raise ValidationError(
            f"D(q) asymmetry {asym[worst]:.2e} above {ASYMMETRY_TOL:.0e} "
            f"at q={qpoints[worst].tolist()}")
    return 0.5 * (D + Dh)


def reference_decomposition_weights(crystal, eigvecs):
    """Translation, rotation and intra weights, one molecule at a time; the
    rotation weight is the scalar 0.0 when no molecule can rotate."""
    w_t = w_r = share = 0.0
    for mol in crystal.molecule_ids:
        idx, trans, rots = rigid_body_basis(crystal, mol)
        comp = (3 * idx[:, None] + np.arange(3)[None, :]).reshape(-1)
        block = np.take(eigvecs, comp, axis=-2)
        share = share + np.sum(np.abs(block) ** 2, axis=-2)
        w_t = w_t + np.sum(np.abs(np.einsum("bk,...kn->...bn", trans,
                                            block)) ** 2, axis=-2)
        if rots.size:
            w_r = w_r + np.sum(np.abs(np.einsum("bk,...kn->...bn", rots,
                                                block)) ** 2, axis=-2)
    return w_t, w_r, np.clip(share - w_t - w_r, 0.0, None)


def reference_dos(fc, qpoints, sigma, weights=None):
    """(frequency grid, (4, n) curves) of the DOS: each mode's kernel on
    a fixed-width window of grid points covering omega +- DOS_REACH sigma
    (shifted to stay inside the grid), one ``np.bincount`` per curve.
    Modes below -DEFAULT_OMEGA_MIN are left out, and those with
    |omega| < DEFAULT_OMEGA_MIN are placed at 0. omega comes from
    ``phonon_spectrum`` on the q-blocks of ``phonon_dos``
    (``lattice.dos_qblock``), so that both see the same values: a GEMM
    rounds a row differently in a block of another size."""
    qpoints = np.asarray(qpoints, dtype=float)
    nq = len(qpoints)
    weights = np.ones(nq) if weights is None else np.asarray(weights, float)
    omega, w = [], []
    qblock = lattice.dos_qblock(fc)
    for start in range(0, nq, qblock):
        block = slice(start, start + qblock)
        block_omega, vecs = phonon_spectrum(fc, qpoints[block])
        parts = reference_decomposition_weights(fc.crystal, vecs)
        omega.append(block_omega.reshape(-1))
        w.append(np.stack([
            np.broadcast_to(weights[block, None] * p,
                            block_omega.shape).reshape(-1)
            for p in (1.0, *parts)]))
    omega, w = np.concatenate(omega), np.concatenate(w, axis=1)
    omega[np.abs(omega) < DEFAULT_OMEGA_MIN] = 0.0
    top = float(omega.max()) + DOS_REACH * sigma
    n = max(600, int(top / (sigma / 4.0)))
    freq_grid = np.linspace(0.0, top, n)
    step = top / (n - 1)
    width = min(n, int(np.ceil(2 * DOS_REACH * sigma / step)) + 2)
    stable = omega >= -DEFAULT_OMEGA_MIN
    omega, w = omega[stable], w[:, stable]
    first = np.clip(np.floor((omega - DOS_REACH * sigma) / step).astype(int),
                    0, n - width)
    idx = first[:, None] + np.arange(width)
    k = gaussian_kernel(freq_grid[idx] - omega[:, None], sigma)
    idx = idx.reshape(-1)
    curves = np.stack([np.bincount(idx, weights=(wc[:, None] * k).reshape(-1),
                                   minlength=n) for wc in w])
    return freq_grid, curves / weights.sum()


def reference_load_force_constants(path, crystal):
    """The force-constant file read record by record, each field parsed
    and checked as it is read: the first fault raises at once."""
    n = crystal.n_atoms
    lvecs, ii, ss, jj, tt, vals = [], [], [], [], [], []
    for where, tok in _iter_records(path):
        if len(tok) != 8:
            raise ParseError(
                f"force-constant record needs 8 fields, got {len(tok)}",
                **where)
        lvecs.append(_parse_lvec(tok[:3], where))
        i, s = _parse_site(tok[3:5], ("atom i", "component s"), n, where)
        j, t = _parse_site(tok[5:7], ("atom j", "component t"), n, where)
        vals.append(_parse_float(tok[7], "force constant", where))
        ii.append(i)
        ss.append(s)
        jj.append(j)
        tt.append(t)
    if not vals:
        raise ParseError("no force-constant records found", path=path)
    return ForceConstantSet(crystal=crystal, lvecs=lvecs, i=ii, s=ss,
                            j=jj, t=tt, values=vals)


def reference_mode_tensors(derivs, q, omega, eigvecs, crystal, n_q,
                           weight):
    """ModeTensors of ``mode_tensor_derivatives``: the Bloch phase of
    every mode and record, and each record added, in record order, to
    the complex (M, n_targets, 3, 3) stack."""
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    omega = np.asarray(omega, dtype=float).reshape(-1)
    eigvecs = np.asarray(eigvecs)
    eigvecs = eigvecs.reshape(omega.size, eigvecs.shape[-1])
    weight = np.asarray(weight, dtype=int).reshape(omega.size)
    amp = ZERO_POINT_LENGTH_A / np.sqrt(n_q * omega[:, None]
                                        * crystal.masses[derivs.atom][None, :])
    amp *= np.sqrt(weight)[:, None]
    phase = np.exp(2j * np.pi * (q @ derivs.lvecs.T))
    coeff = amp * phase * eigvecs[:, 3 * derivs.atom + derivs.s]
    targets = tuple(dict.fromkeys(derivs.targets))
    tensors = np.zeros((omega.size, len(targets), 3, 3), dtype=complex)
    for k, tgt in enumerate(derivs.targets):
        tensors[:, targets.index(tgt)] += (coeff[:, k, None, None]
                                           * derivs.tensors[k])
    return ModeTensors(omega=omega, targets=targets, tensors=tensors,
                       weight=weight)
