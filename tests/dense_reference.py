"""Dense references for the tests.

Redfield: every element of R written out from the coupling stack, and the
partial-secular rule applied to it. ``assemble_redfield`` builds only the
elements inside the Bohr clusters; these helpers build all d^4 of them,
which is affordable at the small d of the tests.

Lattice: D(q) as one product per lattice vector, then symmetrized; the
decomposition weights one molecule at a time; the DOS kernel as one
window of grid points per mode, summed with ``np.bincount``.
"""

import numpy as np

from spinphonon import lattice
from spinphonon.crystal import rigid_body_basis
from spinphonon.errors import ValidationError
from spinphonon.lattice import (ASYMMETRY_TOL, DEFAULT_OMEGA_MIN, DOS_REACH,
                                gaussian_kernel, phonon_spectrum)
from spinphonon.redfield import (CLUSTER_GAP_FACTOR, RATE_PREFACTOR,
                                 SECULAR_TOL_CM1, phonon_correlation_value)
from spinphonon.units import ANGULAR_FREQUENCY_PER_CM1


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


def dense_redfield(stack, ham, pc, secular=False):
    """{channel: dense d^2 x d^2 R} of a CouplingStack, row by row."""
    parts = {}
    for V, omega, ch in zip(stack.V, stack.omega, stack.channel):
        G = phonon_correlation_value(pc, ham.omega, omega)
        parts[str(ch)] = parts.get(str(ch), 0.0) + reference_part(V, G)
    if secular:
        w = ham.omega.reshape(-1)
        off = np.abs(w[:, None] - w[None, :]) > SECULAR_TOL_CM1
        for R in parts.values():
            R[off] = 0.0
    return parts


def bohr_omega(ham):
    """Bohr frequency omega_ab (rad/ps) of each (ab) index."""
    return ham.omega.reshape(-1) * ANGULAR_FREQUENCY_PER_CM1


def gershgorin_rate(R):
    """Largest absolute row sum of a dense generator."""
    return float(np.max(np.sum(np.abs(R), axis=1)))


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


def in_cluster(R):
    """(d^2, d^2) mask of the elements a RedfieldTensor holds."""
    d2 = R.dimension ** 2
    mask = np.zeros((d2, d2), dtype=bool)
    for idx in R.clusters.assembled:
        mask[np.ix_(idx, idx)] = True
    return mask


def assert_matches_dense(R, ref, rel=1e-12):
    """Every channel's in-cluster elements equal the dense reference to
    ``rel`` of its largest element; the clusters are those of the rule
    at ``R.clusters.rate``, which bounds the dense rows sums."""
    assert set(R.channels) == set(ref)
    omega = bohr_omega(R.ham)
    total = sum(ref.values())
    clusters = R.clusters
    assert clusters.rate >= gershgorin_rate(total) * (1.0 - 1e-12)
    labels = cluster_labels(omega, clusters.rate)
    assert clusters.count == np.unique(labels).size
    seen = np.concatenate(clusters.assembled)
    assert np.array_equal(np.sort(seen), np.arange(omega.size))
    scale = max(np.max(np.abs(part)) for part in ref.values())
    start = clusters.offsets
    for k, idx in enumerate(clusters.assembled):
        assert np.unique(labels[idx]).size == 1
        assert np.count_nonzero(labels == labels[idx[0]]) == idx.size
        for ch, part in R.channels.items():
            want = ref[ch][np.ix_(idx, idx)].reshape(-1)
            got = part[start[k]:start[k + 1]]
            assert np.max(np.abs(got - want)) <= rel * scale


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
    Modes below -DEFAULT_OMEGA_MIN are left out. omega comes from
    ``phonon_spectrum`` on the q-blocks of ``phonon_dos``, so that both
    see the same values: a GEMM rounds a row differently in a block of
    another size."""
    qpoints = np.asarray(qpoints, dtype=float)
    nq = len(qpoints)
    weights = np.ones(nq) if weights is None else np.asarray(weights, float)
    omega, w = [], []
    for start in range(0, nq, lattice.DOS_QBLOCK):
        block = slice(start, start + lattice.DOS_QBLOCK)
        block_omega, vecs = phonon_spectrum(fc, qpoints[block])
        parts = reference_decomposition_weights(fc.crystal, vecs)
        omega.append(block_omega.reshape(-1))
        w.append(np.stack([
            np.broadcast_to(weights[block, None] * p,
                            block_omega.shape).reshape(-1)
            for p in (1.0, *parts)]))
    omega, w = np.concatenate(omega), np.concatenate(w, axis=1)
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
