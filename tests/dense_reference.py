"""Dense reference for the Redfield tests: every element of R written out
from the coupling stack, and the partial-secular rule applied to it.

``assemble_redfield`` builds only the elements inside the Bohr clusters;
these helpers build all d^4 of them, which is affordable at the small d
of the tests.
"""

import numpy as np

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
