import numpy as np
import pytest

from spinphonon.coupling import (CouplingDerivativeSet, DerivativeScan,
                                 coupling_norm_distribution,
                                 dipolar_derivative, dipolar_network,
                                 dipolar_pair_records, fit_derivative_scan,
                                 mode_tensor_derivatives)
from spinphonon.errors import ValidationError
from spinphonon.hamiltonian import assemble_hamiltonian, dipolar_tensor
from spinphonon.lattice import phonon_spectrum
from spinphonon.spins import SpinCenter, build_spin_operators
from spinphonon.toy import ToySpec, generate_toy_crystal


def _scan(p_coeffs, x=None, noise=None, rng=None):
    """Scan whose every component follows the same displacement polynomial."""
    if x is None:
        x = np.linspace(-0.05, 0.05, 10)
    y = np.polyval(p_coeffs[::-1], x)
    tensors = np.repeat(y[:, None, None], 9, axis=1).reshape(-1, 3, 3)
    if noise is not None:
        tensors = tensors + rng.normal(scale=noise, size=tensors.shape)
    return DerivativeScan(target=("g", 0), atom=0, direction=0,
                          displacements=x, tensors=tensors)


def test_fit_recovers_planted_linear_coefficient():
    scan = _scan([0.3, -1.7, 4.0, 0.9, -12.0])
    d, decisions = fit_derivative_scan(scan)
    assert np.max(np.abs(d + 1.7)) < 1e-10
    assert all(decisions[u][v] == "kept" for u in range(3) for v in range(3))


def test_fit_flags_pure_zero_components():
    scan = _scan([0.5, 0.0, 2.0, 0.0, 1.0])
    d, decisions = fit_derivative_scan(scan)
    assert np.max(np.abs(d)) < 1e-12
    assert all(decisions[u][v] in ("zero", "rejected")
               for u in range(3) for v in range(3))


def test_fit_rejects_noise_dominated_components():
    rng = np.random.default_rng(11)
    # linear coefficient far below the noise floor
    scan = _scan([0.0, 1e-6, 0.0, 0.0, 0.0], noise=1e-3, rng=rng)
    d, decisions = fit_derivative_scan(scan)
    assert all(decisions[u][v] in ("rejected", "zero")
               for u in range(3) for v in range(3))
    assert np.max(np.abs(d)) == 0.0


def test_fit_keeps_high_snr_components():
    rng = np.random.default_rng(12)
    x = np.linspace(-0.05, 0.05, 10)
    x_rms = float(np.sqrt(np.mean(x**2)))
    for _ in range(100):
        snr = 10 ** rng.uniform(2, 4)
        p1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        scan = _scan([rng.normal(), p1, rng.normal(), rng.normal(),
                      rng.normal()], x=x,
                     noise=abs(p1) * x_rms / snr, rng=rng)
        _, decisions = fit_derivative_scan(scan)
        assert all(decisions[u][v] == "kept"
                   for u in range(3) for v in range(3))


def test_scan_validation():
    x = np.linspace(0.01, 0.1, 10)  # does not span zero
    with pytest.raises(ValidationError):
        DerivativeScan(target=("g", 0), atom=0, direction=0,
                       displacements=x, tensors=np.zeros((10, 3, 3)))
    with pytest.raises(ValidationError):
        DerivativeScan(target=("g", 0), atom=0, direction=0,
                       displacements=np.array([-0.1, 0.0, 0.1, 0.1, -0.1]),
                       tensors=np.zeros((5, 3, 3)))


def test_dipolar_derivative_matches_finite_difference():
    a = SpinCenter(id=0, kind="electronic", s=0.5, g=np.diag([1.98, 1.99, 1.93]))
    b = SpinCenter(id=1, kind="electronic", s=0.5, g=2.0)
    r = np.array([2.0, -3.0, 4.0])
    h = 1e-5
    for s in range(3):
        d_analytic = dipolar_derivative(a, b, r, s)
        e = np.zeros(3)
        e[s] = h
        fd = (dipolar_tensor(a, b, r + e) - dipolar_tensor(a, b, r - e)) / (2 * h)
        assert np.max(np.abs(d_analytic - fd)) < 1e-6


def test_dipolar_pair_records_are_antisymmetric_under_carrier_swap():
    a = SpinCenter(id=0, kind="electronic", s=0.5, position=np.zeros(3))
    b = SpinCenter(id=1, kind="electronic", s=0.5,
                   position=np.array([0.0, 0.0, 6.0]))
    recs = dipolar_pair_records(a, b, atom_i=0, atom_j=1)
    assert recs.n_records == 6
    for s in range(3):
        plus = recs.tensors[2 * s]
        minus = recs.tensors[2 * s + 1]
        assert np.allclose(plus, -minus, atol=1e-14)


def test_dipolar_network_covers_every_pair_in_order():
    centers = [SpinCenter(id=k, kind="electronic", s=0.5,
                          position=np.array([0.0, 0.0, 5.0 * k]))
               for k in range(3)]
    cells = [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    couplings, derivs = dipolar_network(centers, [4, 5, 6], cells)
    assert [(cp.i, cp.j, cp.tag) for cp in couplings] == [
        (0, 1, "dipolar"), (0, 2, "dipolar"), (1, 2, "dipolar")]
    assert np.array_equal(couplings[1].tensor, dipolar_tensor(
        centers[0], centers[2], np.array([0.0, 0.0, 10.0])))
    last = dipolar_pair_records(centers[1], centers[2], 5, 6,
                                lvec_j=cells[2], lvec_i=cells[1])
    assert derivs.n_records == 18
    assert derivs.targets[12:] == last.targets
    assert np.array_equal(derivs.atom[12:], last.atom)
    assert np.array_equal(derivs.lvecs[12:], last.lvecs)
    assert np.array_equal(derivs.tensors[12:], last.tensors)
    # without cells every carrier sits in the home cell
    assert not np.any(dipolar_network(centers, [4, 5, 6])[1].lvecs)


@pytest.fixture(scope="module")
def toy_context():
    spec = ToySpec(atoms_per_molecule=2, mass=150.0, k_intra=1.0,
                   k_inter=0.0008, g_deriv_mag=1e-3, dipolar_couplings=False,
                   field_B=(0.0, 0.0, 5.0), seed=7)
    crystal, fc, derivs, system = generate_toy_crystal(spec)
    ops = build_spin_operators(system)
    ham = assemble_hamiltonian(system, ops)
    mode = tuple(a[3:4] for a in _modes(fc, (0.25, 0.0, 0.0)))
    return crystal, fc, derivs, system, ops, ham, mode


def _modes(fc, q):
    """(q, omega, eigvec) stacks, one row per branch, at one q-point."""
    omega, vecs = phonon_spectrum(fc, [q])
    qs = np.tile(np.asarray(q, float), (omega.shape[1], 1))
    return qs, omega[0], vecs[0].T


def _project(derivs, mode, crystal, n_q):
    """{target: 3x3 tensor} of a one-row (q, omega, eigvec) mode stack."""
    modes = mode_tensor_derivatives(derivs, *mode, crystal, n_q)
    return dict(zip(modes.targets, modes.tensors[0]))


def test_mode_amplitude_scales_with_grid_size(toy_context):
    crystal, _, derivs, _, _, _, mode = toy_context
    t1 = _project(derivs, mode, crystal, 1)
    t64 = _project(derivs, mode, crystal, 64)
    for tgt in t1:
        assert np.allclose(t64[tgt] * 8.0, t1[tgt], atol=1e-15)


def test_mode_projection_linear_in_derivatives(toy_context):
    crystal, _, derivs, _, _, _, mode = toy_context
    t1 = _project(derivs, mode, crystal, 8)
    scaled = CouplingDerivativeSet(derivs.targets, derivs.atom, derivs.s,
                                   derivs.lvecs, 2.5 * derivs.tensors)
    t2 = _project(scaled, mode, crystal, 8)
    for tgt in t1:
        assert np.allclose(t2[tgt], 2.5 * t1[tgt], atol=1e-15)


def test_bloch_phase_enters_replica_records(toy_context):
    crystal, _, _, _, _, _, mode = toy_context
    base = CouplingDerivativeSet([("g", 0)], [0], [0], [(0, 0, 0)],
                                 [np.eye(3)])
    shifted = CouplingDerivativeSet([("g", 0)], [0], [0], [(1, 0, 0)],
                                    [np.eye(3)])
    t0 = _project(base, mode, crystal, 1)[("g", 0)]
    t1 = _project(shifted, mode, crystal, 1)[("g", 0)]
    phase = np.exp(2j * np.pi * 0.25)  # q.l for q=(1/4,0,0), l=(1,0,0)
    assert np.allclose(t1, phase * t0, atol=1e-15)


def test_translation_invariant_records_give_zero_gamma_coupling(toy_context):
    crystal, fc, derivs, _, _, _, _ = toy_context
    q, _, vecs = _modes(fc, (0.0, 0.0, 0.0))
    scale = np.max(np.abs(derivs.tensors))
    # unit proxy frequencies: the acoustic omega are zero at Gamma
    modes = mode_tensor_derivatives(derivs, q[:3], np.ones(3), vecs[:3],
                                    crystal, 1)
    assert np.max(np.abs(modes.tensors)) / scale < 1e-10


def test_projection_rejects_soft_modes(toy_context):
    crystal, fc, derivs, _, _, _, _ = toy_context
    q, _, vecs = _modes(fc, (0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        mode_tensor_derivatives(derivs, q[:1], [0.0], vecs[:1], crystal, 1)


def test_stacked_projection_matches_single_modes(toy_context):
    crystal, fc, derivs, _, _, _, _ = toy_context
    # optical branches of two q-points, stacked
    stacks = [_modes(fc, qpt) for qpt in ((0.25, 0.0, 0.0), (0.0, -0.5, 0.25))]
    q, omega, vecs = (np.concatenate([a[3:] for a in parts])
                      for parts in zip(*stacks))
    stacked = mode_tensor_derivatives(derivs, q, omega, vecs, crystal, 8)
    assert stacked.tensors.shape == (len(omega), 1, 3, 3)
    scale = np.max(np.abs(stacked.tensors))
    for k in range(len(omega)):
        one = _project(derivs, (q[k:k + 1], omega[k:k + 1], vecs[k:k + 1]),
                       crystal, 8)[stacked.targets[0]]
        assert np.max(np.abs(stacked.tensors[k, 0] - one)) <= 1e-14 * scale


def test_coupling_norm_distribution_normalizes_by_grid(toy_context):
    crystal, _, derivs, _, _, _, mode = toy_context
    modes = mode_tensor_derivatives(derivs, *mode, crystal, 4)
    dist4 = coupling_norm_distribution(modes, 4)
    dist8 = coupling_norm_distribution(modes, 8)
    c4, v4 = dist4["zeeman"]
    c8, v8 = dist8["zeeman"]
    assert np.allclose(v4, 2.0 * v8, atol=1e-18)
    expected = np.sum(np.abs(modes.tensors) ** 2) / 4.0
    assert abs(v4.sum() - expected) < 1e-15
