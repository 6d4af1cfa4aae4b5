import numpy as np
import pytest

from spinphonon import redfield
from spinphonon.coupling import CouplingStack
from spinphonon.errors import NumericalError, ValidationError
from spinphonon.hamiltonian import assemble_hamiltonian, diagonalize
from spinphonon.redfield import (RATE_PREFACTOR, SECULAR_TOL_CM1,
                                 DensityMatrix, PhononCorrelation,
                                 assemble_redfield, equilibrium_state,
                                 extract_relaxation_time,
                                 phonon_correlation_value, propagate,
                                 stationary_state, unitary_evolution)
from spinphonon.lattice import bose_population, gaussian_kernel
from spinphonon.spins import SpinCenter, SpinSystem, build_spin_operators
from spinphonon.units import (ANGULAR_FREQUENCY_PER_CM1, KB_CM1_PER_K,
                              PS_PER_MS)


def _two_level(field=5.0):
    system = SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=0.5),),
                        field_B=np.array([0.0, 0.0, field]))
    ops = build_spin_operators(system)
    ham = assemble_hamiltonian(system, ops)
    return system, ops, ham


def _coupling(ham, ops, strength=0.01, channel="zeeman"):
    """One-row stack: an Sx-like coupling to a mode at the spin gap."""
    V = strength * ham.to_eigenbasis(ops.embedded[0][0])
    gap = float(ham.eigvals[-1] - ham.eigvals[0])
    return CouplingStack(omega=[gap], channel=[channel], V=[V])


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(matrix=np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError):
        DensityMatrix(matrix=np.array([[0.5, 0.3], [0.1, 0.5]]))
    rho = DensityMatrix(matrix=np.array([[0.6, 0.2], [0.2, 0.4]]))
    assert rho.min_eigenvalue > 0
    assert np.allclose(rho.populations(), [0.6, 0.4])


def test_phonon_correlation_validation():
    with pytest.raises(ValidationError):
        PhononCorrelation(sigma=0.0, temperature=10.0)
    with pytest.raises(ValidationError):
        PhononCorrelation(sigma=1.0, temperature=-1.0)
    with pytest.raises(ValidationError):
        PhononCorrelation(sigma=1.0, temperature=10.0, kernel="lorentzian")
    pc = PhononCorrelation(sigma=1.0, temperature=10.0)
    with pytest.raises(ValidationError):
        phonon_correlation_value(pc, 1.0, 0.0)


def test_phonon_correlation_zero_temperature_emission_only():
    pc = PhononCorrelation(sigma=0.5, temperature=0.0)
    w = 8.0
    # upward transition (absorption) is closed at T=0
    assert phonon_correlation_value(pc, w, w) < 1e-200 + gaussian_kernel(
        2 * w, 0.5)
    # downward transition sees the (n+1)=1 peak
    g = phonon_correlation_value(pc, -w, w)
    assert abs(g - 1.0 / (0.5 * np.sqrt(np.pi))) < 1e-12


def test_phonon_correlation_resonant_value_at_kt_equals_gap():
    sigma = 0.7
    w = 10.0
    T = w / KB_CM1_PER_K  # hbar*omega_mode = kB*T
    pc = PhononCorrelation(sigma=sigma, temperature=T)
    g = phonon_correlation_value(pc, w, w)
    n = 1.0 / (np.e - 1.0)  # 0.581977...
    expected = (n / (sigma * np.sqrt(np.pi))
                + (n + 1.0) * gaussian_kernel(2 * w, sigma))
    assert abs(g - expected) < 1e-15
    assert abs(n - 0.581977) < 1e-6


def test_phonon_correlation_high_temperature_linear_in_t():
    pc1 = PhononCorrelation(sigma=1.0, temperature=500.0)
    pc2 = PhononCorrelation(sigma=1.0, temperature=1000.0)
    g1 = phonon_correlation_value(pc1, 3.0, 3.0)
    g2 = phonon_correlation_value(pc2, 3.0, 3.0)
    assert abs(g2 / g1 - 2.0) < 5e-3


def test_golden_rule_two_level_population_transfer():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=10.0)
    mc = _coupling(ham, ops)
    R = assemble_redfield(mc, ham, pc)
    Rmat = R.matrix()
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    g_up = phonon_correlation_value(pc, gap, mc.omega[0])
    g_dn = phonon_correlation_value(pc, -gap, mc.omega[0])
    v2 = abs(mc.V[0, 1, 0]) ** 2
    # rho_11 <- rho_00 and rho_00 <- rho_11 transfer rates
    assert abs(Rmat[3, 0].real - 2 * RATE_PREFACTOR * v2 * g_up) < 1e-18
    assert abs(Rmat[0, 3].real - 2 * RATE_PREFACTOR * v2 * g_dn) < 1e-18
    # the same rates leave the source state: trace conservation
    assert abs(Rmat[0, 0].real + Rmat[3, 0].real) < 1e-20
    assert abs(Rmat[3, 3].real + Rmat[0, 3].real) < 1e-20


def test_superoperator_conserves_trace_for_any_state():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=1.0, temperature=30.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        drho = R.apply(rho)
        assert abs(np.trace(drho)) < 1e-16
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-16


def test_detailed_balance_ratio_of_up_down_rates():
    _, ops, ham = _two_level()
    T = 5.0
    pc = PhononCorrelation(sigma=0.1, temperature=T)
    mc = _coupling(ham, ops)
    R = assemble_redfield(mc, ham, pc).matrix()
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    boltzmann = np.exp(-gap / (KB_CM1_PER_K * T))
    # narrow kernel: W_up / W_down -> n/(n+1) = Boltzmann factor
    assert abs(R[3, 0].real / R[0, 3].real - boltzmann) < 1e-6


def test_secular_propagation_reaches_boltzmann_populations():
    system = SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=1.0),),
                        field_B=np.array([0.0, 0.0, 5.0]))
    ops = build_spin_operators(system)
    ham = assemble_hamiltonian(system, ops)
    T = 15.0
    pc = PhononCorrelation(sigma=0.05, temperature=T)
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    V = 0.02 * ham.to_eigenbasis(ops.embedded[0][0])
    mc = CouplingStack(omega=[gap], channel=["zeeman"], V=[V])
    R = assemble_redfield(mc, ham, pc, secular=True)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rate = np.max(np.abs(np.real(np.linalg.eigvals(R.matrix()))))
    final = propagate(rho0, R, [300.0 / rate])[-1]
    eq = equilibrium_state(ham, T)
    assert np.max(np.abs(final.matrix - eq.matrix)) < 1e-8


def test_two_level_relaxation_time_matches_rate_oracle():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    mc = _coupling(ham, ops)
    R = assemble_redfield(mc, ham, pc)
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    v2 = abs(mc.V[0, 1, 0]) ** 2
    w = mc.omega[0]
    w_up = 2 * RATE_PREFACTOR * v2 * phonon_correlation_value(pc, gap, w)
    w_dn = 2 * RATE_PREFACTOR * v2 * phonon_correlation_value(pc, -gap, w)
    tau_ms = (1.0 / (w_up + w_dn)) / PS_PER_MS
    est = extract_relaxation_time(R, ham, ops, method="both")
    assert abs(est.tau_slowest_ms / tau_ms - 1.0) < 1e-8
    assert abs(est.tau_fit_ms / tau_ms - 1.0) < 1e-8
    assert not est.mismatch and not est.non_exponential


def test_rate_scales_quadratically_with_coupling_strength():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R1 = assemble_redfield(_coupling(ham, ops, 0.01), ham, pc)
    R2 = assemble_redfield(_coupling(ham, ops, 0.02), ham, pc)
    assert np.allclose(R2.matrix(), 4.0 * R1.matrix(), atol=1e-20)


def _reference_part(V, G):
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


@pytest.mark.parametrize("secular", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_assembly_matches_per_coupling_reference(d, secular, monkeypatch):
    # small blocks, so the stack is assembled over several of them
    monkeypatch.setattr(redfield, "ASSEMBLY_BLOCK", 64)
    rng = np.random.default_rng(100 + d)
    # evenly spaced levels: equal gaps give non-trivial secular blocks
    ham = diagonalize(np.diag(1.5 * np.arange(d)).astype(complex))
    m = 20
    A = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    V = 0.01 * (A + A.conj().transpose(0, 2, 1))
    omega = rng.uniform(0.5, 1.5 * d, size=m)
    channel = rng.choice(["zeeman", "hyperfine"], size=m)
    pc = PhononCorrelation(sigma=0.7, temperature=15.0)
    R = assemble_redfield(CouplingStack(omega=omega, channel=channel, V=V),
                          ham, pc, secular=secular)
    assert R.n_couplings == m
    assert set(R.channels) == {"zeeman", "hyperfine"}
    diff = np.abs(ham.omega.reshape(-1, 1) - ham.omega.reshape(1, -1))
    for ch, part in R.channels.items():
        ref = sum(_reference_part(V[k], phonon_correlation_value(
            pc, ham.omega, omega[k])) for k in np.flatnonzero(channel == ch))
        if secular:
            ref[diff > SECULAR_TOL_CM1] = 0.0
        coherence = ~np.eye(d, dtype=bool).reshape(-1)
        assert np.any(part[np.ix_(coherence, coherence)] != 0.0)
        # every element, coherences included, against the tensor's scale
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(part - ref)) <= 1e-12 * scale


def test_channel_resolved_tensor_parts():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    a = _coupling(ham, ops, 0.01, channel="zeeman")
    b = _coupling(ham, ops, 0.005, channel="hyperfine")
    both = CouplingStack(omega=[a.omega[0], b.omega[0]],
                         channel=["zeeman", "hyperfine"], V=[a.V[0], b.V[0]])
    R = assemble_redfield(both, ham, pc)
    total = R.matrix()
    parts = R.matrix(("zeeman",)) + R.matrix(("hyperfine",))
    assert np.allclose(total, parts, atol=1e-22)
    assert np.max(np.abs(R.matrix(("dipolar",)))) == 0.0


def test_unrotated_coupling_rejected():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    bad = CouplingStack(omega=[5.0], channel=["zeeman"], V=[np.eye(3)])
    with pytest.raises(ValidationError):
        assemble_redfield(bad, ham, pc)


def test_equilibrium_state_ratio_and_high_t_limit():
    _, ops, ham = _two_level()
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    T = gap / KB_CM1_PER_K  # kT equal to the splitting
    eq = equilibrium_state(ham, T)
    p = eq.populations()
    assert abs(p[1] / p[0] - np.exp(-1.0)) < 1e-12
    hot = equilibrium_state(ham, 1e7)
    assert np.allclose(hot.populations(), 0.5, atol=1e-6)
    with pytest.raises(ValidationError):
        equilibrium_state(ham, 0.0)


def test_unitary_evolution_phases_and_periodicity():
    _, ops, ham = _two_level()
    rho0 = DensityMatrix(matrix=np.array([[0.5, 0.5], [0.5, 0.5]],
                                         dtype=complex))
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    period = 2 * np.pi / (gap * ANGULAR_FREQUENCY_PER_CM1)
    quarter = unitary_evolution(rho0, ham, period / 4.0)
    assert np.allclose(np.diag(quarter.matrix), 0.5, atol=1e-14)
    assert abs(abs(quarter.matrix[0, 1]) - 0.5) < 1e-12
    full = unitary_evolution(rho0, ham, period)
    assert np.max(np.abs(full.matrix - rho0.matrix)) < 1e-10
    # trace and Hermiticity preserved over a long stretch
    late = unitary_evolution(rho0, ham, 1e3)
    assert abs(np.trace(late.matrix) - 1.0) < 1e-14
    assert np.max(np.abs(late.matrix - late.matrix.conj().T)) < 1e-14
    assert late.time_ps == 1e3


def test_propagate_validates_times_and_keeps_trace():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        propagate(rho0, R, [1.0, 0.5])
    with pytest.raises(ValidationError):
        propagate(rho0, R, [-1.0, 0.5])
    states = propagate(rho0, R, np.linspace(0.0, 1e6, 7))
    for st in states:
        assert abs(np.trace(st.matrix) - 1.0) < 1e-10
        assert np.max(np.abs(st.matrix - st.matrix.conj().T)) < 1e-10


def test_propagate_with_zero_generator_is_identity():
    rho0 = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    out = propagate(rho0, np.zeros((4, 4)), [0.0, 17.0])
    assert np.allclose(out[-1].matrix, rho0, atol=1e-14)


def test_stationary_state_matches_equilibrium():
    _, ops, ham = _two_level()
    T = 25.0
    pc = PhononCorrelation(sigma=0.1, temperature=T)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    rho_ss = stationary_state(*np.linalg.eig(R.matrix()), 2)
    eq = equilibrium_state(ham, T)
    assert np.max(np.abs(rho_ss - eq.matrix)) < 1e-5


def test_extract_rejects_zero_tensor_and_trivial_observable():
    _, ops, ham = _two_level()
    with pytest.raises(NumericalError):
        extract_relaxation_time(np.zeros((4, 4)), ham, ops)
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    with pytest.raises(ValidationError):
        extract_relaxation_time(R, ham, ops, observable=np.eye(2))


def test_both_estimates_share_one_eigendecomposition(monkeypatch):
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    calls = []
    real = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    est = extract_relaxation_time(R, ham, ops, method="both")
    assert est.tau_fit_ms is not None
    assert len(calls) == 1


def _cascade_generator(rate=1.0, dephasing=3.0):
    """d=3 population cascade 0 -> 1 -> 2 at one rate: the decay
    eigenvalue -rate is defective (a 2x2 Jordan block); coherences
    dephase at their own rate."""
    d = 3
    R = np.zeros((d, d, d, d))  # (a, b, c, e): rho_ab <- rho_ce
    for a in range(d):
        for b in range(d):
            if a != b:
                R[a, b, a, b] = -dephasing
    for a in range(d - 1):
        R[a, a, a, a] = -rate
        R[a + 1, a + 1, a, a] = rate
    return R.reshape(d * d, d * d)


def test_defective_generator_records_expm_fallback_without_warning():
    import types
    import warnings

    ham = types.SimpleNamespace(dimension=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = extract_relaxation_time(_cascade_generator(), ham, None,
                                      observable=np.diag([1.0, 0.0, -1.0]),
                                      method="both")
    assert est.expm_fallback
    assert not est.eigvec_cond <= 1e10
    assert est.tau_ms == pytest.approx(1.0 / PS_PER_MS)
    assert est.min_rho_eigenvalue > -1e-12

