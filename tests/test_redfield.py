import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from spinphonon import redfield
from spinphonon.coupling import CouplingStack
from spinphonon.errors import NumericalError, ValidationError
from spinphonon.hamiltonian import assemble_hamiltonian, diagonalize
from spinphonon.redfield import (RATE_PREFACTOR, PhononCorrelation,
                                 assemble_redfield, equilibrium_state,
                                 extract_relaxation_time,
                                 phonon_correlation_value, propagate,
                                 stationary_state)
from spinphonon.lattice import bose_population, gaussian_kernel
from spinphonon.spins import SpinCenter, SpinSystem, build_spin_operators
from spinphonon.units import KB_CM1_PER_K, PS_PER_MS

from dense_reference import (assert_matches_dense, bohr_omega,
                             coupling_rows, dense_generator, dense_redfield,
                             detailed_balance_generator, in_cluster)


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
    return CouplingStack.from_rows(omega=[gap], channel=[channel], V=[V])


def test_phonon_correlation_validation():
    with pytest.raises(ValidationError):
        PhononCorrelation(sigma=0.0, temperature=10.0)
    with pytest.raises(ValidationError):
        PhononCorrelation(sigma=1.0, temperature=-1.0)
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
    (w,), _, (V,) = coupling_rows(mc)
    g_up = phonon_correlation_value(pc, gap, w)
    g_dn = phonon_correlation_value(pc, -gap, w)
    v2 = abs(V[1, 0]) ** 2
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
        drho = (R.matrix() @ rho.reshape(-1)).reshape(2, 2)
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
    mc = CouplingStack.from_rows(omega=[gap], channel=["zeeman"], V=[V])
    R = assemble_redfield(mc, ham, pc, secular=True)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rate = np.max(np.abs(np.real(np.linalg.eigvals(R.matrix()))))
    final = propagate(rho0, R, [300.0 / rate])[-1]
    eq = equilibrium_state(ham, T)
    assert np.max(np.abs(final - eq)) < 1e-8


def test_two_level_relaxation_time_matches_rate_oracle():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    mc = _coupling(ham, ops)
    R = assemble_redfield(mc, ham, pc)
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    (w,), _, (V,) = coupling_rows(mc)
    v2 = abs(V[1, 0]) ** 2
    w_up = 2 * RATE_PREFACTOR * v2 * phonon_correlation_value(pc, gap, w)
    w_dn = 2 * RATE_PREFACTOR * v2 * phonon_correlation_value(pc, -gap, w)
    tau_ms = (1.0 / (w_up + w_dn)) / PS_PER_MS
    est = extract_relaxation_time(R, ops, method="both")
    assert abs(est.tau_ms / tau_ms - 1.0) < 1e-8
    assert abs(est.tau_int_ms / tau_ms - 1.0) < 1e-8
    assert not est.mismatch


def test_rate_scales_quadratically_with_coupling_strength():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R1 = assemble_redfield(_coupling(ham, ops, 0.01), ham, pc)
    R2 = assemble_redfield(_coupling(ham, ops, 0.02), ham, pc)
    assert np.allclose(R2.matrix(), 4.0 * R1.matrix(), atol=1e-20)


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
    stack = CouplingStack.from_rows(omega=omega, channel=channel, V=V)
    R = assemble_redfield(stack, ham, pc, secular=secular)
    assert R.n_couplings == m
    assert set(R.channels) == {"zeeman", "hyperfine"}
    ref = dense_redfield(stack, ham, pc, secular=secular)
    # every in-cluster element, coherences included, against the
    # tensor's scale
    assert_matches_dense(R, ref)
    coherence = ~np.eye(d, dtype=bool).reshape(-1)
    inside = in_cluster(R) & np.outer(coherence, coherence)
    for ch in R.channels:
        assert np.any(R.matrix((ch,))[inside] != 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_bohr_clusters_are_the_kept_groups_of_a_full_split(seed):
    """The kept clusters, count and largest are those of splitting the
    sorted order at every wide gap and keeping the groups that end at or
    above zero: on Bohr frequencies of random (partly degenerate)
    levels, and on arbitrary frequencies with ties and signed zeros."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 12))
    levels = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 1)
    levels[rng.random(d) < 0.3] = levels[0]
    bohr = (levels[:, None] - levels[None, :]).reshape(-1)
    loose = np.round(rng.normal(size=int(rng.integers(1, 60))), 1)
    loose[rng.random(loose.size) < 0.2] = -0.0
    for omega in (bohr, loose):
        for rate in (1e-12, 1e-4, 1e-2, 1.0, 1e3):
            got = redfield.bohr_clusters(omega, rate)
            order = np.argsort(omega, kind="stable")
            cut = np.flatnonzero(np.diff(omega[order])
                                 > redfield.CLUSTER_GAP_FACTOR * rate)
            groups = np.split(order, cut + 1)
            kept = [g for g in groups if omega[g[-1]] >= 0.0]
            assert len(got.kept) == len(kept)
            assert all(np.array_equal(a, b) for a, b in zip(got.kept, kept))
            assert (got.count, got.largest) == (
                len(groups), max(g.size for g in groups))


def test_matrix_scatters_the_clusters_and_their_conjugates():
    # every element of the dense reference inside a cluster, or inside
    # the conjugate twin of one above zero, and zeros between clusters
    rng = np.random.default_rng(104)
    d, m = 4, 20
    ham = diagonalize(np.diag(1.5 * np.arange(d)).astype(complex))
    A = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    stack = CouplingStack.from_rows(
        omega=rng.uniform(0.5, 1.5 * d, size=m), channel=["zeeman"] * m,
        V=1e-4 * (A + A.conj().transpose(0, 2, 1)))
    pc = PhononCorrelation(sigma=0.7, temperature=15.0)
    R = assemble_redfield(stack, ham, pc)
    ref = dense_redfield(stack, ham, pc)["zeeman"]
    inside = in_cluster(R)
    assert len(R.clusters.kept) > 1 and not inside.all()
    assert (np.max(np.abs(R.matrix() - np.where(inside, ref, 0.0)))
            <= 1e-12 * np.max(np.abs(ref)))


def test_channel_resolved_tensor_parts():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    a = _coupling(ham, ops, 0.01, channel="zeeman")
    b = _coupling(ham, ops, 0.005, channel="hyperfine")
    (wa,), _, Va = coupling_rows(a)
    (wb,), _, Vb = coupling_rows(b)
    both = CouplingStack.from_rows(omega=[wa, wb],
                                   channel=["zeeman", "hyperfine"],
                                   V=[Va[0], Vb[0]])
    R = assemble_redfield(both, ham, pc)
    total = R.matrix()
    parts = R.matrix(("zeeman",)) + R.matrix(("hyperfine",))
    assert np.allclose(total, parts, atol=1e-22)
    assert np.max(np.abs(R.matrix(("dipolar",)))) == 0.0


def test_unrotated_coupling_rejected():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    bad = CouplingStack.from_rows(omega=[5.0], channel=["zeeman"],
                                  V=[np.eye(3)])
    with pytest.raises(ValidationError):
        assemble_redfield(bad, ham, pc)


def test_equilibrium_state_ratio_and_high_t_limit():
    _, ops, ham = _two_level()
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    T = gap / KB_CM1_PER_K  # kT equal to the splitting
    eq = equilibrium_state(ham, T)
    assert eq.shape == (2, 2)
    p = np.diag(eq).real
    assert abs(p[1] / p[0] - np.exp(-1.0)) < 1e-12
    hot = equilibrium_state(ham, 1e7)
    assert np.allclose(np.diag(hot).real, 0.5, atol=1e-6)
    with pytest.raises(ValidationError):
        equilibrium_state(ham, 0.0)


def test_propagate_validates_times_and_keeps_trace():
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        propagate(rho0, R, [1.0, 0.5])
    with pytest.raises(ValidationError):
        propagate(rho0, R, [-1.0, 0.5])
    with pytest.raises(ValidationError, match="rho0"):
        propagate(np.eye(3) / 3, R, [1.0])
    states = propagate(rho0, R, np.linspace(0.0, 1e6, 7))
    assert states.shape == (7, 2, 2)
    for st in states:
        assert abs(np.trace(st) - 1.0) < 1e-10
        assert np.max(np.abs(st - st.conj().T)) < 1e-10


def test_non_finite_generator_is_a_numerical_failure():
    gen = replace(dense_generator(np.zeros((4, 4))),
                  channels={"zeeman": np.full(16, np.nan + 0j)})
    with pytest.raises(NumericalError, match="generator has non-finite"):
        propagate(np.diag([1.0, 0.0]), gen, [0.0, 1.0])
    with pytest.raises(NumericalError, match="generator has non-finite"):
        extract_relaxation_time(gen, None, observable=np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_one_non_finite_element_is_a_numerical_failure(bad):
    # a NaN passes the Hermiticity check, whose comparisons it fails:
    # the element vector is checked for finite entries first
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    part = R.channels["zeeman"].copy()
    part[0] = bad
    broken = replace(R, channels={"zeeman": part})
    with pytest.raises(NumericalError, match="non-finite"):
        propagate(np.diag([1.0, 0.0]), broken, [0.0, 1.0])
    for method in ("both", "slowest_mode"):
        with pytest.raises(NumericalError, match="non-finite"):
            extract_relaxation_time(broken, ops, method=method)


@pytest.mark.parametrize("method", ["slowest", "exp_fit", "Both", ""])
def test_unknown_method_is_rejected(method):
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    with pytest.raises(ValidationError, match="method"):
        extract_relaxation_time(R, ops, method=method)


def test_growing_mode_has_no_relaxation_time():
    # populations of a two-level system with transfer rates of -1 /ps:
    # p0 - p1 grows as exp(2t); the coherences decay
    gen = np.zeros((4, 4))
    gen[[0, 3], [0, 3]] = 1.0
    gen[[0, 3], [3, 0]] = -1.0
    gen[[1, 2], [1, 2]] = -0.5
    with pytest.raises(NumericalError, match="grows"):
        extract_relaxation_time(dense_generator(gen), None,
                                observable=np.diag([1.0, -1.0]),
                                method="slowest_mode")


def test_propagate_with_zero_generator_is_identity():
    rho0 = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    out = propagate(rho0, dense_generator(np.zeros((4, 4))), [0.0, 17.0])
    assert np.allclose(out[-1], rho0, atol=1e-14)


def test_stationary_state_matches_equilibrium():
    _, ops, ham = _two_level()
    T = 25.0
    pc = PhononCorrelation(sigma=0.1, temperature=T)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    rho_ss = stationary_state(R)
    eq = equilibrium_state(ham, T)
    assert np.max(np.abs(rho_ss - eq)) < 1e-5


def test_extract_rejects_zero_tensor_and_trivial_observable():
    _, ops, ham = _two_level()
    with pytest.raises(NumericalError):
        extract_relaxation_time(dense_generator(np.zeros((4, 4))), ops)
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)
    with pytest.raises(ValidationError):
        extract_relaxation_time(R, ops, observable=np.eye(2))


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
    est = extract_relaxation_time(R, ops, method="both")
    assert est.tau_int_ms is not None
    assert len(calls) == 1


def test_slowest_mode_estimate_forms_no_inverse_and_no_expm(monkeypatch):
    _, ops, ham = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    R = assemble_redfield(_coupling(ham, ops), ham, pc)

    def forbidden(*args, **kwargs):
        raise AssertionError("the slowest mode needs no propagation")

    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    est = extract_relaxation_time(R, ops, method="slowest_mode")
    assert est.tau_ms > 0 and est.eigvec_cond is None
    # a defective generator, which only expm can propagate
    est = extract_relaxation_time(_cascade_generator(), None,
                                  observable=np.diag([1.0, 0.0, -1.0]),
                                  method="slowest_mode")
    assert est.tau_ms == pytest.approx(1.0 / PS_PER_MS)


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
    return dense_generator(R.reshape(d * d, d * d))


def test_defective_generator_propagates_without_warning():
    # its one block has no eigenvector basis, and rho(t) is the
    # cascade's: p0 = exp(-t), p1 = t exp(-t)
    gen = _cascade_generator()
    times = np.array([0.0, 0.5, 1.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = propagate(np.diag([1.0, 0.0, 0.0]), gen, times)
    e = np.exp(-times)
    want = np.stack([e, times * e, 1.0 - e - times * e], axis=1)
    assert np.allclose(np.diagonal(states, axis1=1, axis2=2), want,
                       rtol=0.0, atol=1e-12)


def test_propagate_forms_no_eigenpairs(monkeypatch):
    # an S=1 spin: kept clusters of 3, 2 and 1 coherences, the last two
    # with conjugate twins, each propagated by expm with eig unavailable
    system = SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=1.0),),
                        field_B=np.array([0.0, 0.0, 5.0]))
    ops = build_spin_operators(system)
    ham = assemble_hamiltonian(system, ops)
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    V = 0.02 * ham.to_eigenbasis(ops.embedded[0][0])
    mc = CouplingStack.from_rows(omega=[gap], channel=["zeeman"], V=[V])
    R = assemble_redfield(mc, ham, PhononCorrelation(sigma=0.5,
                                                     temperature=15.0))
    assert sorted(g.size for g in R.clusters.kept) == [1, 2, 3]
    L = R.matrix() - 1j * np.diag(bohr_omega(ham))
    rng = np.random.default_rng(5)
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho0 = B @ B.conj().T / np.trace(B @ B.conj().T)
    times = np.array([0.0, 1.0, 10.0]) / R.clusters.rate

    def forbidden(*args, **kwargs):
        raise AssertionError("propagate reads no eigenpairs")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    for t, rho in zip(times, propagate(rho0, R, times)):
        x_ref = scipy.linalg.expm(L * t) @ rho0.reshape(-1)
        assert np.max(np.abs(rho.reshape(-1) - x_ref)) <= 1e-13


def test_defective_generator_gives_a_finite_tau_int():
    # the cascade ends in the pure state |2><2|: an observable varies in
    # it only through its coherences with level 2, which dephase at
    # 3 /ps. The solve uses no eigenvector, so the Jordan block that
    # leaves V singular does not reach it
    obs = np.diag([1.0, 0.0, -1.0])
    obs[0, 2] = obs[2, 0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = extract_relaxation_time(_cascade_generator(), None,
                                      observable=obs, method="both")
    assert not est.eigvec_cond <= 1e10
    assert est.tau_int_ms == pytest.approx(1.0 / 3.0 / PS_PER_MS, rel=1e-12)
    assert est.solve_residual <= 1e-16
    assert est.min_rho_eigenvalue > -1e-12
    # Sz alone has no variance in |2><2|: no tau_int, and that is no
    # agreement
    est = extract_relaxation_time(_cascade_generator(), None,
                                  observable=np.diag([1.0, 0.0, -1.0]))
    assert est.tau_ms == pytest.approx(1.0 / PS_PER_MS)
    assert est.tau_int_ms is None and est.mismatch
    assert "no variance" in est.tau_int_error


def test_generator_that_breaks_hermiticity_is_rejected():
    rho0 = np.diag([1.0, 0.0])
    rng = np.random.default_rng(7)
    # d rho/dt = i rho, and a random complex generator: neither maps a
    # Hermitian rho to a Hermitian one, so neither has a real form
    for gen in (1j * np.eye(4),
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))):
        gen = dense_generator(gen)
        with pytest.raises(ValidationError, match="Hermiticity"):
            extract_relaxation_time(gen, None,
                                    observable=np.diag([1.0, -1.0]))
        with pytest.raises(ValidationError, match="Hermiticity"):
            propagate(rho0, gen, [1.0])
    # a round-off imaginary part below 1e-12 of max|R| is tolerated
    _, ops, ham2 = _two_level()
    pc = PhononCorrelation(sigma=0.5, temperature=20.0)
    Rmat = assemble_redfield(_coupling(ham2, ops), ham2, pc).matrix()
    noisy = Rmat + 1e-14 * np.max(np.abs(Rmat)) * 1j * rng.normal(size=(4, 4))
    lam = redfield._BlockEigensystem(dense_generator(Rmat)).eigenvalues()
    lam_noisy = redfield._BlockEigensystem(
        dense_generator(noisy)).eigenvalues()
    assert np.allclose(np.sort_complex(lam_noisy), np.sort_complex(lam),
                       rtol=0, atol=1e-13 * np.max(np.abs(Rmat)))


def _non_physical_fixed_point():
    """d=2 generator whose only fixed point is rho = diag(2, -1): every
    other direction decays at 1/ps."""
    v = np.array([2.0, 0.0, 0.0, -1.0])  # vec(diag(2, -1)), (ab) layout
    return dense_generator(-(np.eye(4) - np.outer(v, v) / (v @ v)))


def test_stationary_state_rejects_a_non_physical_state():
    with pytest.raises(NumericalError, match="not physical"):
        stationary_state(_non_physical_fixed_point())


def test_two_stationary_states_leave_no_tau_int():
    # populations 0 and 1 exchange at 1 /ps and level 2 is decoupled:
    # every mixture of the two fixed points is stationary, and the
    # zero-cluster matrix is singular
    d = 3
    R = np.zeros((d, d, d, d))  # (a, b, c, e): rho_ab <- rho_ce
    R[0, 0, 1, 1] = R[1, 1, 0, 0] = 1.0
    R[0, 0, 0, 0] = R[1, 1, 1, 1] = -1.0
    a, b = np.nonzero(~np.eye(d, dtype=bool))
    R[a, b, a, b] = -2.0
    est = extract_relaxation_time(dense_generator(R.reshape(d * d, d * d)),
                                  None, observable=np.diag([1.0, 0.0, -1.0]))
    assert est.tau_ms == pytest.approx(0.5 / PS_PER_MS)
    assert est.tau_int_ms is None and est.mismatch
    assert "not unique" in est.tau_int_error


def test_a_traceless_null_mode_leaves_the_stationary_state_not_unique():
    # the populations exchange at 1 /ps and the coherences are undamped:
    # diag(1/2, 1/2) plus any multiple of a coherence is stationary, so
    # every bordered matrix on the zero cluster is singular
    gen = np.zeros((4, 4))
    gen[[0, 3], [0, 3]] = -1.0
    gen[[0, 3], [3, 0]] = 1.0
    R = dense_generator(gen)
    with pytest.raises(NumericalError, match="not unique"):
        stationary_state(R)
    est = extract_relaxation_time(R, None, observable=np.diag([0.5, -0.5]))
    assert est.tau_ms == pytest.approx(0.5 / PS_PER_MS)
    assert est.tau_int_ms is None and est.mismatch
    assert est.min_rho_eigenvalue is None
    assert "not unique" in est.tau_int_error
    assert "condition inf" in est.tau_int_error


def test_stationary_state_reads_no_eigenvector(monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("the stationary state read an eigenvector")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    test_stationary_state_matches_equilibrium()


def test_fit_without_physical_stationary_state_is_reported():
    # the cross-check needs the stationary state; tau does not
    est = extract_relaxation_time(_non_physical_fixed_point(), None,
                                  observable=np.diag([0.5, -0.5]))
    assert est.tau_ms == pytest.approx(1.0 / PS_PER_MS)
    assert est.tau_int_ms is None and est.mismatch
    assert "not physical" in est.tau_int_error
    assert est.min_rho_eigenvalue is None and est.solve_residual is None


def _driven_two_level(drive=10.0, decay=1.0):
    """d=2 Lindblad generator, (ab) layout: a Rabi drive H = drive Sx
    and decay 1 -> 0 at ``decay`` /ps. Sz oscillates about its
    stationary value while it relaxes."""
    H = 0.5 * drive * np.array([[0.0, 1.0], [1.0, 0.0]])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    P = lower.T @ lower
    one = np.eye(2)
    return dense_generator(
        -1j * (np.kron(H, one) - np.kron(one, H.T))
        + decay * (np.kron(lower, lower)
                   - 0.5 * (np.kron(P, one) + np.kron(one, P.T))))


def test_a_far_tau_int_is_flagged_not_agreement():
    # Sz oscillates at the Rabi frequency while it relaxes: its
    # correlation integrates to far less than the slowest mode's time
    est = extract_relaxation_time(_driven_two_level(), None,
                                  observable=np.diag([0.5, -0.5]))
    assert est.tau_ms == pytest.approx(4.0 / 3.0 / PS_PER_MS, rel=1e-9)
    assert 0.0 < est.tau_int_ms < 0.05 * est.tau_ms
    assert est.mismatch and est.tau_int_error is None
    assert est.min_rho_eigenvalue > 0.0


@pytest.mark.parametrize("seed, d, decades, rate", [
    (0, 2, 1, 1.0), (1, 3, 2, 1.0), (2, 4, 3, 1.0), (3, 3, 7, 1e-13),
    (4, 4, 7, 1e-13), (5, 5, 7, 1e-13)])
def test_tau_int_solve_matches_the_mode_sum_and_mpmath(seed, d, decades,
                                                       rate):
    mpmath = pytest.importorskip("mpmath")
    # tau_int = sum_k a_k / (-lambda_k) over the modes of L but the null
    # mode, a_k the share of <O|drho> in mode k; and the bordered system
    # solved in 40 digits. Rates of 1e-13 /ps with seven decades between
    # the halves of the levels give the bordered matrix a condition near
    # 1e7, as on the pair project; a border of 1 gives 3e17 or more
    rng = np.random.default_rng(seed)
    gen = detailed_balance_generator(rng, d, decades, rate)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    O = A + A.conj().T
    est = extract_relaxation_time(gen, None, observable=O)
    tau = est.tau_int_ms * PS_PER_MS
    eigsys = redfield._BlockEigensystem(gen)
    rho = stationary_state(gen)
    L = gen.channels["zeeman"].reshape(d * d, d * d)
    shifted = O - np.trace(O @ rho) * np.eye(d)
    y = (0.5 * (shifted @ rho + rho @ shifted)).reshape(-1)
    o = O.T.reshape(-1)
    lam, V = np.linalg.eig(L)
    a = (o @ V) * np.linalg.solve(V, y) / (o @ y)
    modes = np.arange(lam.size) != np.argmin(np.abs(lam))
    tau_modes = np.sum(a[modes] / -lam[modes]).real
    M = L - eigsys.rate * np.outer(rho.reshape(-1), np.eye(d).reshape(-1))
    with mpmath.workdps(40):
        x = mpmath.lu_solve(mpmath.matrix(M.tolist()),
                            mpmath.matrix(y.tolist()))
        tau_mp = float(mpmath.re(-mpmath.fdot(o, x) / mpmath.fdot(o, y)))
    cond = np.linalg.cond(M, 1)
    assert cond > (1e6 if decades == 7 else 1.0)
    # forward error: the condition of M times round-off
    tol = cond * np.finfo(float).eps
    assert abs(tau / tau_mp - 1.0) <= tol
    assert abs(tau_modes / tau_mp - 1.0) <= tol
    assert est.solve_residual <= 1e-15
