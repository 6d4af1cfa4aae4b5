"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
captured output) and asserts the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from spinphonon.coupling import (CouplingStack, DerivativeScan,
                                 fit_derivative_scan,
                                 mode_tensor_derivatives)
from spinphonon.hamiltonian import assemble_hamiltonian
from spinphonon.lattice import (decomposition_weights, dynamical_matrices,
                                enforce_acoustic_sum_rule, phonon_dos,
                                phonon_spectrum)
from spinphonon.project import load_project
from spinphonon.redfield import (PhononCorrelation, assemble_redfield,
                                 equilibrium_state, propagate)
from spinphonon.spins import SpinCenter, SpinSystem, build_spin_operators
from spinphonon.sweep import (RelaxationPipeline, RunParams, SweepPlan,
                              kpoint_grid, run_sweep)
from spinphonon.toy import (ToySpec, diatomic_chain,
                            diatomic_chain_dispersion, generate_toy_crystal)
from spinphonon.units import (ANGULAR_FREQUENCY_PER_CM1,
                              FREQ_CM1_PER_SQRT_EV_A2_AMU, KB_CM1_PER_K)


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


# -- independent golden-rule oracle (math module only) -----------------------

def _oracle_gauss(x, sigma):
    return math.exp(-(x / sigma) ** 2) / (sigma * math.sqrt(math.pi))


# CODATA: k_B / (h c) in cm^-1/K and 2 pi c in rad cm / ps
_ORACLE_KB = 1.380649e-23 / (6.62607015e-34 * 2.99792458e10)
_ORACLE_RAD_PS = 2.0 * math.pi * 0.0299792458


def _oracle_bose(omega_cm1, T_K):
    if T_K == 0.0:
        return 0.0
    return 1.0 / math.expm1(omega_cm1 / (_ORACLE_KB * T_K))


def _oracle_rate(v_abs, gap, omega_mode, sigma, T_K):
    """Fermi golden rule W = (pi/hbar^2) |V|^2 G(gap), in 1/ps."""
    n = _oracle_bose(omega_mode, T_K)
    G = (n * _oracle_gauss(omega_mode - gap, sigma)
         + (n + 1.0) * _oracle_gauss(omega_mode + gap, sigma))
    return math.pi * _ORACLE_RAD_PS * v_abs**2 * G


def test_criterion_01_golden_rule_population_transfer():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for case in range(100):
        if case % 2 == 0:
            system = SpinSystem(
                centers=(SpinCenter(id=0, kind="electronic", s=0.5),),
                field_B=np.array([0.0, 0.0, rng.uniform(2.0, 10.0)]))
        else:
            system = SpinSystem(
                centers=(SpinCenter(id=0, kind="electronic", s=1.0,
                                    g=float(rng.uniform(1.8, 2.2))),),
                field_B=np.array([0.0, 0.0, rng.uniform(2.0, 10.0)]))
        ops = build_spin_operators(system)
        ham = assemble_hamiltonian(system, ops)
        d = ham.dimension
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        V = 0.01 * (m + m.conj().T)
        sigma = float(rng.uniform(0.2, 1.5))
        T = float(rng.uniform(2.0, 100.0))
        omega_mode = float(rng.uniform(1.0, 12.0))
        stack = CouplingStack.from_rows(omega=[omega_mode],
                                        channel=["zeeman"], V=[V])
        pc = PhononCorrelation(sigma=sigma, temperature=T)
        R = assemble_redfield(stack, ham, pc).matrix()
        for a in range(d):
            for c in range(d):
                if a == c:
                    continue
                gap = float(ham.eigvals[a] - ham.eigvals[c])
                w_ref = _oracle_rate(abs(V[a, c]), gap, omega_mode, sigma, T)
                w_code = R[a * d + a, c * d + c].real
                worst = max(worst, abs(w_code - w_ref) / max(w_ref, 1e-300))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "golden rule, 100 cases",
            ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_secular_propagation_reaches_boltzmann():
    t0 = time.time()
    rng = np.random.default_rng(7)
    T = 20.0
    systems = [
        SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=0.5),),
                   field_B=np.array([0.0, 0.0, 5.0])),
        SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=1.0),),
                   field_B=np.array([0.0, 0.0, 5.0])),
        SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=3.5),),
                   field_B=np.array([0.0, 0.0, 5.0])),
        SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=1.5, g=2.0),
                            SpinCenter(id=1, kind="electronic", s=1.5, g=1.3)),
                   field_B=np.array([0.0, 0.0, 5.0])),
    ]
    worst = 0.0
    for system in systems:
        ops = build_spin_operators(system)
        ham = assemble_hamiltonian(system, ops)
        d = ham.dimension
        gaps = np.unique(np.round(np.abs(ham.omega), 6))
        gaps = gaps[gaps > 0.1]
        Vs = []
        for gap in gaps:
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            Vs.append(0.05 * (m + m.conj().T))
        cpls = CouplingStack.from_rows(omega=gaps,
                                       channel=["zeeman"] * len(gaps), V=Vs)
        pc = PhononCorrelation(sigma=0.02, temperature=T)
        R = assemble_redfield(cpls, ham, pc, secular=True)
        Rmat = R.matrix()
        w = np.linalg.eigvals(Rmat)
        rates = np.abs(w.real)
        slow = rates[rates > 1e-12 * rates.max()].min()
        t_end = 100.0 / slow
        eq = equilibrium_state(ham, T)
        for _ in range(5):  # 5 states x 4 systems = 20 random states
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho0 = m @ m.conj().T
            rho0 /= np.trace(rho0)
            final = propagate(rho0, R, [t_end])[-1]
            worst = max(worst, float(np.max(np.abs(final - eq))))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(2, "secular propagation to Boltzmann (20 random states, d<=16)",
            ok, f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_direct_process_inverse_temperature_law(soft_pipeline):
    t0 = time.time()
    temps = np.geomspace(68.0, 680.0, 8)
    plan = SweepPlan(axis="temperature", values=tuple(temps),
                     params=RunParams(qgrid=(16, 16, 16), sigma=1.0))
    res = run_sweep(soft_pipeline, plan)
    taus = np.array([row.tau_ms for row in res.rows])
    assert all(row.error is None for row in res.rows)
    slope = np.polyfit(np.log(temps), np.log(taus), 1)[0]
    elapsed = time.time() - t0
    ok = abs(slope + 1.0) < 0.05 and elapsed < 300.0
    _report(3, "tau ~ T^-1 over one decade (k_B T >= 10 hbar omega)",
            ok, f"slope {slope:.4f}, {elapsed:.0f}s")


def test_criterion_04_zero_temperature_plateau(soft_pipeline):
    t0 = time.time()
    params = RunParams(qgrid=(8, 8, 8), sigma=1.0)
    from dataclasses import replace
    tau_a = soft_pipeline.relax(replace(params, temperature=0.05)).tau_ms
    tau_b = soft_pipeline.relax(replace(params, temperature=0.1)).tau_ms
    ratio = tau_a / tau_b
    elapsed = time.time() - t0
    ok = abs(ratio - 1.0) < 0.01 and elapsed < 120.0
    _report(4, "spontaneous-emission plateau tau(0.05K)/tau(0.1K)",
            ok, f"ratio {ratio:.6f}, {elapsed:.0f}s")


def test_criterion_05_quadratic_coupling_scaling(soft_pipeline):
    t0 = time.time()
    params = RunParams(qgrid=(4, 4, 4), sigma=1.0, temperature=50.0)
    base = soft_pipeline.relax(params).tau_ms
    worst = 0.0
    from dataclasses import replace
    for c in (2.0, 0.5, 3.0):
        tau = soft_pipeline.relax(
            replace(params, coupling_scale={"zeeman": c})).tau_ms
        worst = max(worst, abs(tau * c**2 / base - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 60.0
    _report(5, "rate scales as coupling^2",
            ok, f"max deviation {worst:.2e}, {elapsed:.0f}s")


def test_criterion_06_diatomic_chain_and_dynamical_matrix():
    t0 = time.time()
    m1, m2, k = 10.0, 14.0, 1.0
    crystal, fc = diatomic_chain(m1, m2, k)
    qs = np.linspace(0.0, 0.5, 64)
    qpts = np.stack([qs, np.zeros(64), np.zeros(64)], axis=1)
    omega, _ = phonon_spectrum(fc, qpts)
    worst_disp = 0.0
    for iq in range(1, 64):
        computed = np.sort(omega[iq])[-2:]
        exact = np.sort([FREQ_CM1_PER_SQRT_EV_A2_AMU * math.sqrt(
            diatomic_chain_dispersion(qs[iq], m1, m2, k, br))
            for br in ("acoustic", "optical")])
        worst_disp = max(worst_disp,
                         float(np.max(np.abs(computed / exact - 1.0))))
    fixed = enforce_acoustic_sum_rule(fc)
    gamma_omega, _ = phonon_spectrum(fixed, np.zeros((1, 3)))
    gamma = float(np.max(np.abs(gamma_omega[0, :3])))
    worst_herm = 0.0
    for q in ([0.13, -0.27, 0.41], [0.5, 0.0, 0.25]):
        D, Dm = dynamical_matrices(fc, [q, -np.asarray(q)])
        worst_herm = max(worst_herm,
                         float(np.max(np.abs(D - D.conj().T))),
                         float(np.max(np.abs(Dm - D.conj()))))
    elapsed = time.time() - t0
    ok = (worst_disp < 1e-8 and gamma < 1e-6 and worst_herm < 1e-10
          and elapsed < 10.0)
    _report(6, "chain dispersion, Gamma zeros, D(q) symmetries", ok,
            f"disp {worst_disp:.1e}, Gamma {gamma:.1e}, "
            f"herm {worst_herm:.1e}, {elapsed:.1f}s")


def test_criterion_07_debye_dos_slope_area_weights():
    t0 = time.time()
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=4, mass=20.0, k_intra=2.0, k_inter=0.15,
                seed=3))
    dos = phonon_dos(fc, kpoint_grid(32, 32, 32), sigma=1.0)
    window = (dos.frequency >= 5.0) & (dos.frequency <= 15.0) & (dos.total > 0)
    slope = np.polyfit(np.log(dos.frequency[window]),
                       np.log(dos.total[window]), 1)[0]
    area_err = abs(dos.area() - 3 * crystal.n_atoms) / (3 * crystal.n_atoms)
    _, vecs = phonon_spectrum(fc, kpoint_grid(4, 4, 4))
    w_t, w_r, w_i = decomposition_weights(crystal, vecs)
    weight_err = float(np.max(np.abs(w_t + w_r + w_i - 1.0)))
    elapsed = time.time() - t0
    ok = (abs(slope - 2.0) < 0.2 and area_err < 0.001
          and weight_err < 1e-8 and elapsed < 180.0)
    _report(7, "Debye omega^2 DOS, area 3N, weight closure", ok,
            f"slope {slope:.3f}, area err {area_err:.1e}, "
            f"weights {weight_err:.1e}, {elapsed:.0f}s")


def test_criterion_08_rigid_translation_yields_no_coupling(soft_bundle):
    t0 = time.time()
    crystal, fc, derivs, _ = soft_bundle
    fixed = enforce_acoustic_sum_rule(fc)
    scale = float(np.max(np.abs(derivs.tensors)))
    _, vecs = phonon_spectrum(fixed, np.zeros((1, 3)))
    # unit proxy frequencies: the acoustic omega are zero at Gamma
    modes = mode_tensor_derivatives(derivs, np.zeros((3, 3)), np.ones(3),
                                    vecs[0, :, :3].T, crystal, 1)
    worst = float(np.max(np.abs(modes.tensors))) / scale
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(8, "uniform translation produces zero coupling",
            ok, f"relative norm {worst:.2e}, {elapsed:.1f}s")


def test_criterion_09_brillouin_zone_grid_convergence(soft_pipeline):
    t0 = time.time()
    from dataclasses import replace
    params = RunParams(sigma=1.0, temperature=100.0)
    taus = [soft_pipeline.relax(replace(params, qgrid=g)).tau_ms
            for g in ((4, 4, 4), (8, 8, 8), (16, 16, 16))]
    change_1 = abs(taus[1] / taus[0] - 1.0)
    change_2 = abs(taus[2] / taus[1] - 1.0)
    elapsed = time.time() - t0
    ok = change_2 < change_1 and change_2 < 0.02 and elapsed < 600.0
    _report(9, "tau converges with q-grid refinement", ok,
            f"changes {change_1:.3%} -> {change_2:.3%}, {elapsed:.0f}s")


def test_criterion_10_derivative_fit_recovery_and_noise_rejection():
    t0 = time.time()
    x = np.linspace(-0.05, 0.05, 10)
    rng = np.random.default_rng(2024)

    def scan_of(coeffs, noise_sd=None):
        y = np.polyval(coeffs[::-1], x)
        tens = np.repeat(y[:, None, None], 9, axis=1).reshape(-1, 3, 3)
        if noise_sd is not None:
            tens = tens + rng.normal(scale=noise_sd, size=tens.shape)
        return DerivativeScan(target=("g", 0), atom=0, direction=0,
                              displacements=x, tensors=tens)

    # noiseless: exact recovery of the planted linear coefficient
    worst = 0.0
    for _ in range(50):
        coeffs = rng.normal(size=5)
        coeffs[1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        d, decisions = fit_derivative_scan(scan_of(coeffs))
        worst = max(worst, float(np.max(np.abs(d - coeffs[1]))))
        assert all(decisions[u][v] == "kept" for u in range(3) for v in range(3))

    # noisy: SNR > 100 must never lose the linear term
    x_rms = float(np.sqrt(np.mean(x**2)))
    false_neg = 0
    for _ in range(1000):
        coeffs = rng.normal(size=5)
        p1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        coeffs[1] = p1
        snr = 10 ** rng.uniform(2, 4)
        _, decisions = fit_derivative_scan(
            scan_of(coeffs, noise_sd=abs(p1) * x_rms / snr))
        if any(decisions[u][v] != "kept" for u in range(3) for v in range(3)):
            false_neg += 1
    elapsed = time.time() - t0
    ok = worst < 1e-10 and false_neg == 0 and elapsed < 30.0
    _report(10, "scan fit: exact recovery, zero false negatives", ok,
            f"noiseless err {worst:.1e}, {false_neg}/1000 lost, "
            f"{elapsed:.0f}s")


def test_criterion_11_long_propagation_invariants(soft_pipeline,
                                                  vanadyl_config):
    t0 = time.time()
    worst_trace = 0.0
    worst_herm = 0.0
    pipelines = [(soft_pipeline,
                  RunParams(qgrid=(4, 4, 4), sigma=1.0, temperature=50.0))]
    crystal, fc, derivs, system, config = load_project(vanadyl_config)
    pipelines.append((RelaxationPipeline(crystal, fc, derivs, system),
                      config.run_params()))
    for pipeline, params in pipelines:
        R, ham, _, _ = pipeline.redfield(params)
        Rmat = R.matrix()
        rate = float(np.max(np.abs(np.linalg.eigvals(Rmat).real)))
        # 1e6 steps of dt = 0.01 / fastest rate
        t_total = 1e6 * 0.01 / rate
        rho0 = equilibrium_state(ham, 2 * params.temperature)
        for st in propagate(rho0, R, np.linspace(0.0, t_total, 11)):
            worst_trace = max(worst_trace,
                              abs(float(np.trace(st).real) - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(
                st - st.conj().T))))
    elapsed = time.time() - t0
    ok = worst_trace < 1e-8 and worst_herm < 1e-8 and elapsed < 60.0
    _report(11, "trace and Hermiticity preserved over 1e6-step propagation",
            ok, f"trace drift {worst_trace:.1e}, herm {worst_herm:.1e}, "
            f"{elapsed:.0f}s")
