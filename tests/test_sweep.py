import time
from dataclasses import fields, replace

import numpy as np
import pytest

from spinphonon import sweep
from spinphonon.coupling import CHANNEL_OF_KIND
from spinphonon.errors import CapacityError, NumericalError, ValidationError
from spinphonon.lattice import ForceConstantSet
from spinphonon.project import load_project
from spinphonon.sweep import (RelaxationPipeline, RunParams, SweepPlan,
                              converge_protocol, kpoint_grid,
                              paired_kpoint_grid, perturbation_study,
                              replicated_spin_system, run_sweep)
from spinphonon.toy import generate_toy_crystal, toy_preset


BASE = RunParams(qgrid=(4, 4, 4), sigma=1.0, temperature=50.0)


def test_kpoint_grid_counts_and_range():
    g = kpoint_grid(4, 4, 4)
    assert g.shape == (64, 3)
    assert kpoint_grid(64, 64, 64).shape[0] == 262144
    assert np.all(g > -0.5 - 1e-15) and np.all(g <= 0.5 + 1e-15)


def test_kpoint_grid_is_inversion_symmetric_as_a_set():
    for n in (3, 4, 5):
        g = kpoint_grid(n, n, n)
        folded = np.round(((-g) + 0.5) % 1.0 - 0.5, 12)
        folded[folded <= -0.5 + 1e-12] += 1.0
        a = {tuple(x) for x in np.round(g, 12)}
        b = {tuple(x) for x in folded}
        assert a == b


def test_kpoint_grid_rejects_bad_divisions():
    with pytest.raises(ValidationError):
        kpoint_grid(0, 4, 4)


def test_pipeline_is_deterministic(soft_pipeline):
    t1 = soft_pipeline.relax(BASE).tau_ms
    t2 = soft_pipeline.relax(BASE).tau_ms
    assert t1 == t2


def test_cached_phonons_match_fresh_computation(soft_bundle, soft_pipeline):
    from spinphonon.lattice import enforce_acoustic_sum_rule, phonon_spectrum
    crystal, fc, _, _ = soft_bundle
    qpts, weights, omega, vecs = soft_pipeline.phonons((4, 4, 4))
    qpts2, weights2 = paired_kpoint_grid(4, 4, 4)
    omega2, vecs2 = phonon_spectrum(enforce_acoustic_sum_rule(fc), qpts2)
    assert np.array_equal(qpts, qpts2) and np.array_equal(weights, weights2)
    assert np.array_equal(omega, omega2)
    assert np.array_equal(vecs, vecs2)
    # second call hits the cache and returns the same arrays
    _, _, omega_b, _ = soft_pipeline.phonons((4, 4, 4))
    assert omega_b is omega


def test_doubling_coupling_quarters_tau(soft_pipeline):
    base = soft_pipeline.relax(BASE).tau_ms
    for c in (2.0, 0.5, 3.0):
        scaled = soft_pipeline.relax(
            RunParams(qgrid=(4, 4, 4), sigma=1.0, temperature=50.0,
                      coupling_scale={"zeeman": c})).tau_ms
        assert abs(scaled * c**2 / base - 1.0) < 1e-12


def test_temperature_sweep_tau_decreases(soft_pipeline):
    plan = SweepPlan(axis="temperature", values=(30.0, 60.0, 120.0),
                     params=BASE)
    res = run_sweep(soft_pipeline, plan)
    taus = [row.tau_ms for row in res.rows]
    assert all(r.error is None for r in res.rows)
    assert taus[0] > taus[1] > taus[2]
    assert res.metadata["axis"] == "temperature"


def test_sweep_metadata_echoes_every_run_param(soft_pipeline):
    params = replace(BASE, prune_sigma_mult=7.0)
    res = run_sweep(soft_pipeline, SweepPlan(axis="temperature",
                                             values=(50.0,), params=params))
    assert res.metadata["params"] == {
        f.name: getattr(params, f.name) for f in fields(RunParams)}


def test_threaded_sweep_matches_serial(soft_pipeline):
    vals = (40.0, 80.0, 160.0, 320.0)
    serial = run_sweep(soft_pipeline, SweepPlan(axis="temperature",
                                                values=vals, params=BASE))
    threaded = run_sweep(soft_pipeline, SweepPlan(axis="temperature",
                                                  values=vals, params=BASE,
                                                  threads=4))
    for a, b in zip(serial.rows, threaded.rows):
        assert a.tau_ms == b.tau_ms


def test_field_magnitude_sweep_runs(soft_pipeline):
    plan = SweepPlan(axis="field_magnitude", values=(4.8, 5.0, 5.2),
                     params=BASE)
    res = run_sweep(soft_pipeline, plan)
    assert all(row.error is None for row in res.rows)
    assert all(np.isfinite(row.tau_ms) for row in res.rows)


def test_sigma_sweep_runs(soft_pipeline):
    res = run_sweep(soft_pipeline, SweepPlan(axis="sigma", values=(2.0, 1.0),
                                             params=BASE))
    assert all(row.error is None for row in res.rows)


def test_per_point_failures_recorded_not_raised(soft_pipeline):
    # 0 K freezes every phonon channel: the point fails, the sweep survives
    plan = SweepPlan(axis="temperature", values=(1e-12, 50.0), params=BASE)
    res = run_sweep(soft_pipeline, plan)
    assert res.rows[1].error is None
    bad = res.rows[0]
    assert bad.error is not None or np.isfinite(bad.tau_ms)


def test_sweep_plan_validation():
    with pytest.raises(ValidationError):
        SweepPlan(axis="voltage", values=(1.0,))
    with pytest.raises(ValidationError):
        SweepPlan(axis="temperature", values=())
    with pytest.raises(ValidationError):
        SweepPlan(axis="temperature", values=(np.nan,))


@pytest.mark.parametrize("name, build", [
    ("channels", lambda: RunParams(channels=("zeman",))),
    ("coupling_scale", lambda: RunParams(coupling_scale={"zeman": 2})),
    ("freq_scale", lambda: RunParams(freq_scale=0)),
    ("prune_sigma_mult", lambda: RunParams(prune_sigma_mult=-1)),
    ("qgrid", lambda: RunParams(qgrid=(0, 4, 4))),
    ("field_B", lambda: RunParams(field_B=(0, 0))),
    ("temperature", lambda: replace(BASE, temperature=-1.0)),
    ("sigma", lambda: replace(BASE, sigma=np.nan)),
    ("channel", lambda: SweepPlan(axis="coupling_scale", values=(2.0,),
                                  channel="zeman")),
    ("replication_axis", lambda: SweepPlan(axis="n_spins", values=(1,),
                                           replication_axis=3)),
    # the perturbed point is checked before any point runs: no pipeline
    ("coupling_scale", lambda: perturbation_study(None, BASE, "coupling_x2",
                                                  channel="zeman")),
], ids=["channels", "coupling_scale", "freq_scale", "prune_sigma_mult",
        "qgrid", "field_B", "temperature", "sigma", "sweep_channel",
        "replication_axis", "perturb_channel"])
def test_bad_run_point_is_rejected_when_built(name, build):
    with pytest.raises(ValidationError, match=name):
        build()


def test_run_params_are_normalised():
    params = RunParams(qgrid=[4.0, 4, 4], sigma=1, field_B=np.array([0, 0, 5]),
                       channels=["zeeman"], secular=1)
    assert params.qgrid == (4, 4, 4)
    assert all(type(n) is int for n in params.qgrid)
    assert params.sigma == 1.0 and type(params.sigma) is float
    assert params.field_B == (0.0, 0.0, 5.0)
    assert params.channels == ("zeeman",)
    assert params.secular is True
    with pytest.raises(ValidationError, match="qgrid"):
        RunParams(qgrid=(4.5, 4, 4))
    with pytest.raises(ValidationError, match="secular"):
        RunParams(secular="false")


def test_perturbation_coupling_x2(soft_pipeline):
    res = perturbation_study(soft_pipeline, BASE, "coupling_x2",
                             channel="zeeman")
    assert abs(res.metadata["tau_ratio"] - 0.25) < 1e-10
    assert res.rows[0].value == "baseline"
    assert res.rows[1].value == "coupling_x2"


def test_perturbation_frequency_rescale(soft_pipeline):
    res = perturbation_study(soft_pipeline, BASE, "freq_x0.8")
    assert np.isfinite(res.metadata["tau_ratio"])
    assert res.metadata["tau_ratio"] != 1.0
    with pytest.raises(ValidationError):
        perturbation_study(soft_pipeline, BASE, "freq_x2")


def test_replicated_spin_system_structure(soft_pipeline):
    system, derivs = replicated_spin_system(soft_pipeline, 2)
    assert len(system.centers) == 2
    assert len(system.couplings) == 1
    assert system.couplings[0].tag == "dipolar"
    assert any(kind == "dip" for kind, _ in derivs.targets)
    with pytest.raises(ValidationError):
        replicated_spin_system(soft_pipeline, 4)


def test_multi_spin_sweep_rows(soft_pipeline):
    plan = SweepPlan(axis="n_spins", values=(1, 2, 3), params=BASE)
    res = run_sweep(soft_pipeline, plan)
    assert res.plan_axis == "n_spins"
    assert [row.value for row in res.rows] == [1, 2, 3]
    assert all(row.error is None for row in res.rows)
    assert all(np.isfinite(row.tau_ms) for row in res.rows)
    # one unit cell is the base system itself
    assert res.rows[0].tau_ms == soft_pipeline.relax(BASE).tau_ms


def test_n_spins_rows_are_labelled_by_cells_and_share_phonons():
    # two electron spins per cell: 1 and 2 cells hold 2 and 4 spins, and
    # 4 cells is past the replication limit
    spec = replace(toy_preset("soft", 0), molecules_per_cell=2,
                   spin_molecules=2)
    pipeline = RelaxationPipeline(*generate_toy_crystal(spec))
    plan = SweepPlan(axis="n_spins", values=(1, 2, 4),
                     params=replace(BASE, qgrid=(2, 2, 2)))
    rows = run_sweep(pipeline, plan).rows
    assert [row.value for row in rows] == [1, 2, 4]
    assert [row.error is None for row in rows] == [True, True, False]
    assert rows[1].diagnostics["cache_hits"] >= 1
    assert rows[1].diagnostics["timings_s"]["phonons"] == 0


def test_sibling_pipeline_shares_the_lattice_not_the_spins(soft_pipeline):
    system, derivs = replicated_spin_system(soft_pipeline, 2)
    cells = soft_pipeline.with_spins(system, derivs)
    assert cells.crystal is soft_pipeline.crystal
    assert cells.fc is soft_pipeline.fc
    assert cells._phonon_cache is soft_pipeline._phonon_cache
    assert (cells.system, cells.derivs) == (system, derivs)
    assert cells.ops.dimension == 4 and soft_pipeline.ops.dimension == 2
    assert cells._precursor_cache is not soft_pipeline._precursor_cache
    assert cells._log is not soft_pipeline._log


def test_field_magnitude_sweep_keeps_the_system_field_direction(
        soft_bundle):
    crystal, fc, derivs, system = soft_bundle
    pipeline = RelaxationPipeline(crystal, fc, derivs,
                                  system.with_field((5.0, 0.0, 0.0)))
    params = replace(BASE, qgrid=(2, 2, 2))
    row, = run_sweep(pipeline, SweepPlan(axis="field_magnitude",
                                         values=(3.0,), params=params)).rows
    along_x, along_z = (pipeline.relax(replace(params, field_B=B)).tau_ms
                        for B in ((3.0, 0.0, 0.0), (0.0, 0.0, 3.0)))
    assert row.tau_ms == along_x
    assert along_x != along_z


def test_replication_above_the_dimension_cap_is_a_capacity_error(
        soft_bundle):
    crystal, fc, derivs, system = soft_bundle
    capped = RelaxationPipeline(crystal, fc, derivs,
                                replace(system, dimension_cap=4))
    replicated_spin_system(capped, 2)
    with pytest.raises(CapacityError, match="exceeds cap 4"):
        replicated_spin_system(capped, 3)
    row, = run_sweep(capped, SweepPlan(axis="n_spins", values=(3,),
                                       params=BASE)).rows
    assert row.error.startswith("CapacityError: ")


def test_a_sweep_point_is_the_relax_row(soft_pipeline):
    params = replace(BASE, temperature=70.0)
    point = soft_pipeline.relax(params)
    row, = run_sweep(soft_pipeline, SweepPlan(axis="temperature",
                                              values=(70.0,),
                                              params=BASE)).rows
    assert (row.value, point.value) == (70.0, None)
    assert row.tau_ms == point.tau_ms
    assert row.tau_channel_ms == point.tau_channel_ms
    assert row.diagnostics.keys() == point.diagnostics.keys()
    assert row.diagnostics["tau_fit_ms"] == point.diagnostics["tau_fit_ms"]
    # n_spins points run through the same thread pool
    plan = SweepPlan(axis="n_spins", values=(1, 2), params=BASE)
    serial = run_sweep(soft_pipeline, plan).rows
    pooled = run_sweep(soft_pipeline, replace(plan, threads=2)).rows
    assert [r.tau_ms for r in pooled] == [r.tau_ms for r in serial]


def test_failed_points_give_rows_of_one_shape(soft_pipeline):
    rows = [run_sweep(soft_pipeline, SweepPlan(axis=axis, values=(value,),
                                               params=BASE)).rows[0]
            for axis, value in (("n_spins", 4), ("temperature", -1.0))]
    for row, value in zip(rows, (4, -1.0)):
        assert row.value == value
        assert row.error.startswith("ValidationError: ")
        assert np.isnan(row.tau_ms)
        assert (row.tau_channel_ms, row.diagnostics) == ({}, {})


def test_converge_protocol_reports_convergence(soft_pipeline):
    report = converge_protocol(soft_pipeline, BASE, sigmas=(2.0, 1.0),
                               grids=((4, 4, 4), (8, 8, 8), (12, 12, 12)))
    assert [r["sigma"] for r in report] == [2.0, 1.0]
    for r in report:
        assert len(r["tau_ms"]) == len(r["grids"])
        if r["converged"]:
            assert abs(r["tau_ms"][-1] / r["tau_ms"][-2] - 1.0) < 0.02


def _stack(pipeline, params):
    system, ham = pipeline.hamiltonian(params.field_B)
    stack, diag = pipeline.couplings(params, ham, system)
    return stack, diag, ham, system


def _reference_rows(pipeline, params, ham, system):
    """(omega, channel, V) rows built the direct way: each retained mode's
    target operator in the product basis, split into its Hermitian and
    anti-Hermitian parts, all-zero parts dropped, each part rotated on its
    own; ordered by target, then part, then mode."""
    modes, _ = pipeline.mode_precursors(params.qgrid, params.omega_min)
    gaps = np.unique(np.round(np.abs(ham.omega), 12))
    kept = [m for m, w in enumerate(modes.omega) if np.min(np.abs(gaps - w))
            <= params.prune_sigma_mult * params.sigma]
    S = pipeline.ops.embedded
    rows = []
    for t, (kind, key) in enumerate(modes.targets):
        for part in ("hermitian", "anti-hermitian"):
            for m in kept:
                T = modes.tensors[m, t]
                if kind == "g":
                    op = system.center(key).magneton_cm1_per_T * np.einsum(
                        "v,vab->ab", system.field_B @ T, S[key])
                else:
                    op = np.einsum("uv,uab,vbc->ac", T, S[key[0]], S[key[1]])
                if part == "hermitian":
                    p = 0.5 * (op + op.conj().T)
                else:
                    p = 0.5 * (op - op.conj().T) / 1j
                if np.any(p != 0.0):
                    rows.append((modes.omega[m], CHANNEL_OF_KIND[kind],
                                 ham.to_eigenbasis(p)))
    return rows


@pytest.mark.parametrize("which", ["soft", "vanadyl"])
def test_coupling_stack_matches_direct_construction(which, soft_pipeline,
                                                    vanadyl_config):
    if which == "soft":
        pipeline, params = soft_pipeline, BASE
    else:
        crystal, fc, derivs, system, config = load_project(vanadyl_config)
        pipeline = RelaxationPipeline(crystal, fc, derivs, system)
        params = config.run_params(qgrid=(2, 2, 2))
    stack, _, ham, system = _stack(pipeline, params)
    ref = _reference_rows(pipeline, params, ham, system)
    assert len(stack) == len(ref) > 0
    assert np.array_equal(stack.omega, [r[0] for r in ref])
    assert list(stack.channel) == [r[1] for r in ref]
    V_ref = np.array([r[2] for r in ref])
    scale = np.max(np.abs(V_ref))
    assert np.max(np.abs(stack.V - V_ref)) <= 1e-12 * scale
    herm = np.abs(stack.V - stack.V.conj().transpose(0, 2, 1))
    assert np.max(herm) <= 1e-14 * scale


def test_coupling_stack_channel_filter(soft_pipeline):
    full, _, _, _ = _stack(soft_pipeline, BASE)
    none, _, _, _ = _stack(soft_pipeline,
                           replace(BASE, channels=("hyperfine",)))
    assert len(none) == 0 and none.V.shape[1:] == full.V.shape[1:]
    zee, _, _, _ = _stack(soft_pipeline, replace(BASE, channels=("zeeman",)))
    assert set(full.channel) == {"zeeman"}
    assert np.array_equal(zee.V, full.V)


def test_mode_pruning_skips_far_off_resonant_modes(soft_pipeline):
    pruned, diag, ham, _ = _stack(soft_pipeline, BASE)
    every, diag_all, _, _ = _stack(soft_pipeline,
                                   replace(BASE, prune_sigma_mult=None))
    modes, _ = soft_pipeline.mode_precursors(BASE.qgrid, BASE.omega_min)
    gaps = np.unique(np.round(np.abs(ham.omega), 12))
    far = np.array([np.min(np.abs(gaps - w)) > 20.0 * BASE.sigma
                    for w in modes.omega])
    # a full-grid count: a mode stands for weight-many q-points
    assert diag["pruned_modes"] == modes.weight[far].sum() > 0
    assert diag_all["pruned_modes"] == 0
    near = np.array([np.min(np.abs(gaps - w)) for w in pruned.omega])
    assert np.all(near <= 20.0 * BASE.sigma)
    assert len(every) > len(pruned)
    assert set(every.omega) == set(modes.omega)


def _vanadyl_pipeline(config_path):
    crystal, fc, derivs, system, config = load_project(config_path)
    return RelaxationPipeline(crystal, fc, derivs, system), config.run_params()


def test_channel_failure_is_recorded_not_hidden(vanadyl_config, monkeypatch):
    # two channels: each one is diagonalised on its own
    pipeline, params = _vanadyl_pipeline(vanadyl_config)
    real = sweep.extract_relaxation_time

    def failing(*args, **kwargs):
        if kwargs.get("channels") == ("zeeman",):
            raise NumericalError("probe failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "extract_relaxation_time", failing)
    point = pipeline.relax(params)
    assert np.isfinite(point.tau_ms)
    assert np.isnan(point.tau_channel_ms["zeeman"])
    assert np.isfinite(point.tau_channel_ms["hyperfine"])
    assert point.diagnostics["channel_errors"] == {"zeeman": "probe failure"}

    def broken(*args, **kwargs):
        if kwargs.get("channels") == ("zeeman",):
            raise RuntimeError("not a numerical failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "extract_relaxation_time", broken)
    with pytest.raises(RuntimeError):
        pipeline.relax(params)


def test_one_channel_point_is_diagonalised_once(soft_pipeline, monkeypatch):
    calls = []
    real = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    point = soft_pipeline.relax(BASE)
    assert len(calls) == 1
    assert point.tau_channel_ms == {"zeeman": point.tau_ms}
    assert point.diagnostics["channel_errors"] == {}


def test_points_record_stage_timings_and_cache_hits(soft_bundle):
    crystal, fc, derivs, system = soft_bundle
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    diags = []
    for T in (30.0, 60.0):
        t0 = time.perf_counter()
        point = pipeline.relax(replace(BASE, temperature=T))
        wall = time.perf_counter() - t0
        timings = point.diagnostics["timings_s"]
        assert set(timings) == set(sweep.STAGES)
        assert all(t >= 0.0 for t in timings.values())
        assert sum(timings.values()) <= wall
        diags.append(point.diagnostics)
    # the first point fills both caches; the second reuses the mode tensors
    assert diags[0]["cache_hits"] == 0
    assert diags[0]["timings_s"]["phonons"] > 0.0
    assert diags[1]["cache_hits"] == 1
    assert diags[1]["timings_s"]["phonons"] == 0.0
    assert diags[1]["timings_s"]["mode_tensors"] == 0.0
    rows = run_sweep(pipeline, SweepPlan(axis="temperature",
                                         values=(40.0,), params=BASE)).rows
    assert set(rows[0].diagnostics["timings_s"]) == set(sweep.STAGES)
    assert rows[0].diagnostics["cache_hits"] == 1


def test_point_beyond_memory_fails_before_assembly(soft_pipeline,
                                                   monkeypatch):
    assert sweep.physical_memory_bytes() > sweep.redfield_bytes(32, 3)
    need = sweep.redfield_bytes(2, 1)
    assembled = []
    monkeypatch.setattr(sweep, "assemble_redfield",
                        lambda *a, **k: assembled.append(1))
    monkeypatch.setattr(sweep, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(CapacityError, match=f"{need / 1e9:.3g} GB"):
        soft_pipeline.relax(BASE)
    assert not assembled


@pytest.mark.parametrize("example, qgrid", [("vanadyl_fixture", (8, 8, 8)),
                                            ("temperature_sweep", None)])
def test_shipped_fixtures_keep_an_exp_fit(example, qgrid):
    from spinphonon.examples import examples_dir
    crystal, fc, derivs, system, config = load_project(
        f"{examples_dir()}/{example}/config.json")
    params = config.run_params()
    if qgrid is not None:
        params = replace(params, qgrid=qgrid)
    point = RelaxationPipeline(crystal, fc, derivs, system).relax(params)
    assert point.diagnostics["fit_error"] is None
    tau_fit = point.diagnostics["tau_fit_ms"]
    assert np.isfinite(tau_fit) and tau_fit > 0


def test_imaginary_modes_count_instabilities_not_round_off(soft_bundle):
    from spinphonon.examples import examples_dir
    crystal, fc, derivs, system, _ = load_project(
        f"{examples_dir()}/vanadyl_fixture/config.json")
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    _, diag = pipeline.mode_precursors((8, 8, 8))
    # the three Gamma acoustic modes are zero up to eigh round-off
    assert pipeline.phonons((8, 8, 8))[2][0, :3].min() < 0.0
    assert diag["imaginary_modes"] == 0
    assert diag["skipped_modes"] == 3
    # negating every force constant keeps the sum rule and turns the
    # stable soft lattice into an unstable one: omega^2 -> -omega^2
    crystal, fc, derivs, system = soft_bundle
    unstable = ForceConstantSet(crystal=crystal, lvecs=fc.lvecs, i=fc.i,
                                s=fc.s, j=fc.j, t=fc.t, values=-fc.values)
    counts = [RelaxationPipeline(crystal, f, derivs, system).mode_precursors(
        (4, 4, 4))[1]["imaginary_modes"] for f in (fc, unstable)]
    assert counts == [0, 381]
