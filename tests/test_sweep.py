import itertools
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from spinphonon import redfield, sweep
from spinphonon.coupling import CHANNEL_OF_KIND, CouplingStack
from spinphonon.errors import CapacityError, NumericalError, ValidationError
from spinphonon.lattice import ForceConstantSet
from spinphonon.project import load_project
from spinphonon.redfield import PhononCorrelation
from spinphonon.sweep import (RelaxationPipeline, RunParams, SweepPlan,
                              converge_protocol, kpoint_grid,
                              kpoint_orbits, perturbation_study,
                              replicated_spin_system, run_sweep)
from spinphonon.toy import ToySpec, generate_toy_crystal, toy_preset

from dense_reference import assert_matches_dense, coupling_rows, dense_redfield


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


def _cubic_rotations():
    """The 48 signed permutation matrices."""
    eye = np.eye(3, dtype=int)
    return [np.diag(signs) @ eye[list(p)]
            for p in itertools.permutations(range(3))
            for signs in itertools.product((1, -1), repeat=3)]


@pytest.mark.parametrize("grid", [(6, 6, 6), (5, 5, 5), (4, 4, 2),
                                  (3, 5, 7)])
def test_cubic_orbits_cover_the_grid_once(grid):
    rotations = _cubic_rotations()
    qpts, weights = kpoint_orbits(*grid, rotations)
    n = np.asarray(grid)
    full = kpoint_grid(*grid)
    # the orbits, from the fractional q-points: each S^T and -S^T that
    # takes every grid point onto the grid
    maps = []
    for S in rotations:
        for M in (S.T, -S.T):
            image = full @ M.T * n
            if np.allclose(image, np.round(image), atol=1e-9):
                maps.append(M)
    distinct = {(6, 6, 6): 48, (5, 5, 5): 48, (4, 4, 2): 16, (3, 5, 7): 8}
    assert len({M.tobytes() for M in maps}) == distinct[grid]
    seen = np.zeros(len(full), dtype=int)
    for q, w in zip(qpts, weights):
        orbit = {int(np.ravel_multi_index(np.round(M @ q * n).astype(int)
                                          % n, grid)) for M in maps}
        assert min(orbit) == np.ravel_multi_index(
            np.round(q * n).astype(int) % n, grid)
        assert len(orbit) == w
        seen[list(orbit)] += 1
    assert np.all(seen == 1)
    assert weights.sum() == np.prod(grid)


def test_pipeline_is_deterministic(soft_pipeline):
    t1 = soft_pipeline.relax(BASE).tau_ms
    t2 = soft_pipeline.relax(BASE).tau_ms
    assert t1 == t2


def test_cached_phonons_match_fresh_computation(soft_bundle, soft_pipeline):
    from spinphonon.lattice import enforce_acoustic_sum_rule, phonon_spectrum
    crystal, fc, _, _ = soft_bundle
    qpts, weights, omega, vecs = soft_pipeline.phonons((4, 4, 4))
    qpts2, weights2 = kpoint_orbits(4, 4, 4)
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
    # float() would read True as 1 and "2" as 2
    ("temperature", lambda: replace(BASE, temperature=True)),
    ("sigma", lambda: replace(BASE, sigma="2")),
    ("omega_min", lambda: RunParams(omega_min=np.True_)),
    ("freq_scale", lambda: RunParams(freq_scale="1")),
    ("prune_sigma_mult", lambda: RunParams(prune_sigma_mult=True)),
    ("qgrid", lambda: RunParams(qgrid=(True, True, True))),
    ("qgrid", lambda: RunParams(qgrid=("4", 4, 4))),
    ("qgrid", lambda: RunParams(qgrid=(np.inf, 4, 4))),
    ("field_B", lambda: RunParams(field_B=(0, 0, True))),
    ("field_B", lambda: RunParams(field_B=("0", 0, 5))),
    ("coupling_scale", lambda: RunParams(coupling_scale={"zeeman": True})),
    ("coupling_scale", lambda: RunParams(coupling_scale={"zeeman": "2"})),
    ("sweep values", lambda: SweepPlan(axis="temperature", values=(True, 3))),
    ("sweep values", lambda: SweepPlan(axis="sigma", values=("2",))),
    ("replication_axis", lambda: SweepPlan(axis="n_spins", values=(1,),
                                           replication_axis=True)),
], ids=["channels", "coupling_scale", "freq_scale", "prune_sigma_mult",
        "qgrid", "field_B", "temperature", "sigma", "sweep_channel",
        "replication_axis", "perturb_channel", "temperature_bool",
        "sigma_str", "omega_min_bool", "freq_scale_str",
        "prune_sigma_mult_bool", "qgrid_bool", "qgrid_str", "qgrid_inf",
        "field_B_bool", "field_B_str", "coupling_scale_bool",
        "coupling_scale_str", "sweep_value_bool", "sweep_value_str",
        "replication_axis_bool"])
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


def test_fractional_cell_counts_fail_their_rows(soft_pipeline):
    plan = SweepPlan(axis="n_spins", values=(1, 1.5, 2.9, 2.0),
                     params=replace(BASE, qgrid=(2, 2, 2)))
    rows = run_sweep(soft_pipeline, plan).rows
    assert [row.value for row in rows] == [1, 1.5, 2.9, 2.0]
    assert [row.error is None for row in rows] == [True, False, False, True]
    for row in rows[1:3]:
        assert row.error.startswith("ValidationError: n_spins")
        assert np.isnan(row.tau_ms)
    assert rows[3].tau_ms == run_sweep(
        soft_pipeline, replace(plan, values=(2,))).rows[0].tau_ms


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
    assert row.diagnostics["tau_int_ms"] == point.diagnostics["tau_int_ms"]
    # an n_spins point is the relax row of its replicated sibling
    rows = run_sweep(soft_pipeline, SweepPlan(axis="n_spins", values=(1, 2),
                                              params=BASE)).rows
    for row in rows:
        sibling = soft_pipeline.with_spins(
            *replicated_spin_system(soft_pipeline, row.value))
        point = sibling.relax(BASE)
        assert row.tau_ms == point.tau_ms
        assert row.tau_channel_ms == point.tau_channel_ms


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
    omega, channel, V = coupling_rows(stack)
    assert len(stack) == len(ref) > 0
    assert np.array_equal(omega, [r[0] for r in ref])
    assert list(channel) == [r[1] for r in ref]
    V_ref = np.array([r[2] for r in ref])
    scale = np.max(np.abs(V_ref))
    assert np.max(np.abs(V - V_ref)) <= 1e-12 * scale
    herm = np.abs(V - V.conj().transpose(0, 2, 1))
    assert np.max(herm) <= 1e-14 * scale


def test_coupling_stack_channel_filter(soft_pipeline):
    full, _, _, _ = _stack(soft_pipeline, BASE)
    none, _, _, _ = _stack(soft_pipeline,
                           replace(BASE, channels=("hyperfine",)))
    _, _, V_none = coupling_rows(none)
    _, channel, V_full = coupling_rows(full)
    assert len(none) == 0 and V_none.shape[1:] == V_full.shape[1:]
    zee, _, _, _ = _stack(soft_pipeline, replace(BASE, channels=("zeeman",)))
    assert set(channel) == {"zeeman"}
    assert np.array_equal(coupling_rows(zee)[2], V_full)


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
    near = np.array([np.min(np.abs(gaps - w))
                     for w in coupling_rows(pruned)[0]])
    assert np.all(near <= 20.0 * BASE.sigma)
    assert len(every) > len(pruned)
    assert set(coupling_rows(every)[0]) == set(modes.omega)


def _counted_projection(monkeypatch):
    """The number of modes of each mode_tensor_derivatives call."""
    counts = []
    real = sweep.mode_tensor_derivatives

    def counted(derivs, q, omega, *args):
        counts.append(len(omega))
        return real(derivs, q, omega, *args)

    monkeypatch.setattr(sweep, "mode_tensor_derivatives", counted)
    return counts


def test_field_sweep_projects_each_mode_once(soft_bundle, monkeypatch):
    # the spin gap moves with the field, and with it the kept modes: 5 T
    # keeps the low band, 30 T more, 60 T drops the lowest modes
    counts = _counted_projection(monkeypatch)
    pipeline = RelaxationPipeline(*soft_bundle)
    plan = SweepPlan(axis="field_magnitude", values=(5.0, 30.0, 60.0),
                     params=BASE)
    rows = run_sweep(pipeline, plan).rows
    usable = pipeline._precursor_cache[(BASE.qgrid, BASE.omega_min)].omega
    assert len(counts) == 3 and min(counts) > 0
    assert sum(counts) == usable.size
    assert [row.diagnostics["cache_hits"] for row in rows] == [0, 1, 1]
    assert all(row.diagnostics["pruned_modes"] > 0 for row in rows)
    monkeypatch.undo()
    skip = ("timings_s", "cache_hits")
    for row, B in zip(rows, plan.values):
        fresh = RelaxationPipeline(*soft_bundle).relax(
            replace(BASE, field_B=(0.0, 0.0, B)))
        assert row.error is None
        assert row.tau_ms == fresh.tau_ms
        assert row.tau_channel_ms == fresh.tau_channel_ms
        assert ({k: v for k, v in row.diagnostics.items() if k not in skip}
                == {k: v for k, v in fresh.diagnostics.items()
                    if k not in skip})


def test_kept_modes_are_those_of_a_full_projection(soft_bundle,
                                                   monkeypatch):
    full, diag = RelaxationPipeline(*soft_bundle).mode_precursors(
        BASE.qgrid, BASE.omega_min)
    pipeline = RelaxationPipeline(*soft_bundle)
    _, pruned_diag, ham, _ = _stack(pipeline, BASE)
    gaps = np.unique(np.round(np.abs(ham.omega), 12))
    kept = np.array([np.min(np.abs(gaps - w)) <= 20.0 * BASE.sigma
                     for w in full.omega])
    assert 0 < np.count_nonzero(kept) < len(full)
    cache = pipeline._precursor_cache[(BASE.qgrid, BASE.omega_min)]
    assert np.array_equal(cache.done, kept)
    assert np.array_equal(cache.tensors, full.tensors[kept])
    assert pruned_diag["pruned_modes"] == full.weight[~kept].sum()
    # a call that wants every mode projects only the rest, and gets what
    # a fresh pipeline projects in one pass
    counts = _counted_projection(monkeypatch)
    every, every_diag = pipeline.mode_precursors(BASE.qgrid, BASE.omega_min)
    assert counts == [len(full) - np.count_nonzero(kept)]
    assert every_diag == diag
    assert every.targets == full.targets
    for name in ("omega", "tensors", "weight"):
        assert np.array_equal(getattr(every, name), getattr(full, name))


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
    # the first point fills every cache; the second moves only the
    # temperature and reuses the coupling stack
    assert diags[0]["cache_hits"] == 0
    assert diags[0]["timings_s"]["phonons"] > 0.0
    assert diags[1]["cache_hits"] == 1
    assert diags[1]["timings_s"]["phonons"] == 0.0
    assert diags[1]["timings_s"]["mode_tensors"] == 0.0
    rows = run_sweep(pipeline, SweepPlan(axis="temperature",
                                         values=(40.0,), params=BASE)).rows
    assert set(rows[0].diagnostics["timings_s"]) == set(sweep.STAGES)
    assert rows[0].diagnostics["cache_hits"] == 1


def _need(pipeline, R):
    """``redfield_bytes`` of the point of R, whose coupling stack the
    pipeline holds in its cache."""
    stack = pipeline._stack_cache.stack
    return sweep.redfield_bytes(int(R.clusters.offsets[-1]), len(R.channels),
                                R.dimension,
                                sum(t.basis.shape[0] for t in stack.terms),
                                stack.freqs.size)


def test_point_beyond_memory_fails_before_assembly(soft_pipeline,
                                                   monkeypatch):
    # a d=32 point with all d^2 coherences in one cluster, the 24
    # operators of the pair project and 10^4 mode frequencies, fits
    assert sweep.physical_memory_bytes() > sweep.redfield_bytes(
        32 ** 4, 3, 32, 24, 10 ** 4)
    R = soft_pipeline.redfield(BASE)[0]
    need = _need(soft_pipeline, R)
    passes = []
    real = redfield._term_elements
    monkeypatch.setattr(redfield, "_term_elements",
                        lambda *args: passes.append(1) or real(*args))
    monkeypatch.setattr(sweep, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(CapacityError, match=f"{need / 1e9:.3g} GB"):
        soft_pipeline.relax(BASE)
    # pass 1 found the clusters; pass 2 assembled no element
    assert passes == []
    # with the memory it asks for, pass 2 runs once per term
    monkeypatch.setattr(sweep, "physical_memory_bytes", lambda: need)
    soft_pipeline.relax(BASE)
    assert len(passes) == len(soft_pipeline._stack_cache.stack.terms) == 1


@pytest.mark.parametrize("which", ["vanadyl_fixture", "soft_two_cells"])
def test_pipeline_stacks_match_dense(which, soft_pipeline):
    # terms of 3 (g) and 9 (hyperfine, dipolar) operators as the
    # pipeline builds them: the in-cluster elements, a rate that bounds
    # the dense row sums and the rule's partition at that rate
    if which == "vanadyl_fixture":
        from spinphonon.examples import examples_dir
        crystal, fc, derivs, system, config = load_project(
            f"{examples_dir()}/vanadyl_fixture/config.json")
        pipeline = RelaxationPipeline(crystal, fc, derivs, system)
        params = config.run_params(qgrid=(2, 2, 2))
        d, sizes = 16, {("zeeman", 3), ("hyperfine", 9)}
    else:
        pipeline = soft_pipeline.with_spins(
            *replicated_spin_system(soft_pipeline, 2))
        params = replace(BASE, qgrid=(2, 2, 2))
        d, sizes = 4, {("zeeman", 3), ("dipolar", 9)}
    R, ham, _, _ = pipeline.redfield(params)
    stack = pipeline._stack_cache.stack
    assert ham.dimension == d
    assert {(t.channel, t.basis.shape[0]) for t in stack.terms} == sizes
    pc = PhononCorrelation(sigma=params.sigma,
                           temperature=params.temperature)
    assert_matches_dense(R, dense_redfield(stack, ham, pc))


def test_coupling_stack_holds_no_row_operators():
    from spinphonon.examples import examples_dir
    crystal, fc, derivs, system, config = load_project(
        f"{examples_dir()}/vanadyl_fixture/config.json")
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    stack, _, ham, _ = _stack(pipeline, config.run_params(qgrid=(2, 2, 2)))
    d, rows, F = ham.dimension, len(stack), stack.freqs.size
    assert rows > 0 and len(stack.terms) == 2

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for x in obj:
                yield from arrays(x)
        elif hasattr(obj, "__dict__"):
            yield from arrays(list(vars(obj).values()))

    held = list(arrays(stack))
    # no array with d^2 per row
    assert [a.shape for a in held if a.size >= rows * d * d] == []
    budget = F * 8 + sum(
        (t.omega.size * t.basis.shape[0] + t.basis.shape[0] * d * d) * 16
        + t.omega.size * 8 + F * t.basis.shape[0] ** 2 * 8  # omega, Gram
        for t in stack.terms)
    assert sum(a.nbytes for a in held) <= budget
    # less than the complex rows V alone, which the stack no longer holds
    assert sum(a.nbytes for a in held) < rows * d * d * 16


def _pair_spec(nuclear_spin):
    """The pair project of the benchmark: two S=1/2 electrons on two
    molecules plus a nucleus of spin ``nuclear_spin``, with Zeeman,
    hyperfine and dipolar channels."""
    return ToySpec(lattice=(7.0, 7.0, 7.0), molecules_per_cell=2,
                   atoms_per_molecule=2, mass=120.0, k_intra=1.0,
                   k_inter=0.003, g_baseline=(1.9830, 1.9814, 1.9274),
                   a_baseline=(0.00354, 0.00396, 0.01396),
                   nuclear_spin=nuclear_spin, g_deriv_mag=1e-3,
                   a_deriv_mag=1e-4, spin_molecules=2,
                   dipolar_couplings=True, field_B=(0.0, 0.0, 5.0), seed=1)


PAIR = RunParams(qgrid=(2, 2, 2), sigma=1.0, temperature=20.0)


@pytest.fixture(scope="module")
def pair_pipeline():
    """The d=32 pair project, with an I=7/2 nucleus."""
    return RelaxationPipeline(*generate_toy_crystal(_pair_spec(3.5)))


def _relax_peaks(pipeline, params, monkeypatch):
    """(R, what a cold point's assembly adds to the traced memory at its
    peak, tracemalloc peak of a warm point from the start of its
    assembly to the end of its relax)."""
    import tracemalloc
    assembled, peaks = [], []
    real = sweep.assemble_redfield

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        try:
            assembled.append(real(*args, **kwargs))
            return assembled[-1]
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(sweep, "assemble_redfield", traced)
    try:
        # each point traced from its start: the warm one does not count
        # the caches the cold one made
        for _ in range(2):
            tracemalloc.start()
            try:
                row = pipeline.relax(params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        monkeypatch.setattr(sweep, "assemble_redfield", real)
    assert np.isfinite(row.tau_ms) and row.tau_ms > 0
    return assembled[0], peaks[0], peak


def test_d64_point_holds_only_its_cluster_elements(monkeypatch):
    # the pair project with an I=15/2 nucleus, d = 2 * 2 * 16 = 64 (at
    # 4^3 pass 1 runs over F = 201 mode frequencies), and the d = 32
    # point of the benchmark, with an I=7/2 nucleus
    for nuclear_spin, d, grids in ((7.5, 64, (2, 4)), (3.5, 32, (2,))):
        crystal, fc, derivs, system = generate_toy_crystal(
            _pair_spec(nuclear_spin))
        assert system.dimension == d
        pipeline = RelaxationPipeline(crystal, fc, derivs, system)
        for grid in grids:
            R, cold, warm = _relax_peaks(
                pipeline, replace(PAIR, qgrid=(grid,) * 3), monkeypatch)
            # sum n_c^2 elements, where d^4 is 16.8 million at d = 64
            need = _need(pipeline, R)
            assert need < 100e6
            assert cold < 64e6
            # the estimate covers what a warm point holds from the start
            # of assembly, pass 1 included, to the end of relax
            assert need >= warm, (d, grid)


def test_estimate_covers_the_warm_vanadyl_point(monkeypatch):
    # at 8^3 pass 1 runs over F = 777 mode frequencies, which fill its
    # block of Bohr-frequency columns: the F-sized arrays and numpy's
    # iterator buffer tip the warm peak over an estimate without them
    from spinphonon.examples import examples_dir
    crystal, fc, derivs, system, config = load_project(
        f"{examples_dir()}/vanadyl_fixture/config.json")
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    params = replace(config.run_params(), qgrid=(8, 8, 8))
    R, _, warm = _relax_peaks(pipeline, params, monkeypatch)
    assert pipeline._stack_cache.stack.freqs.size == 777
    assert _need(pipeline, R) >= warm


@pytest.mark.parametrize("example, qgrid", [("vanadyl_fixture", (8, 8, 8)),
                                            ("temperature_sweep", None)])
def test_shipped_fixtures_keep_a_tau_int(example, qgrid):
    from spinphonon.examples import examples_dir
    crystal, fc, derivs, system, config = load_project(
        f"{examples_dir()}/{example}/config.json")
    params = config.run_params()
    if qgrid is not None:
        params = replace(params, qgrid=qgrid)
    point = RelaxationPipeline(crystal, fc, derivs, system).relax(params)
    diag = point.diagnostics
    assert diag["tau_int_error"] is None and not diag["mismatch"]
    tau_int = diag["tau_int_ms"]
    assert np.isfinite(tau_int) and tau_int > 0
    assert diag["solve_residual"] <= 1e-14


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


def test_vanadyl_fixture_reports_its_bohr_clusters(monkeypatch):
    from spinphonon.examples import examples_dir
    from spinphonon.redfield import CLUSTER_GAP_FACTOR
    crystal, fc, derivs, system, config = load_project(
        f"{examples_dir()}/vanadyl_fixture/config.json")
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    params = replace(config.params, qgrid=(8, 8, 8), temperature=20.0)
    calls = []
    real = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    point = pipeline.relax(params)
    monkeypatch.undo()
    diag = point.diagnostics
    assert (diag["bohr_clusters"], diag["largest_cluster"]) == (241, 16)
    assert 0.0 < diag["cluster_gap_ratio"] <= 1.0 / CLUSTER_GAP_FACTOR
    # one stacked eig per distinct size above 1 of the kept clusters
    # (the zero cluster's) for the total, and one for each of the two
    # channels: a tau reads only the zero cluster's size
    R = pipeline.redfield(params)[0]
    sizes = {idx.size for idx in R.clusters.kept if idx.size > 1}
    assert len(point.tau_channel_ms) == 2
    assert len(calls) == len(sizes) + 2
    # tau_int agrees within 5% (3.9%), and the slowest mode is the
    # secular one
    assert not diag["mismatch"]
    assert diag["tau_int_ms"] == pytest.approx(13812.420917, rel=1e-9)
    assert point.tau_ms == pytest.approx(13300.1, rel=1e-5)
    secular = pipeline.relax(replace(params, secular=True)).tau_ms
    assert point.tau_ms == pytest.approx(secular, rel=1e-6)


def test_pair_channel_taus_diagonalise_only_the_zero_cluster(
        pair_pipeline, monkeypatch):
    # the pair project's observable lies almost wholly on the zero
    # cluster, and its best mode there overlaps it more than the whole
    # observable overlaps any other cluster
    calls, extraction = [], []
    real_eig, real_extract = np.linalg.eig, sweep.extract_relaxation_time

    def counted(a, *args, **kwargs):
        calls.append((extraction[-1], a.shape[-1]))
        return real_eig(a, *args, **kwargs)

    def tagged(*args, **kwargs):
        extraction.append(kwargs.get("channels"))
        return real_extract(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    monkeypatch.setattr(sweep, "extract_relaxation_time", tagged)
    point = pair_pipeline.relax(PAIR)
    monkeypatch.undo()
    R = pair_pipeline.redfield(PAIR)[0]
    zero = R.clusters.kept[0].size
    sizes = {idx.size for idx in R.clusters.kept if idx.size > 1}
    assert len(sizes) > 1
    channel_calls = [(ch, n) for ch, n in calls if ch is not None]
    assert sorted(channel_calls) == sorted((ch, zero) for ch in
                                           extraction if ch is not None)
    assert len(channel_calls) == len(R.channels) == 3
    # so does the total's: tau_int needs no other cluster
    assert [n for ch, n in calls if ch is None] == [zero]
    assert set(point.tau_channel_ms) == {"zeeman", "hyperfine", "dipolar"}
    assert point.diagnostics["channel_errors"] == {}


def test_coupling_stack_with_a_non_hermitian_operator_is_rejected(
        pair_pipeline):
    # R_ba,dc = conj R_ab,cd, on which R holds one cluster of each
    # conjugate pair, follows from Hermitian B_k and a symmetric Gram:
    # the stack checks the B_k as it is built
    pair_pipeline.redfield(PAIR)
    stack = pair_pipeline._stack_cache.stack
    for term, W in zip(stack.terms, stack.gram):
        n = term.basis.shape[0]
        W = W.reshape(-1, n, n)
        assert np.array_equal(W, W.transpose(0, 2, 1))
    term = next(t for t in stack.terms if t.channel == "dipolar")
    # B_01 without its twin B_10
    B = term.basis.copy()
    B[0, 0, 1] += 1e-3 * np.max(np.abs(B))
    broken = tuple(t._replace(basis=B) if t is term else t
                   for t in stack.terms)
    with pytest.raises(ValidationError, match="Hermiticity"):
        CouplingStack(broken, stack.dimension)
    # a round-off asymmetry below 1e-12 of max|B| is tolerated
    B = term.basis.copy()
    B[0, 0, 1] += 1e-14 * np.max(np.abs(B))
    CouplingStack(tuple(t._replace(basis=B) if t is term else t
                        for t in stack.terms), stack.dimension)


# -- coupling-stack cache -----------------------------------------------------

TEMPERATURES = tuple(68.0 * 10.0 ** (k / 7) for k in range(8))


def _counted_couplings(monkeypatch):
    """Patches RelaxationPipeline.couplings to record the stack cache of
    each call's pipeline as the call starts; returns that list."""
    seen = []
    real = RelaxationPipeline.couplings

    def counted(self, *args, **kwargs):
        seen.append(self._stack_cache)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RelaxationPipeline, "couplings", counted)
    return seen


def test_temperature_sweep_rows_are_fresh_relax_rows(soft_bundle):
    rows = run_sweep(RelaxationPipeline(*soft_bundle),
                     SweepPlan(axis="temperature", values=TEMPERATURES,
                               params=BASE)).rows
    assert [row.diagnostics["cache_hits"] for row in rows] == [0] + [1] * 7
    for row, T in zip(rows, TEMPERATURES):
        fresh = RelaxationPipeline(*soft_bundle).relax(
            replace(BASE, temperature=T))
        assert row.tau_ms == fresh.tau_ms
        assert row.tau_channel_ms == fresh.tau_channel_ms
        assert row.diagnostics["tau_int_ms"] == fresh.diagnostics["tau_int_ms"]
        skip = ("timings_s", "cache_hits")
        assert ({k: v for k, v in row.diagnostics.items() if k not in skip}
                == {k: v for k, v in fresh.diagnostics.items()
                    if k not in skip})


def test_temperature_sweep_builds_its_stack_once(soft_bundle, monkeypatch):
    seen = _counted_couplings(monkeypatch)
    terms = []
    real_terms = sweep.operator_terms
    monkeypatch.setattr(sweep, "operator_terms",
                        lambda *args: terms.append(1) or real_terms(*args))
    rows = run_sweep(RelaxationPipeline(*soft_bundle),
                     SweepPlan(axis="temperature", values=TEMPERATURES,
                               params=BASE)).rows
    assert all(row.error is None for row in rows)
    # the soft preset has one target: one operator per stack
    assert (len(seen), len(terms)) == (1, 1)
    assert rows[0].diagnostics["timings_s"]["couplings"] > 0.0
    assert rows[0].diagnostics["timings_s"]["hamiltonian"] > 0.0
    for row in rows[1:]:
        timings = row.diagnostics["timings_s"]
        assert (timings["phonons"], timings["mode_tensors"],
                timings["hamiltonian"], timings["couplings"]) == (0.0,) * 4
        assert timings["assembly"] > 0.0


@pytest.mark.parametrize("axis, values", [
    ("field_magnitude", (4.8, 5.0, 5.2)),
    ("sigma", (2.0, 1.5, 1.0)),
    ("qgrid", (2, 3, 4)),
    ("frequency_scale", (0.9, 1.0, 1.1)),
    ("coupling_scale", (0.5, 1.0, 2.0)),
])
def test_other_axes_rebuild_the_stack_at_every_point(axis, values,
                                                     soft_bundle,
                                                     monkeypatch):
    seen = _counted_couplings(monkeypatch)
    rows = run_sweep(RelaxationPipeline(*soft_bundle),
                     SweepPlan(axis=axis, values=values, params=BASE)).rows
    assert all(row.error is None for row in rows)
    assert len(seen) == len(values)
    assert all(row.diagnostics["timings_s"]["couplings"] > 0.0
               for row in rows)


def test_spin_sibling_builds_its_own_stack(soft_bundle, monkeypatch):
    pipeline = RelaxationPipeline(*soft_bundle)
    pipeline.relax(BASE)
    entry = pipeline._stack_cache
    seen = _counted_couplings(monkeypatch)
    for cells in (1, 2):
        sibling = pipeline.with_spins(
            *replicated_spin_system(pipeline, cells))
        assert sibling._stack_cache is None
        row = sibling.relax(BASE)
        assert row.error is None
        stack = sibling._stack_cache.stack
        assert coupling_rows(stack)[2].shape[1:] == (2 * cells, 2 * cells)
    assert len(seen) == 2
    # the parent keeps its own entry and still hits it
    assert pipeline._stack_cache is entry
    assert pipeline.relax(replace(BASE, temperature=70.0)).diagnostics[
        "cache_hits"] == 1
    assert len(seen) == 2


def test_a_rebuild_drops_the_old_stack_first(soft_bundle, monkeypatch):
    pipeline = RelaxationPipeline(*soft_bundle)
    pipeline.relax(BASE)
    assert pipeline._stack_cache is not None
    seen = _counted_couplings(monkeypatch)
    moved = replace(BASE, sigma=2.0)
    pipeline.relax(moved)
    assert seen == [None]
    assert pipeline._stack_cache.key == replace(moved, temperature=0.0)
    # a temperature point of the new key hits it
    pipeline.relax(replace(moved, temperature=80.0))
    assert seen == [None]
