import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spinphonon import cli, lattice, sweep
from spinphonon.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE,
                            main)
from spinphonon.project import load_project
from spinphonon.toy import ToySpec, write_toy_project


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def _answer(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); argparse's own exits
    (help, --version) give ("exit", code)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("verb", list(cli._VERBS))
@pytest.mark.parametrize("tail", [["--help"], ["--bogus", "1"], ["--out"],
                                  ["--config", "c.json", "extra"]])
def test_one_verb_parser_answers_as_the_full_parser(verb, tail, capsys,
                                                    monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda name=None: built.append(name) or real(name))
    one = _answer([verb] + tail, capsys)
    assert built == [verb]
    monkeypatch.setattr(cli, "build_parser", lambda name=None: real())
    assert _answer([verb] + tail, capsys) == one
    assert one[0] in (("exit", 0), EXIT_USAGE)


def test_one_verb_parser_reads_the_full_parsers_arguments():
    argv = ["perturb", "--config", "c.json", "--out", "o", "--grid", "2,3,4",
            "--sigma", "0.5", "--temp", "7", "--field", "0,0,1",
            "--channels", "zeeman", "--secular", "--kind", "freq_x0.8",
            "--channel", "dipolar"]
    assert (vars(cli.build_parser("perturb").parse_args(argv))
            == vars(cli.build_parser().parse_args(argv)))


def test_no_verb_unknown_verb_and_version_use_the_full_parser(capsys):
    verbs = ",".join(cli._VERBS)
    code, out, _ = _answer([], capsys)
    assert code == EXIT_USAGE and "{" + verbs + "}" in out
    for verb, (descr, _) in cli._VERBS.items():
        assert descr in out
    code, _, err = _answer(["frobnicate"], capsys)
    assert code == EXIT_USAGE
    assert "invalid choice: 'frobnicate'" in err
    assert all(f"'{verb}'" in err for verb in cli._VERBS)
    assert _answer(["--version"], capsys) == (
        ("exit", 0), f"spinphonon {cli.__version__}\n", "")
    code, out, _ = _answer(["-h"], capsys)
    assert code == ("exit", 0) and "{" + verbs + "}" in out


def test_toy_names_are_served_from_the_package():
    import spinphonon
    import spinphonon.toy
    from spinphonon import ToySpec, diatomic_chain, generate_toy_crystal
    assert ToySpec is spinphonon.toy.ToySpec
    assert diatomic_chain is spinphonon.toy.diatomic_chain
    assert generate_toy_crystal is spinphonon.toy.generate_toy_crystal
    assert "ToySpec" in dir(spinphonon)
    with pytest.raises(AttributeError, match="no_such_name"):
        spinphonon.no_such_name


def test_bad_grid_argument_is_usage_error(tmp_path, capsys):
    cfg = _toy(tmp_path)
    assert main(["relax", "--config", cfg, "--grid", "4x4"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_config_is_parse_error(tmp_path, capsys):
    assert main(["relax", "--config",
                 str(tmp_path / "nope.json")]) == EXIT_PARSE
    capsys.readouterr()


def test_malformed_config_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["relax", "--config", str(bad)]) == EXIT_PARSE
    capsys.readouterr()


def _toy(tmp_path):
    out = str(tmp_path / "toy")
    assert main(["toygen", "--out", out, "--preset", "soft"]) == EXIT_OK
    return os.path.join(out, "config.json")


def test_toygen_then_relax(tmp_path, capsys):
    cfg = _toy(tmp_path)
    out = str(tmp_path / "results")
    code = main(["relax", "--config", cfg, "--grid", "4,4,4", "--out", out])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "tau" in captured.out
    csv_path = os.path.join(out, "relax.csv")
    assert os.path.exists(csv_path)
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 1
    assert float(rows[0]["tau_total_ms"]) > 0
    doc = json.load(open(os.path.join(out, "relax.json")))
    assert doc["config_hash"]


def test_phonons_and_dos_outputs(tmp_path, capsys):
    cfg = _toy(tmp_path)
    out = str(tmp_path / "ph")
    assert main(["phonons", "--config", cfg, "--grid", "3,3,3",
                 "--out", out]) == EXIT_OK
    assert main(["dos", "--config", cfg, "--grid", "3,3,3",
                 "--out", out]) == EXIT_OK
    capsys.readouterr()
    bands = open(os.path.join(out, "phonons.csv")).read()
    assert bands.startswith("# spinphonon")
    dos = open(os.path.join(out, "dos.csv")).read()
    assert "total" in dos.splitlines()[1]


def test_relax_writes_tau_int(vanadyl_config, tmp_path, capsys):
    out = str(tmp_path / "int")
    assert main(["relax", "--config", vanadyl_config, "--out", out]) == EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    row = next(csv.DictReader(open(os.path.join(out, "relax.csv"))))
    doc = json.load(open(os.path.join(out, "relax.json")))
    tau_int = doc["rows"][0]["diagnostics"]["tau_int_ms"]
    assert row["tau_int_ms"] != "" and tau_int is not None
    assert float(row["tau_int_ms"]) == float(f"{tau_int:.9g}")
    assert first == (f"tau = {doc['rows'][0]['tau_ms']:.9g} ms "
                     f"(tau_int {tau_int:.9g} ms)")
    # the exp-fit's columns are gone
    assert not {"tau_fit_ms", "fit_residual", "non_exponential"} & set(row)


def test_dos_diagonalises_the_grid_once(tmp_path, monkeypatch, capsys):
    cfg = _toy(tmp_path)
    diagonalised = []
    real = lattice.phonon_spectrum

    def recorded(fc, qpoints):
        diagonalised.append(np.array(qpoints, dtype=float))
        return real(fc, qpoints)

    monkeypatch.setattr(lattice, "phonon_spectrum", recorded)
    monkeypatch.setattr(sweep, "phonon_spectrum", recorded)
    monkeypatch.setattr(lattice, "DOS_QBLOCK", 50)  # several blocks
    grid = (13, 13, 13)
    assert main(["dos", "--config", cfg, "--grid", ",".join(map(str, grid)),
                 "--out", str(tmp_path / "dos")]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(diagonalised) > 1

    def grid_index(qpoints):
        return np.round(qpoints * 13).astype(int) % 13

    # the pool's workers record blocks in the order they finish: put them
    # back in q order by the grid index of each block's first q-point
    diagonalised.sort(key=lambda block: tuple(grid_index(block[0])))
    # one q-point of each orbit of the crystal's operations and -E, in
    # grid order
    solved = np.concatenate(diagonalised)
    flat = np.ravel_multi_index(grid_index(solved).T, grid)
    crystal, fc, *_ = load_project(cfg)
    rotations, *_ = lattice.symmetry_rotations(
        lattice.enforce_acoustic_sum_rule(fc))
    qpts, weights = sweep.kpoint_orbits(*grid, rotations)
    assert len(rotations) == 16  # D4h of the diatomic in a cubic cell
    assert np.all(np.diff(flat) > 0)
    assert np.array_equal(solved, qpts)
    assert weights.sum() == np.prod(grid)
    assert (f"; symmetry_ops 16 irreducible_q {len(qpts)}/2197; "
            in out)


def test_dos_of_the_debye_crystal_matches_the_full_grid(tmp_path,
                                                        monkeypatch, capsys):
    # the criterion-07 crystal keeps its six axis permutations through
    # the project files, so the 32^3 grid falls to 3009 q-points
    project = str(tmp_path / "debye")
    write_toy_project(project, ToySpec(atoms_per_molecule=4, mass=20.0,
                                       k_intra=2.0, k_inter=0.15, seed=3))
    cfg = os.path.join(project, "config.json")
    curves = []

    def recorded(*args):
        curves.append(lattice.phonon_dos(*args))
        return curves[-1]

    monkeypatch.setattr(cli, "phonon_dos", recorded)
    assert main(["dos", "--config", cfg, "--grid", "32,32,32", "--sigma",
                 "1.0", "--out", str(tmp_path / "dos")]) == EXIT_OK
    assert ("; symmetry_ops 6 irreducible_q 3009/32768; "
            in capsys.readouterr().out)
    _, fc, *_ = load_project(cfg)
    full = lattice.phonon_dos(lattice.enforce_acoustic_sum_rule(fc),
                              sweep.kpoint_grid(32, 32, 32), 1.0)
    dos, = curves
    assert np.array_equal(dos.frequency, full.frequency)
    for name in ("total", "translational", "rotational", "intra"):
        want = getattr(full, name)
        assert (np.max(np.abs(getattr(dos, name) - want))
                <= 1e-12 * np.max(want))
    assert dos.imaginary_modes == full.imaginary_modes


def test_relax_records_numerical_health(vanadyl_config, tmp_path, capsys):
    out = str(tmp_path / "health")
    assert main(["relax", "--config", vanadyl_config, "--out", out]) == EXIT_OK
    line, = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("timings_s ")]
    assert all(f" {stage} " in line for stage in sweep.STAGES)
    # a 4^3 grid seeks no operation (sweep.SYMMETRY_MIN_Q)
    assert ("; cache_hits 0; symmetry_ops n/a irreducible_q 36/36; "
            "bohr_clusters " in line)
    diag = json.load(open(os.path.join(out, "relax.json")))["rows"][0][
        "diagnostics"]
    assert 1.0 <= diag["eigvec_cond"] <= 1e10
    assert 0.0 <= diag["solve_residual"] <= 1e-14
    assert diag["min_rho_eigenvalue"] > 0.0
    # and prints it on the summary line
    assert line.endswith(f"; eigvec_cond {diag['eigvec_cond']:.4g} "
                         f"min_rho_eigenvalue {diag['min_rho_eigenvalue']:.4g}"
                         f" solve_residual {diag['solve_residual']:.4g}")
    assert set(diag["timings_s"]) == set(sweep.STAGES)
    assert all(t >= 0.0 for t in diag["timings_s"].values())
    assert diag["cache_hits"] == 0


def test_relax_beyond_memory_is_capacity_error(tmp_path, monkeypatch,
                                               capsys):
    cfg = _toy(tmp_path)
    monkeypatch.setattr(sweep, "physical_memory_bytes", lambda: 100)
    assert main(["relax", "--config", cfg, "--grid", "2,2,2",
                 "--out", str(tmp_path / "r")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "needs about" in err and "physical memory" in err
    assert not os.path.exists(tmp_path / "r" / "relax.json")


def test_unknown_channel_is_usage_error(vanadyl_config, tmp_path, capsys):
    out = str(tmp_path / "ch")
    assert main(["relax", "--config", vanadyl_config, "--channels",
                 "zeeman,zeman", "--out", out]) == EXIT_USAGE
    assert "zeman" in capsys.readouterr().err
    assert not os.path.exists(out)
    # a known channel without derivative records is a numerical failure
    assert main(["relax", "--config", vanadyl_config, "--channels",
                 "dipolar", "--out", out]) == EXIT_NUMERICAL
    assert "Redfield tensor is zero" in capsys.readouterr().err


_ZEMAN_PLAN = {"axis": "coupling_scale", "values": [2.0], "channel": "zeman"}


@pytest.mark.parametrize("argv, plan, code, named", [
    (["perturb", "--kind", "coupling_x2", "--channel", "zeman"], None,
     EXIT_USAGE, "zeman"),
    (["relax"], _ZEMAN_PLAN, EXIT_PARSE, "zeman"),
    (["relax", "--temp", "-1"], None, EXIT_USAGE, "temperature"),
    (["relax", "--sigma", "0"], None, EXIT_USAGE, "sigma"),
    (["relax", "--grid", "0"], None, EXIT_USAGE, "qgrid"),
    (["relax", "--channels", "zeeman,zeman"], None, EXIT_USAGE, "zeman"),
], ids=["perturb_channel", "sweep_channel", "temp", "sigma", "grid",
        "channels"])
def test_bad_run_point_exits_before_any_point(argv, plan, code, named,
                                              vanadyl_config, tmp_path,
                                              capsys):
    cfg = vanadyl_config
    if plan is not None:
        # a bad sweep plan fails every verb when the config loads
        doc = json.load(open(cfg))
        base = os.path.dirname(cfg)
        doc["crystal"] = os.path.join(base, doc["crystal"])
        doc["force_constants"] = os.path.join(base, doc["force_constants"])
        doc["derivatives"] = [os.path.join(base, p)
                              for p in doc["derivatives"]]
        doc["sweeps"] = [plan]
        cfg = str(tmp_path / "config.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
    out = str(tmp_path / "out")
    assert main(argv + ["--config", cfg, "--out", out]) == code
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


def test_couple_output(tmp_path, capsys):
    cfg = _toy(tmp_path)
    out = str(tmp_path / "cp")
    assert main(["couple", "--config", cfg, "--grid", "3,3,3",
                 "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "couplings.csv"))


def test_sweep_writes_rows(tmp_path, capsys):
    cfg = _toy(tmp_path)
    doc = json.load(open(cfg))
    doc["sweeps"] = [{"axis": "temperature", "values": [50.0, 100.0]}]
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--grid", "8,8,8",
                 "--out", out]) == EXIT_OK
    line, = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("sweep 0 ")]
    assert line.startswith("sweep 0 (temperature): 2 points, 0 failed; "
                           "timings_s phonons ")
    assert all(f" {stage} " in line for stage in sweep.STAGES)
    assert line.endswith("; cache_hits 1; "
                         "symmetry_ops 16 irreducible_q 75/260")
    rows = list(csv.DictReader(
        open(os.path.join(out, "sweep_0_temperature.csv"))))
    assert len(rows) == 2
    assert float(rows[0]["tau_total_ms"]) > float(rows[1]["tau_total_ms"])
    # stage timings go to the JSON rows only, not to new CSV columns
    assert "timings_s" not in rows[0]
    doc = json.load(open(os.path.join(out, "sweep_0_temperature.json")))
    assert [r["diagnostics"]["cache_hits"] for r in doc["rows"]] == [0, 1]
    assert [r["diagnostics"]["tau_int_error"]
            for r in doc["rows"]] == [None, None]


def test_relax_sweep_and_dos_print_one_load_line(tmp_path, capsys):
    cfg = _toy(tmp_path)
    doc = json.load(open(cfg))
    doc["sweeps"] = [{"axis": "temperature", "values": [50.0, 100.0]}]
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    for verb in ("relax", "sweep", "dos"):
        assert main([verb, "--config", cfg, "--grid", "3,3,3",
                     "--out", str(tmp_path / verb)]) == EXIT_OK
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("load_s ")]
        _, seconds = line.split()
        assert float(seconds) >= 0.0


def test_perturb_command(tmp_path, capsys):
    cfg = _toy(tmp_path)
    out = str(tmp_path / "pb")
    code = main(["perturb", "--config", cfg, "--grid", "4,4,4",
                 "--kind", "coupling_x2", "--channel", "zeeman",
                 "--out", out])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "0.25" in captured.out


def test_converge_command(tmp_path, capsys):
    cfg = _toy(tmp_path)
    out = str(tmp_path / "cv")
    code = main(["converge", "--config", cfg, "--out", out])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "wrote" in captured.out
    doc = json.load(open(os.path.join(out, "converge.json")))
    assert doc["config_hash"]
    report = doc["report"]
    assert [entry["sigma"] for entry in report] == [4.0, 2.0, 1.0]
    for entry in report:
        assert len(entry["tau_ms"]) == len(entry["grids"]) >= 2
        assert all(np.isfinite(tau) and tau > 0 for tau in entry["tau_ms"])


def test_run_examples_filter(capsys):
    assert main(["run-examples", "--filter", "golden"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "golden" in captured.out
    assert main(["run-examples", "--filter", "no-such"]) == EXIT_USAGE
    capsys.readouterr()


def test_seed_is_only_a_toygen_flag(tmp_path, capsys):
    cfg = _toy(tmp_path)
    assert main(["relax", "--config", cfg, "--seed", "1"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["converge", "--grid", "4"],
                                  ["relax", "--threads", "2"],
                                  # sweep points run one after another
                                  ["sweep", "--threads", "2"]],
                         ids=["converge_grid", "relax_threads",
                              "sweep_threads"])
def test_a_verb_rejects_the_flags_it_ignores(argv, tmp_path, capsys):
    cfg = _toy(tmp_path)
    out = str(tmp_path / "out")
    assert main(argv + ["--config", cfg, "--out", out]) == EXIT_USAGE
    assert argv[1] in capsys.readouterr().err
    assert not os.path.exists(out)


def test_phonons_reads_gamma_from_the_grid(tmp_path, monkeypatch, capsys):
    cfg = _toy(tmp_path)
    calls = []
    real = lattice.dynamical_matrices

    def recorded(fc, qpoints):
        calls.append(len(qpoints))
        return real(fc, qpoints)

    monkeypatch.setattr(lattice, "dynamical_matrices", recorded)
    assert main(["phonons", "--config", cfg, "--grid", "3,3,3",
                 "--out", str(tmp_path / "ph")]) == EXIT_OK
    out = capsys.readouterr().out
    assert calls == [27]
    assert "Gamma acoustic frequencies" in out


def _append_records(cfg, lines):
    path = os.path.join(os.path.dirname(cfg), "force_constants.dat")
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def test_relax_rejects_asymmetric_force_constants(tmp_path, capsys):
    cfg = _toy(tmp_path)
    # Phi_0x,0y(l) gains 0.01 at l=(1,0,0) and loses it at l=0: the sum
    # rule still holds, but Phi_0x,0y(l) != Phi_0y,0x(-l)
    _append_records(cfg, ["1 0 0 0 0 0 1 0.01", "0 0 0 0 0 0 1 -0.01"])
    assert main(["relax", "--config", cfg, "--grid", "2,2,2",
                 "--out", str(tmp_path / "r")]) == EXIT_PARSE
    assert "asymmetry" in capsys.readouterr().err


def test_overflowing_lattice_vector_is_parse_error(tmp_path, capsys):
    cfg = _toy(tmp_path)
    _append_records(cfg, ["99999999999999999999 0 0 0 0 0 0 1.0"])
    assert main(["phonons", "--config", cfg, "--grid", "2,2,2",
                 "--out", str(tmp_path / "ph")]) == EXIT_PARSE
    assert "out of range" in capsys.readouterr().err


def test_relax_flags_a_mismatch_on_the_pair_project(tmp_path, capsys):
    from spinphonon.toy import ToySpec, write_toy_project
    # the d=32 pair project: two S=1/2 electrons on two molecules plus an
    # I=7/2 nucleus. Its stationary state is physical, but part of the
    # first center's Sz decays in modes far faster than the slowest
    # one, so tau_int is 57% below tau, which is flagged
    spec = ToySpec(lattice=(7.0, 7.0, 7.0), molecules_per_cell=2,
                   atoms_per_molecule=2, mass=120.0, k_intra=1.0,
                   k_inter=0.003, g_baseline=(1.9830, 1.9814, 1.9274),
                   a_baseline=(0.00354, 0.00396, 0.01396), nuclear_spin=3.5,
                   g_deriv_mag=1e-3, a_deriv_mag=1e-4, spin_molecules=2,
                   dipolar_couplings=True, field_B=(0.0, 0.0, 5.0), seed=1)
    cfg = write_toy_project(str(tmp_path / "pair"), spec, qgrid=(2, 2, 2),
                            sigma=1.0, temperature=20.0)
    out = str(tmp_path / "r")
    assert main(["relax", "--config", cfg, "--out", out]) == EXIT_OK
    assert "(tau_int 16611.6887 ms)" in capsys.readouterr().out
    row = json.load(open(os.path.join(out, "relax.json")))["rows"][0]
    diag = row["diagnostics"]
    assert diag["tau_int_error"] is None
    assert diag["tau_int_ms"] == pytest.approx(16611.688711, rel=1e-9)
    assert diag["mismatch"] is True
    assert 0.0 <= diag["solve_residual"] <= 1e-14
    assert row["tau_ms"] == pytest.approx(38561.0, rel=1e-4)
    assert set(row["tau_channel_ms"]) == {"zeeman", "hyperfine", "dipolar"}
    assert all(np.isfinite(t) and t > 0
               for t in row["tau_channel_ms"].values())
    assert diag["min_rho_eigenvalue"] >= -1e-8
    assert (diag["bohr_clusters"], diag["largest_cluster"]) == (407, 32)
    assert 0.0 < diag["cluster_gap_ratio"] <= 0.01


def _sweep_config(tmp_path, values):
    cfg = _toy(tmp_path)
    doc = json.load(open(cfg))
    doc["sweeps"] = [{"axis": "qgrid", "values": values}]
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    return cfg


def test_qgrid_sweep_takes_triples(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, [[2, 2, 2], [3, 2, 2]])
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    rows = list(csv.DictReader(open(os.path.join(out, "sweep_0_qgrid.csv"))))
    assert [r["axis"] for r in rows] == ["2x2x2", "3x2x2"]
    assert all(r["error"] == "" for r in rows)
    doc = json.load(open(os.path.join(out, "sweep_0_qgrid.json")))
    assert [r["value"] for r in doc["rows"]] == [[2, 2, 2], [3, 2, 2]]


def test_qgrid_sweep_rejects_a_fractional_grid(tmp_path, capsys):
    # 4.5 is not truncated to 4: its row fails and names the field
    cfg = _sweep_config(tmp_path, [2, 4.5])
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    rows = list(csv.DictReader(open(os.path.join(out, "sweep_0_qgrid.csv"))))
    assert [r["axis"] for r in rows] == ["2", "4.5"]
    assert rows[0]["error"] == ""
    assert rows[1]["error"].startswith("ValidationError: qgrid must be")
    assert rows[1]["tau_total_ms"] == "nan"


def test_geometry_couplings_are_not_a_config_key(tmp_path, capsys):
    cfg = _toy(tmp_path)
    doc = json.load(open(cfg))
    doc["spin_system"]["couplings"] = [{"i": 0, "j": 0,
                                        "from_geometry": True}]
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert main(["relax", "--config", cfg, "--grid", "2,2,2",
                 "--out", str(tmp_path / "r")]) == EXIT_PARSE
    assert "from_geometry" in capsys.readouterr().err


# In a fresh process: the relax of the shipped vanadyl fixture at 8^3,
# which propagates nothing (scipy's expm serves only propagate), loads no
# part of scipy, nor the toy generator, which only toygen uses.
_COLD_RELAX_PROBE = """
import contextlib, io, sys
from spinphonon.cli import main
from spinphonon.examples import examples_dir
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["relax", "--config",
                 f"{examples_dir()}/vanadyl_fixture/config.json",
                 "--grid", "8,8,8", "--out", sys.argv[1]])
assert code == 0, code
assert "scipy" not in sys.modules, sorted(m for m in sys.modules
                                          if m.startswith("scipy"))
assert "spinphonon.toy" not in sys.modules
"""


def test_cold_relax_does_not_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", _COLD_RELAX_PROBE,
                    str(tmp_path / "out")], env=env, check=True)
