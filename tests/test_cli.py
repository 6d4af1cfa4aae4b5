import csv
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from spinphonon import lattice, sweep
from spinphonon.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE,
                            main)


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


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


def test_relax_writes_tau_fit(vanadyl_config, tmp_path, capsys):
    out = str(tmp_path / "fit")
    assert main(["relax", "--config", vanadyl_config, "--out", out]) == EXIT_OK
    capsys.readouterr()
    row = next(csv.DictReader(open(os.path.join(out, "relax.csv"))))
    doc = json.load(open(os.path.join(out, "relax.json")))
    fit = doc["rows"][0]["diagnostics"]["tau_fit_ms"]
    assert row["tau_fit_ms"] != "" and fit is not None
    assert float(row["tau_fit_ms"]) == float(f"{fit:.9g}")


def test_dos_diagonalises_the_grid_once(tmp_path, monkeypatch, capsys):
    cfg = _toy(tmp_path)
    diagonalised = []
    real = lattice.phonon_spectrum

    def recorded(fc, qpoints):
        diagonalised.append(np.array(qpoints, dtype=float))
        return real(fc, qpoints)

    monkeypatch.setattr(lattice, "phonon_spectrum", recorded)
    monkeypatch.setattr(sweep, "phonon_spectrum", recorded)
    grid = (13, 13, 13)  # 2197 q-points: more than one block
    assert np.prod(grid) > lattice.DOS_QBLOCK
    assert main(["dos", "--config", cfg, "--grid", ",".join(map(str, grid)),
                 "--out", str(tmp_path / "dos")]) == EXIT_OK
    capsys.readouterr()
    # one q-point of each {q, -q} pair, in grid order
    solved = np.concatenate(diagonalised)
    full = sweep.kpoint_grid(*grid)
    index = np.round(solved * 13).astype(int) % 13
    flat = np.ravel_multi_index(index.T, grid)
    partner = np.ravel_multi_index((-index % 13).T, grid)
    assert len(solved) == 1099
    assert np.all(np.diff(flat) > 0)
    assert np.array_equal(solved, full[flat])
    assert np.array_equal(np.sort(np.union1d(flat, partner)),
                          np.arange(len(full)))


def test_relax_records_numerical_health(vanadyl_config, tmp_path, capsys):
    out = str(tmp_path / "health")
    assert main(["relax", "--config", vanadyl_config, "--out", out]) == EXIT_OK
    capsys.readouterr()
    diag = json.load(open(os.path.join(out, "relax.json")))["rows"][0][
        "diagnostics"]
    assert diag["expm_fallback"] is False
    assert 1.0 <= diag["eigvec_cond"] <= 1e10
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
    assert main(["sweep", "--config", cfg, "--grid", "4,4,4",
                 "--out", out]) == EXIT_OK
    capsys.readouterr()
    rows = list(csv.DictReader(
        open(os.path.join(out, "sweep_0_temperature.csv"))))
    assert len(rows) == 2
    assert float(rows[0]["tau_total_ms"]) > float(rows[1]["tau_total_ms"])
    # stage timings go to the JSON rows only, not to new CSV columns
    assert "timings_s" not in rows[0]
    doc = json.load(open(os.path.join(out, "sweep_0_temperature.json")))
    assert [r["diagnostics"]["cache_hits"] for r in doc["rows"]] == [0, 1]
    assert [r["diagnostics"]["fit_error"] for r in doc["rows"]] == [None, None]


def test_perturb_command(tmp_path, capsys):
    cfg = _toy(tmp_path)
    out = str(tmp_path / "pb")
    code = main(["perturb", "--config", cfg, "--grid", "4,4,4",
                 "--kind", "coupling_x2", "--channel", "zeeman",
                 "--out", out])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "0.25" in captured.out


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
                                  ["relax", "--threads", "2"]],
                         ids=["converge_grid", "relax_threads"])
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


def test_relax_flags_a_failed_fit_on_the_pair_project(tmp_path, capsys):
    from spinphonon.toy import ToySpec, write_toy_project
    # the d=32 pair project: two S=1/2 electrons on two molecules plus an
    # I=7/2 nucleus. Its stationary state is physical, but Sz(t) crosses
    # its stationary value, so the exp-fit fails, which is flagged
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
    assert "exp-fit n/a" in capsys.readouterr().out
    row = json.load(open(os.path.join(out, "relax.json")))["rows"][0]
    diag = row["diagnostics"]
    assert diag["fit_error"] is None and diag["tau_fit_ms"] is None
    assert diag["mismatch"] is True and diag["non_exponential"] is True
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


# In a fresh process: RSS in MB before, and after each of two 16 MiB
# arrays is touched and freed, then after six 1 MiB arrays are. Under
# glibc's own rule the first free raises the mmap threshold, so the
# second array comes from the heap and its pages stay resident after it
# is freed; the 1 MiB arrays come from the heap at any threshold, and
# their 6 MiB stay resident under a trim threshold above that.
_FREED_PAGES_PROBE = """
import contextlib, io, os
import numpy as np
from spinphonon.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main([])
def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
out = [rss()]
for _ in range(2):
    a = np.ones(2**21)
    del a
    out.append(rss())
a = [np.ones(2**17) for _ in range(6)]
del a
out.append(rss())
print(*out)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt thresholds are glibc's")
def test_freed_large_arrays_leave_no_resident_pages():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", _FREED_PAGES_PROBE],
                         capture_output=True, text=True, env=env, check=True)
    before, *after = map(float, run.stdout.split())
    assert len(after) == 3 and all(x - before < 2 for x in after)
