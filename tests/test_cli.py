import csv
import json
import os

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
    assert np.array_equal(np.concatenate(diagonalised),
                          sweep.kpoint_grid(*grid))


def test_relax_records_numerical_health(vanadyl_config, tmp_path, capsys):
    out = str(tmp_path / "health")
    assert main(["relax", "--config", vanadyl_config, "--out", out]) == EXIT_OK
    capsys.readouterr()
    diag = json.load(open(os.path.join(out, "relax.json")))["rows"][0][
        "diagnostics"]
    assert diag["expm_fallback"] is False
    assert 1.0 <= diag["eigvec_cond"] <= 1e10


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
