import csv
import io
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from spinphonon.coupling import DerivativeScan, fit_derivative_scan
from spinphonon.errors import (ConfigError, ParseError, SumRuleError,
                               UnitTagError, ValidationError)
from spinphonon.project import (RESULT_CSV_COLUMNS, _fmt9, load_config,
                                load_crystal, load_derivatives,
                                load_force_constants, load_project,
                                load_results, serialize_crystal,
                                serialize_derivatives,
                                serialize_force_constants, write_bands_csv,
                                write_coupling_csv, write_dos_csv,
                                write_results)
from spinphonon.sweep import SweepResult, SweepRow
from spinphonon.version import __version__


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _assert_located(exc, message, path, line, offset):
    """``exc`` is the ParseError ``message`` at ``line`` and byte
    ``offset`` of ``path``, exactly."""
    assert str(exc) == f"{message} ({path}, line {line}, byte offset {offset})"
    assert (exc.path, exc.line, exc.offset) == (path, line, offset)


# -- crystal ----------------------------------------------------------------

def test_crystal_round_trip(tmp_path, soft_bundle):
    crystal = soft_bundle[0]
    path = _write(tmp_path, "c.json", json.dumps(serialize_crystal(crystal)))
    back = load_crystal(path)
    assert np.array_equal(back.cell, crystal.cell)
    assert back.n_atoms == crystal.n_atoms
    for a, b in zip(back.atoms, crystal.atoms):
        assert a.element == b.element and a.mass == b.mass
        assert np.array_equal(a.frac, b.frac) and a.molecule == b.molecule


def test_crystal_missing_units_block(tmp_path, soft_bundle):
    doc = serialize_crystal(soft_bundle[0])
    del doc["units"]
    path = _write(tmp_path, "c.json", json.dumps(doc))
    with pytest.raises(UnitTagError):
        load_crystal(path)


def test_crystal_wrong_unit_tag(tmp_path, soft_bundle):
    doc = serialize_crystal(soft_bundle[0])
    doc["units"]["length"] = "bohr"
    path = _write(tmp_path, "c.json", json.dumps(doc))
    with pytest.raises(UnitTagError):
        load_crystal(path)


def test_crystal_unknown_key_rejected(tmp_path, soft_bundle):
    doc = serialize_crystal(soft_bundle[0])
    doc["pressure"] = 1.0
    path = _write(tmp_path, "c.json", json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_crystal(path)
    assert "pressure" in str(exc.value)


def test_crystal_invalid_json_reports_location(tmp_path):
    path = _write(tmp_path, "c.json", '{"cell": [1, 2,\n')
    with pytest.raises(ParseError) as exc:
        load_crystal(path)
    _assert_located(exc.value, "invalid JSON: Expecting value", path, 2, 16)


# -- force constants ----------------------------------------------------------

def test_force_constants_round_trip(tmp_path, soft_bundle):
    crystal, fc = soft_bundle[0], soft_bundle[1]
    path = _write(tmp_path, "fc.dat", serialize_force_constants(fc))
    back = load_force_constants(path, crystal)
    assert back.n_records == fc.n_records
    assert np.array_equal(np.asarray(back.values), np.asarray(fc.values))
    assert np.array_equal(np.asarray(back.lvecs), np.asarray(fc.lvecs))


def test_force_constants_field_count_error_has_location(tmp_path, soft_bundle):
    text = "# comment\n0 0 0 0 0 0 0 1.0\n0 0 0 0 0 0 1.0\n"
    path = _write(tmp_path, "fc.dat", text)
    with pytest.raises(ParseError) as exc:
        load_force_constants(path, soft_bundle[0])
    _assert_located(exc.value, "force-constant record needs 8 fields, got 7",
                    path, 3, len("# comment\n0 0 0 0 0 0 0 1.0\n"))


def test_force_constants_bad_number(tmp_path, soft_bundle):
    path = _write(tmp_path, "fc.dat", "0 0 0 0 0 0 0 abc\n")
    with pytest.raises(ParseError) as exc:
        load_force_constants(path, soft_bundle[0])
    _assert_located(exc.value, "bad number for force constant: 'abc'",
                    path, 1, 0)


def test_force_constants_index_out_of_range(tmp_path, soft_bundle):
    n = soft_bundle[0].n_atoms
    path = _write(tmp_path, "fc.dat", "0 0 0 0 0 999 0 1.0\n")
    with pytest.raises(ParseError) as exc:
        load_force_constants(path, soft_bundle[0])
    _assert_located(exc.value, f"atom index out of range (n_atoms={n})",
                    path, 1, 0)
    path = _write(tmp_path, "fc2.dat", "0 0 0 0 5 0 0 1.0\n")
    with pytest.raises(ParseError) as exc:
        load_force_constants(path, soft_bundle[0])
    _assert_located(exc.value, "Cartesian component must be 0, 1 or 2",
                    path, 1, 0)


def test_force_constants_lattice_vector_overflow(tmp_path, soft_bundle):
    text = "0 0 0 0 0 0 0 1.0\n99999999999999999999 0 0 0 0 0 0 1.0\n"
    path = _write(tmp_path, "fc.dat", text)
    with pytest.raises(ParseError) as exc:
        load_force_constants(path, soft_bundle[0])
    _assert_located(exc.value, "integer for lattice vector out of range: "
                    "'99999999999999999999'", path, 2,
                    len("0 0 0 0 0 0 0 1.0\n"))


def test_force_constants_empty_file(tmp_path, soft_bundle):
    path = _write(tmp_path, "fc.dat", "# only a comment\n")
    with pytest.raises(ParseError):
        load_force_constants(path, soft_bundle[0])


# -- derivatives --------------------------------------------------------------

def test_derivatives_round_trip(tmp_path, soft_bundle):
    crystal, derivs = soft_bundle[0], soft_bundle[2]
    path = _write(tmp_path, "d.dat", serialize_derivatives(derivs))
    back = load_derivatives(path, crystal)
    assert back.n_records == derivs.n_records
    assert list(back.targets) == list(derivs.targets)
    assert np.array_equal(back.tensors, derivs.tensors)


def test_derivative_scan_block_is_fitted_on_load(tmp_path, soft_bundle):
    crystal = soft_bundle[0]
    x = np.linspace(-0.05, 0.05, 10)
    y = 0.2 - 1.3 * x + 0.7 * x**2 + 2.0 * x**3 - 5.0 * x**4
    lines = ["scan g:0 0 1 0 0 0"]
    for xi, yi in zip(x, y):
        comps = (f"{float(yi)!r} 0 0 0 {float(2 * yi)!r} 0 0 0 "
                 f"{float(-yi)!r}")
        lines.append(f"{float(xi)!r} {comps}")
    path = _write(tmp_path, "d.dat", "\n".join(lines) + "\n")
    back = load_derivatives(path, crystal)
    assert back.n_records == 1
    assert back.targets[0] == ("g", 0)
    assert back.s[0] == 1
    tens = np.stack([np.diag([yi, 2 * yi, -yi]) for yi in y])
    scan = DerivativeScan(target=("g", 0), atom=0, direction=1,
                          displacements=x, tensors=tens)
    expected, _ = fit_derivative_scan(scan)
    assert np.allclose(back.tensors[0], expected, atol=1e-12)
    assert back.provenance[0].startswith("scan-fit:")


def test_truncated_scan_block_rejected(tmp_path, soft_bundle):
    text = "scan g:0 0 0 0 0 0\n-0.05 1 0 0 0 1 0 0 0 1\n"
    path = _write(tmp_path, "d.dat", text)
    with pytest.raises(ParseError) as exc:
        load_derivatives(path, soft_bundle[0])
    _assert_located(exc.value, "truncated scan block at end of file",
                    path, 1, 0)


@pytest.mark.parametrize("x, reason", [
    (np.linspace(0.01, 0.1, 10), "span zero"),
    (np.repeat([-0.02, -0.01, 0.01, 0.02], [3, 3, 2, 2]), "5 distinct"),
])
def test_invalid_scan_block_is_parse_error(tmp_path, soft_bundle, x, reason):
    # the scan header is on line 3; each row's tensor is x * identity
    lines = ["# comment", "", "scan g:0 0 1 0 0 0"]
    lines += [f"{v!r} {v!r} 0 0 0 {v!r} 0 0 0 {v!r}" for v in x.tolist()]
    path = _write(tmp_path, "d.dat", "\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_derivatives(path, soft_bundle[0])
    assert reason in str(exc.value)
    assert exc.value.line == 3


def test_derivative_lattice_vector_overflow(tmp_path, soft_bundle):
    path = _write(tmp_path, "d.dat",
                  "g:0 0 0 0 -99999999999999999999 0 1 0 0 0 1 0 0 0 1\n")
    with pytest.raises(ParseError) as exc:
        load_derivatives(path, soft_bundle[0])
    _assert_located(exc.value, "integer for lattice vector out of range: "
                    "'-99999999999999999999'", path, 1, 0)


def test_bad_tensor_id_rejected(tmp_path, soft_bundle):
    path = _write(tmp_path, "d.dat",
                  "q:0 0 0 0 0 0 1 0 0 0 1 0 0 0 1\n")
    with pytest.raises(ParseError) as exc:
        load_derivatives(path, soft_bundle[0])
    _assert_located(exc.value, "bad tensor id 'q:0' (expect g:<id>, "
                    "A:<i>:<j> or dip:<i>:<j>)", path, 1, 0)


def test_derivative_record_field_count(tmp_path, soft_bundle):
    path = _write(tmp_path, "d.dat", "g:0 0 0 0 0 0 1 0 0\n")
    with pytest.raises(ParseError) as exc:
        load_derivatives(path, soft_bundle[0])
    _assert_located(exc.value, "derivative record needs 15 fields, got 9",
                    path, 1, 0)


_FC_OK = "0 0 0 0 0 0 0 1.0"
_DERIV_OK = "g:0 0 0 0 0 0 1 0 0 0 1 0 0 0 1"
_SCAN = "scan g:0 0 1 0 0 0"
_SCAN_ROW = "0.01 1 0 0 0 1 0 0 0 1"


# One single-fault line per check, after a comment and a good record so
# that line and byte offset are not the defaults; "{n}" is n_atoms. The
# cases the tests above pin are not repeated here.
@pytest.mark.parametrize("loader, lines, message", [
    ("fc", [_FC_OK, "0 x 0 0 0 0 0 1.0"],
     "bad integer for lattice vector: 'x'"),
    ("fc", [_FC_OK, "0 0 0 99999999999999999999 0 0 0 1.0"],
     "integer for atom i out of range: '99999999999999999999'"),
    ("fc", [_FC_OK, "0 0 0 0 0 0 0 nan"],
     "non-finite value for force constant"),
    ("fc", [_FC_OK, "0 0 0 -1 0 0 0 1.0"],
     "atom index out of range (n_atoms={n})"),
    ("fc", [_FC_OK, "0 0 0 0 0 0 3 1.0"],
     "Cartesian component must be 0, 1 or 2"),
    ("deriv", [_DERIV_OK, "g:0 x 0 0 0 0 1 0 0 0 1 0 0 0 1"],
     "bad integer for atom: 'x'"),
    ("deriv", [_DERIV_OK,
               "A:0:99999999999999999999 0 0 0 0 0 1 0 0 0 1 0 0 0 1"],
     "integer for center id out of range: '99999999999999999999'"),
    ("deriv", [_DERIV_OK, "g:0 0 0 0 0 0 1 0 0 0 abc 0 0 0 1"],
     "bad number for tensor component: 'abc'"),
    ("deriv", [_DERIV_OK, "g:0 0 0 0 0 0 1 0 0 0 inf 0 0 0 1"],
     "non-finite value for tensor component"),
    ("deriv", [_DERIV_OK, "g:0 999 0 0 0 0 1 0 0 0 1 0 0 0 1"],
     "atom index out of range (n_atoms={n})"),
    ("deriv", [_DERIV_OK, "g:0 0 3 0 0 0 1 0 0 0 1 0 0 0 1"],
     "Cartesian component must be 0, 1 or 2"),
    ("deriv", [_DERIV_OK, "scan g:0 0 1 0 0"],
     "scan header needs 7 fields: scan tensor_id atom s l1 l2 l3"),
    ("deriv", [_DERIV_OK, "scan dip:0 0 1 0 0 0"],
     "bad tensor id 'dip:0' (expect g:<id>, A:<i>:<j> or dip:<i>:<j>)"),
    ("deriv", [_DERIV_OK, "scan g:0 0 1 0 0 1.5"],
     "bad integer for lattice vector: '1.5'"),
    ("deriv", [_DERIV_OK, "scan g:0 0 1 0 0 99999999999999999999"],
     "integer for lattice vector out of range: '99999999999999999999'"),
    ("deriv", [_DERIV_OK, "scan g:0 999 1 0 0 0"],
     "atom index out of range (n_atoms={n})"),
    ("deriv", [_DERIV_OK, "scan g:0 0 -1 0 0 0"],
     "Cartesian component must be 0, 1 or 2"),
    ("deriv", [_SCAN, _SCAN_ROW, "0.02 1 0 0 0 1 0 0 1"],
     "scan row needs 10 fields (displacement + 9 components), got 9"),
    ("deriv", [_SCAN, _SCAN_ROW, "0.02 1 0 0 0 x 0 0 0 1"],
     "bad number for tensor component: 'x'"),
    ("deriv", [_SCAN, _SCAN_ROW, "nan 1 0 0 0 1 0 0 0 1"],
     "non-finite value for displacement"),
    # too few scan rows: the next record is read as a scan row
    ("deriv", [_SCAN] + [_SCAN_ROW] * 4 + [_DERIV_OK],
     "scan row needs 10 fields (displacement + 9 components), got 15"),
])
def test_parse_error_message_and_location(tmp_path, soft_bundle, loader,
                                          lines, message):
    """The last line holds the one fault; its ParseError is pinned."""
    crystal = soft_bundle[0]
    head = "# pinned\n" + "".join(ln + "\n" for ln in lines[:-1])
    path = _write(tmp_path, "data.dat", head + lines[-1] + "\n")
    load = load_force_constants if loader == "fc" else load_derivatives
    with pytest.raises(ParseError) as exc:
        load(path, crystal)
    _assert_located(exc.value, message.format(n=crystal.n_atoms), path,
                    len(lines) + 1, len(head.encode()))


# -- config and project -------------------------------------------------------

def test_invalid_config_json_reports_location(tmp_path):
    path = _write(tmp_path, "config.json",
                  '{\n "crystal": "c.json",\n oops\n}\n')
    with pytest.raises(ParseError) as exc:
        load_config(path)
    _assert_located(exc.value, "invalid JSON: Expecting property name "
                    "enclosed in double quotes", path, 3, 25)


def test_load_config_and_hash_stability(vanadyl_config):
    cfg1 = load_config(vanadyl_config)
    cfg2 = load_config(vanadyl_config)
    assert cfg1.config_hash == cfg2.config_hash
    assert len(cfg1.config_hash) == 12
    assert cfg1.params.qgrid == (4, 4, 4)
    assert cfg1.params.sigma == 1.0
    assert cfg1.params.temperature == 20.0


def test_load_project_vanadyl_dimension(vanadyl_config):
    crystal, fc, derivs, system, config = load_project(vanadyl_config)
    assert system.dimension == 16
    assert fc.sum_rule_residual() <= 1e-6
    assert derivs.n_records > 0
    assert {c.kind for c in system.centers} == {"electronic", "nuclear"}


def test_config_unknown_key(tmp_path, vanadyl_config):
    doc = json.load(open(vanadyl_config))
    doc["grid"] = [4, 4, 4]
    base = os.path.dirname(vanadyl_config)
    doc["crystal"] = os.path.join(base, "crystal.json")
    doc["force_constants"] = os.path.join(base, "force_constants.dat")
    doc["derivatives"] = [os.path.join(base, "derivatives.dat")]
    path = _write(tmp_path, "config.json", json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "grid" in str(exc.value)


def _patched_config(tmp_path, vanadyl_config, **patch):
    doc = json.load(open(vanadyl_config))
    base = os.path.dirname(vanadyl_config)
    doc["crystal"] = os.path.join(base, "crystal.json")
    doc["force_constants"] = os.path.join(base, "force_constants.dat")
    doc["derivatives"] = [os.path.join(base, "derivatives.dat")]
    doc.update(patch)
    return _write(tmp_path, "config.json", json.dumps(doc))


def test_config_validation_errors(tmp_path, vanadyl_config):
    with pytest.raises(ConfigError):
        load_config(_patched_config(tmp_path, vanadyl_config, sigma_cm1=-1.0))
    # a JSON bool or string is not a number, though float() reads both
    for key, name, value in (("temperature_K", "temperature", True),
                             ("sigma_cm1", "sigma", "2")):
        with pytest.raises(ConfigError, match=name):
            load_config(_patched_config(tmp_path, vanadyl_config,
                                        **{key: value}))
    with pytest.raises(ConfigError):
        load_config(_patched_config(tmp_path, vanadyl_config,
                                    qgrid=[4, 4]))
    with pytest.raises(ConfigError):
        load_config(_patched_config(tmp_path, vanadyl_config,
                                    channels=["magic"]))
    with pytest.raises(ConfigError):
        load_config(_patched_config(tmp_path, vanadyl_config,
                                    crystal="/nonexistent/c.json"))
    with pytest.raises(ConfigError):
        load_config(_patched_config(
            tmp_path, vanadyl_config,
            sweeps=[{"axis": "voltage", "values": [1]}]))


def test_sum_rule_error_and_enforcement(tmp_path, vanadyl_config):
    base = os.path.dirname(vanadyl_config)
    fc_text = open(os.path.join(base, "force_constants.dat")).read()
    lines = fc_text.strip().split("\n")
    # corrupt the first data record's value
    for k, ln in enumerate(lines):
        if not ln.startswith("#"):
            tok = ln.split()
            tok[7] = repr(float(tok[7]) + 0.05)
            lines[k] = " ".join(tok)
            break
    bad_fc = _write(tmp_path, "fc_bad.dat", "\n".join(lines) + "\n")
    path = _patched_config(tmp_path, vanadyl_config, force_constants=bad_fc)
    with pytest.raises(SumRuleError):
        load_project(path)
    path2 = _patched_config(tmp_path, vanadyl_config, force_constants=bad_fc,
                            enforce_sum_rule=True)
    _, fc, _, _, _ = load_project(path2)
    assert fc.sum_rule_residual() < 1e-12


def test_enforce_sum_rule_must_be_a_json_bool(tmp_path, vanadyl_config):
    path = _patched_config(tmp_path, vanadyl_config, enforce_sum_rule="false")
    with pytest.raises(ConfigError, match="enforce_sum_rule"):
        load_config(path)


def test_include_nuclear_zeeman_must_be_a_json_bool(tmp_path, vanadyl_config):
    spins = json.load(open(vanadyl_config))["spin_system"]
    spins["include_nuclear_zeeman"] = "false"
    path = _patched_config(tmp_path, vanadyl_config, spin_system=spins)
    with pytest.raises(ConfigError, match="include_nuclear_zeeman"):
        load_project(path)
    spins["include_nuclear_zeeman"] = False
    path = _patched_config(tmp_path, vanadyl_config, spin_system=spins)
    assert load_project(path)[3].include_nuclear_zeeman is False


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# a JSON string, a float where an integer belongs, and a bool are
# rejected alike, naming the key and where it is
@pytest.mark.parametrize("where, key_path, value, message", [
    ("spin_system", ("centers", 0, "id"), "x",
     "id must be an integer, got 'x' in spin center 0"),
    ("spin_system", ("couplings", 0, "j"), 0.9,
     "j must be an integer, got 0.9 in spin coupling 0"),
    ("spin_system", ("dimension_cap",), 256.9,
     "dimension_cap must be an integer, got 256.9 in spin_system"),
    ("spin_system", ("centers", 1, "s"), True,
     "s must be a number, got True in spin center 1"),
    ("crystal", ("atoms", 0, "mass"), "50",
     "mass must be a number, got '50' in atom 0 of {crystal}"),
    ("crystal", ("atoms", 0, "mass"), float("nan"),
     "mass must be a number, got nan in atom 0 of {crystal}"),
    ("spin_system", ("centers", 1, "s"), 10**400,
     f"s must be a number, got {10**400!r} in spin center 1"),
    ("crystal", ("atoms", 0, "molecule"), 0.5,
     "molecule must be an integer, got 0.5 in atom 0 of {crystal}"),
    ("crystal", ("atoms", 0, "molecule"), False,
     "molecule must be an integer, got False in atom 0 of {crystal}"),
])
def test_declared_numbers_must_be_json_numbers(tmp_path, vanadyl_config,
                                               where, key_path, value,
                                               message):
    base = os.path.dirname(vanadyl_config)
    if where == "crystal":
        doc = json.load(open(os.path.join(base, "crystal.json")))
        _set(doc, key_path, value)
        crystal = _write(tmp_path, "crystal.json", json.dumps(doc))
        path = _patched_config(tmp_path, vanadyl_config, crystal=crystal)
    else:
        crystal = os.path.join(base, "crystal.json")
        spins = json.load(open(vanadyl_config))["spin_system"]
        _set(spins, key_path, value)
        path = _patched_config(tmp_path, vanadyl_config, spin_system=spins)
    with pytest.raises(ConfigError) as exc:
        load_project(path)
    assert str(exc.value) == message.format(crystal=crystal)


def test_derivatives_must_reference_declared_centers(tmp_path, vanadyl_config):
    bad = _write(tmp_path, "d_bad.dat",
                 "g:99 0 0 0 0 0 1 0 0 0 1 0 0 0 1\n")
    path = _patched_config(tmp_path, vanadyl_config, derivatives=[bad])
    with pytest.raises(ValidationError) as exc:
        load_project(path)
    assert "99" in str(exc.value)


# -- results ------------------------------------------------------------------

def _fake_result():
    row = SweepRow(value=50.0, tau_ms=1.23456789012345e-3,
                   tau_channel_ms={"zeeman": 1.3e-3},
                   diagnostics={"tau_int_ms": 1.24e-3,
                                "solve_residual": 1e-17, "mismatch": False,
                                "n_couplings": 42})
    return SweepResult(plan_axis="temperature", rows=(row,),
                       metadata={"axis": "temperature"})


def test_single_row_csv_is_two_lines(tmp_path):
    written = write_results(_fake_result(), str(tmp_path), config_hash="abc")
    text = open(written["csv"]).read().strip().split("\n")
    assert len(text) == 2
    assert text[0] == ",".join(RESULT_CSV_COLUMNS)
    cells = text[1].split(",")
    assert cells[0] == "50"
    assert cells[1] == "0.00123456789"  # 9 significant digits
    assert dict(zip(text[0].split(","), cells))["tau_int_ms"] == "0.00124"
    assert cells[-1] == "abc"


def test_json_sidecar_round_trips_bit_exactly(tmp_path):
    result = _fake_result()
    written = write_results(result, str(tmp_path), config_hash="abc")
    doc = load_results(written["json"])
    assert doc["rows"][0]["tau_ms"] == result.rows[0].tau_ms
    assert doc["config_hash"] == "abc"
    assert doc["plan_axis"] == "temperature"
    # writing again reproduces the file byte for byte
    rewritten = write_results(result, str(tmp_path), basename="again",
                              config_hash="abc")
    assert (open(written["json"]).read().replace('"sweep_temperature"', "")
            == open(rewritten["json"]).read().replace('"again"', ""))


def test_table_writers_format_each_number_as_fmt9(tmp_path):
    values = np.array([-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan,
                       0.1, -123456789.123])

    def expected(header, rows):
        fh = io.StringIO(newline="")
        fh.write(f"# spinphonon {__version__} config abc\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt9(x) for x in row] for row in rows)
        return fh.getvalue().encode()

    dos = SimpleNamespace(frequency=values, total=values[::-1],
                          translational=values, rotational=values[::-1],
                          intra=values)
    path = write_dos_csv(dos, str(tmp_path / "dos.csv"), config_hash="abc")
    assert open(path, "rb").read() == expected(
        ("omega_cm1", "total", "translational", "rotational", "intra"),
        zip(values, values[::-1], values, values[::-1], values))
    q, omega = values[:6].reshape(2, 3), values.reshape(2, 4)
    path = write_bands_csv(q, omega, str(tmp_path / "bands.csv"),
                           config_hash="abc")
    assert open(path, "rb").read() == expected(
        ["q1", "q2", "q3", "omega_1", "omega_2", "omega_3", "omega_4"],
        (list(a) + list(b) for a, b in zip(q, omega)))
    dist = {"zeeman": (values, values[::-1]), "dipolar": (values, values)}
    path = write_coupling_csv(dist, str(tmp_path / "couplings.csv"),
                              config_hash="abc")
    assert open(path, "rb").read() == expected(
        ["omega_cm1", "zeeman", "dipolar"], zip(values, values[::-1], values))
