"""Project files: configuration, line-oriented data formats and results.

Formats
-------
crystal        JSON document with explicit unit tags per block
force constants  whitespace-delimited records ``l1 l2 l3 i s j t value``
                 (eV/Angstrom^2)
derivatives    records ``tensor_id atom s l1 l2 l3 m11 m12 ... m33``
               (per Angstrom), or 10-point displacement-scan blocks that
               are fitted on load
config         strict JSON; unknown keys are rejected loudly
results        CSV (9 significant digits) plus a JSON sidecar carrying
               full-precision values and metadata
"""

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import (CHANNELS, CouplingDerivativeSet, DerivativeScan,
                       fit_derivative_scan)
from .crystal import Atom, CrystalModel
from .errors import (ConfigError, NumericalError, ParseError, SumRuleError,
                     UnitTagError, ValidationError)
from .lattice import ForceConstantSet, enforce_acoustic_sum_rule
from .spins import SpinCenter, SpinCoupling, SpinSystem
from .sweep import RunParams, SweepPlan
from .version import __version__

#: max acceptable acoustic-sum-rule residual (eV/A^2) without enforcement
SUM_RULE_THRESHOLD = 1e-6

_CRYSTAL_UNITS = {"length": "angstrom", "mass": "amu"}
_SCAN_POINTS = 10
#: integers in data files must fit the integer arrays that store them
_INT_RANGE = np.iinfo(int)
_FLOAT_MAX = float(np.finfo(float).max)


def _check_keys(mapping, allowed, context):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {context}; "
            f"allowed: {', '.join(sorted(allowed))}")


def _require(mapping, keys, context):
    missing = sorted(set(keys) - set(mapping))
    if missing:
        raise ConfigError(f"missing key(s) {', '.join(missing)} in {context}")


def _flag(mapping, key, default, context):
    """The JSON bool at ``key`` (``default`` when absent); the string
    "false" is not false."""
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r} "
                          f"in {context}")
    return value


def _number(mapping, key, context, integer=False, default=None):
    """The JSON number at ``key`` (``default`` when absent) as a float,
    or with ``integer`` the JSON integer; 0.5 is not an integer, a bool
    is neither, and a float must be finite (Python's json reads NaN,
    Infinity and integers beyond the float range)."""
    value = mapping.get(key, default)
    kind, what = (int, "an integer") if integer else ((int, float), "a number")
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not integer and not abs(value) <= _FLOAT_MAX):
        raise ConfigError(f"{key} must be {what}, got {value!r} in {context}")
    return value if integer else float(value)


def _load_json(path):
    """The JSON document at ``path``; a decode error is a ParseError at
    its line and character offset."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", path=path,
                             line=exc.lineno, offset=exc.pos)


# ---------------------------------------------------------------------------
# crystal JSON

def load_crystal(path):
    """Read a crystal JSON document (cell in Angstrom, masses in amu)."""
    doc = _load_json(path)
    _check_keys(doc, ("units", "cell", "atoms"), f"crystal file {path}")
    _require(doc, ("cell", "atoms"), f"crystal file {path}")
    if "units" not in doc:
        raise UnitTagError("crystal file lacks a units block", path=path)
    units = doc["units"]
    _check_keys(units, _CRYSTAL_UNITS, f"units block of {path}")
    for key, expected in _CRYSTAL_UNITS.items():
        if units.get(key) != expected:
            raise UnitTagError(
                f"unit tag {key!r} must be {expected!r}, got {units.get(key)!r}",
                path=path)
    atoms = []
    for k, rec in enumerate(doc["atoms"]):
        context = f"atom {k} of {path}"
        _check_keys(rec, ("element", "mass", "frac", "molecule"), context)
        _require(rec, ("element", "mass", "frac"), context)
        atoms.append(Atom(element=rec["element"],
                          mass=_number(rec, "mass", context), frac=rec["frac"],
                          molecule=_number(rec, "molecule", context,
                                           integer=True, default=0)))
    return CrystalModel(cell=np.asarray(doc["cell"], float), atoms=tuple(atoms))


def serialize_crystal(crystal):
    return {
        "units": dict(_CRYSTAL_UNITS),
        "cell": crystal.cell.tolist(),
        "atoms": [{"element": a.element, "mass": a.mass,
                   "frac": a.frac.tolist(), "molecule": a.molecule}
                  for a in crystal.atoms],
    }


# ---------------------------------------------------------------------------
# line-oriented parsing helpers

def _iter_records(path):
    """Yield (where, tokens) for non-comment lines; ``where`` holds the
    path, line number and byte offset that a ParseError reports."""
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line_offset = offset
            offset += len(raw)
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError("undecodable bytes", path=path, line=lineno,
                                 offset=line_offset + exc.start)
            stripped = text.split("#", 1)[0].strip()
            if not stripped:
                continue
            yield ({"path": path, "line": lineno, "offset": line_offset},
                   stripped.split())


def _parse_int(tok, what, where):
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(f"bad integer for {what}: {tok!r}", **where)
    if not _INT_RANGE.min <= v <= _INT_RANGE.max:
        raise ParseError(f"integer for {what} out of range: {tok!r}", **where)
    return v


def _parse_float(tok, what, where):
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"bad number for {what}: {tok!r}", **where)
    if not np.isfinite(v):
        raise ParseError(f"non-finite value for {what}", **where)
    return v


def _parse_lvec(tokens, where):
    """The lattice vector of three integer tokens."""
    return tuple(_parse_int(t, "lattice vector", where) for t in tokens)


def _parse_site(tokens, names, n_atoms, where):
    """(atom, Cartesian component) of two integer tokens, range-checked;
    ``names`` label the two in a bad-integer message."""
    atom = _parse_int(tokens[0], names[0], where)
    s = _parse_int(tokens[1], names[1], where)
    if not 0 <= atom < n_atoms:
        raise ParseError(f"atom index out of range (n_atoms={n_atoms})",
                         **where)
    if not 0 <= s < 3:
        raise ParseError("Cartesian component must be 0, 1 or 2", **where)
    return atom, s


# ---------------------------------------------------------------------------
# force constants

def load_force_constants(path, crystal):
    """Read ``l1 l2 l3 i s j t value`` records (eV/A^2) into a
    ForceConstantSet for ``crystal``."""
    n = crystal.n_atoms
    lvecs, ii, ss, jj, tt, vals = [], [], [], [], [], []
    for where, tok in _iter_records(path):
        if len(tok) != 8:
            raise ParseError(
                f"force-constant record needs 8 fields, got {len(tok)}",
                **where)
        lvecs.append(_parse_lvec(tok[:3], where))
        i, s = _parse_site(tok[3:5], ("atom i", "component s"), n, where)
        j, t = _parse_site(tok[5:7], ("atom j", "component t"), n, where)
        vals.append(_parse_float(tok[7], "force constant", where))
        ii.append(i)
        ss.append(s)
        jj.append(j)
        tt.append(t)
    if not vals:
        raise ParseError("no force-constant records found", path=path)
    return ForceConstantSet(crystal=crystal, lvecs=lvecs, i=ii, s=ss,
                            j=jj, t=tt, values=vals)


def serialize_force_constants(fc):
    lines = ["# l1 l2 l3 i s j t value(eV/A^2)"]
    for k in range(fc.n_records):
        lv = fc.lvecs[k]
        lines.append(f"{lv[0]} {lv[1]} {lv[2]} {fc.i[k]} {fc.s[k]} "
                     f"{fc.j[k]} {fc.t[k]} {float(fc.values[k])!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# derivative records

def _format_target(target):
    kind, key = target
    if kind == "g":
        return f"g:{key}"
    return f"{kind}:{key[0]}:{key[1]}"


def _parse_target(tok, where):
    parts = tok.split(":")
    if parts[0] == "g" and len(parts) == 2:
        return ("g", _parse_int(parts[1], "center id", where))
    if parts[0] in ("A", "dip") and len(parts) == 3:
        i = _parse_int(parts[1], "center id", where)
        j = _parse_int(parts[2], "center id", where)
        return (parts[0], (i, j))
    raise ParseError(
        f"bad tensor id {tok!r} (expect g:<id>, A:<i>:<j> or dip:<i>:<j>)",
        **where)


def _parse_record_head(tok, n_atoms, where):
    """(target, atom, s, lattice vector) of ``tensor_id atom s l1 l2 l3``,
    the fields that a direct record and a scan header share."""
    target = _parse_target(tok[0], where)
    atom, s = _parse_site(tok[1:3], ("atom", "component s"), n_atoms, where)
    return target, atom, s, _parse_lvec(tok[3:6], where)


def _fit_scan_block(head, where, rows):
    """The record of a complete scan block: its header's fields, the
    fitted derivative tensor and the provenance."""
    target, atom, s, lv = head
    try:
        scan = DerivativeScan(target=target, atom=atom, direction=s,
                              displacements=[r[0] for r in rows],
                              tensors=[r[1] for r in rows])
        d_tensor, _ = fit_derivative_scan(scan)
    except (ValidationError, NumericalError) as exc:
        raise ParseError(f"scan block: {exc}", **where) from exc
    name = os.path.basename(where["path"])
    return head + (d_tensor, f"scan-fit:{name}:{where['line']}")


def load_derivatives(path, crystal):
    """Read derivative records and/or displacement-scan blocks.

    Direct records carry the tensor derivative per Angstrom; ``scan``
    headers are followed by exactly 10 displacement rows and fitted with
    the quartic-polynomial protocol on load.
    """
    n = crystal.n_atoms
    records = []  # (target, atom, s, lvec, tensor, provenance)
    scan = None  # (header fields, header location, rows) of an open block
    for where, tok in _iter_records(path):
        if scan is not None:
            if len(tok) != 10:
                raise ParseError(
                    f"scan row needs 10 fields (displacement + 9 components), "
                    f"got {len(tok)}", **where)
            disp = _parse_float(tok[0], "displacement", where)
            comps = [_parse_float(t, "tensor component", where)
                     for t in tok[1:]]
            scan[2].append((disp, np.array(comps).reshape(3, 3)))
            if len(scan[2]) == _SCAN_POINTS:
                records.append(_fit_scan_block(*scan))
                scan = None
        elif tok[0] == "scan":
            if len(tok) != 7:
                raise ParseError(
                    "scan header needs 7 fields: scan tensor_id atom s l1 l2 l3",
                    **where)
            scan = (_parse_record_head(tok[1:], n, where), where, [])
        else:
            if len(tok) != 15:
                raise ParseError(
                    f"derivative record needs 15 fields, got {len(tok)}",
                    **where)
            head = _parse_record_head(tok, n, where)
            comps = [_parse_float(t, "tensor component", where)
                     for t in tok[6:15]]
            records.append(head + (
                np.array(comps).reshape(3, 3),
                f"file:{os.path.basename(path)}:{where['line']}"))
    if scan is not None:
        raise ParseError("truncated scan block at end of file", **scan[1])
    return CouplingDerivativeSet(*zip(*records))


def serialize_derivatives(derivs):
    lines = ["# tensor_id atom s l1 l2 l3 m11 m12 m13 m21 m22 m23 m31 m32 m33"]
    for k in range(derivs.n_records):
        lv = derivs.lvecs[k]
        comps = " ".join(repr(float(x)) for x in derivs.tensors[k].reshape(-1))
        lines.append(f"{_format_target(derivs.targets[k])} {derivs.atom[k]} "
                     f"{derivs.s[k]} {lv[0]} {lv[1]} {lv[2]} {comps}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spin system declaration

_CENTER_KEYS = ("id", "kind", "s", "g", "position", "atom", "magneton")
_COUPLING_KEYS = ("i", "j", "tag", "tensor")
_SPIN_SYSTEM_KEYS = ("centers", "couplings", "include_nuclear_zeeman",
                     "dimension_cap")


def build_spin_system(decl, crystal, field_T=None):
    """Construct a SpinSystem from its config declaration."""
    _check_keys(decl, _SPIN_SYSTEM_KEYS, "spin_system")
    _require(decl, ("centers",), "spin_system")
    cart = crystal.cart_positions
    centers = []
    for k, rec in enumerate(decl["centers"]):
        context = f"spin center {k}"
        _check_keys(rec, _CENTER_KEYS, context)
        _require(rec, ("id", "kind", "s"), context)
        if "position" in rec and "atom" in rec:
            raise ConfigError(f"spin center {k}: give position or atom, not both")
        position = rec.get("position")
        if "atom" in rec:
            idx = _number(rec, "atom", context, integer=True)
            if not 0 <= idx < crystal.n_atoms:
                raise ConfigError(f"spin center {k}: atom index {idx} out of range")
            position = cart[idx]
        centers.append(SpinCenter(
            id=_number(rec, "id", context, integer=True), kind=rec["kind"],
            s=_number(rec, "s", context), g=rec.get("g"), position=position,
            magneton=rec.get("magneton")))
    couplings = []
    for k, rec in enumerate(decl.get("couplings", ())):
        context = f"spin coupling {k}"
        _check_keys(rec, _COUPLING_KEYS, context)
        _require(rec, ("i", "j"), context)
        i = _number(rec, "i", context, integer=True)
        j = _number(rec, "j", context, integer=True)
        _require(rec, ("tensor",), context)
        couplings.append(SpinCoupling(i=i, j=j,
                                      tensor=np.asarray(rec["tensor"], float),
                                      tag=rec.get("tag", "custom")))
    return SpinSystem(
        centers=tuple(centers), couplings=tuple(couplings), field_B=field_T,
        include_nuclear_zeeman=_flag(decl, "include_nuclear_zeeman", True,
                                     "spin_system"),
        dimension_cap=_number(decl, "dimension_cap", "spin_system",
                              integer=True, default=256))


def serialize_spin_system(system):
    centers = []
    for c in system.centers:
        rec = {"id": c.id, "kind": c.kind, "s": c.s, "g": c.g.tolist(),
               "position": c.position.tolist(), "magneton": c.magneton}
        centers.append(rec)
    couplings = [{"i": cp.i, "j": cp.j, "tag": cp.tag,
                  "tensor": cp.tensor.tolist()} for cp in system.couplings]
    return {"centers": centers, "couplings": couplings,
            "include_nuclear_zeeman": system.include_nuclear_zeeman,
            "dimension_cap": system.dimension_cap}


# ---------------------------------------------------------------------------
# project configuration

# "seed" is accepted and ignored: the shipped fixtures carry it
_CONFIG_KEYS = ("crystal", "force_constants", "derivatives", "spin_system",
                "field_T", "temperature_K", "qgrid", "sigma_cm1", "channels",
                "secular", "sweeps", "output_dir", "seed", "enforce_sum_rule",
                "omega_min_cm1", "prune_sigma_mult")
#: config key -> RunParams field; RunParams holds the defaults and checks
_RUN_PARAM_KEYS = {"qgrid": "qgrid", "sigma_cm1": "sigma",
                   "temperature_K": "temperature", "field_T": "field_B",
                   "channels": "channels", "secular": "secular",
                   "omega_min_cm1": "omega_min",
                   "prune_sigma_mult": "prune_sigma_mult"}
_SWEEP_KEYS = ("axis", "values", "channel", "replication_axis")


@dataclass(frozen=True)
class ProjectConfig:
    """Validated run configuration, with the raw document retained for
    hashing and metadata echo."""

    path: str
    raw: dict = field(repr=False)
    crystal_path: str
    fc_path: str
    deriv_paths: tuple
    spin_system: dict = field(repr=False)
    params: RunParams = field(default_factory=RunParams)
    sweeps: tuple = ()  # SweepPlans on ``params``
    output_dir: str = "."
    enforce_sum_rule: bool = False

    @property
    def config_hash(self):
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def run_params(self, **overrides):
        return replace(self.params, **overrides)


def load_config(path):
    """Parse and validate the config document alone (no data files)."""
    doc = _load_json(path)
    _check_keys(doc, _CONFIG_KEYS, f"config file {path}")
    _require(doc, ("crystal", "force_constants", "spin_system"),
             f"config file {path}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    crystal_path = resolve(doc["crystal"])
    fc_path = resolve(doc["force_constants"])
    deriv_paths = tuple(resolve(p) for p in doc.get("derivatives", ()))
    for p in (crystal_path, fc_path) + deriv_paths:
        if not os.path.exists(p):
            raise ConfigError(f"referenced file does not exist: {p}")

    context = f"config file {path}"
    try:
        params = RunParams(**{name: doc[key]
                              for key, name in _RUN_PARAM_KEYS.items()
                              if key in doc})
        sweeps = []
        for k, sw in enumerate(doc.get("sweeps", ())):
            context = f"sweep plan {k} of config file {path}"
            _check_keys(sw, _SWEEP_KEYS, context)
            _require(sw, ("axis", "values"), context)
            sweeps.append(SweepPlan(
                axis=sw["axis"], values=sw["values"], params=params,
                channel=sw.get("channel"),
                replication_axis=sw.get("replication_axis", 0)))
    except ValidationError as exc:
        raise ConfigError(f"{exc} in {context}") from exc

    return ProjectConfig(
        path=os.path.abspath(path), raw=doc, crystal_path=crystal_path,
        fc_path=fc_path, deriv_paths=deriv_paths,
        spin_system=doc["spin_system"], params=params, sweeps=tuple(sweeps),
        output_dir=resolve(doc.get("output_dir", ".")),
        enforce_sum_rule=_flag(doc, "enforce_sum_rule", False,
                               f"config file {path}"))


def load_project(path):
    """Load and cross-validate every file a config references.

    Returns (crystal, force constants, derivative set, spin system,
    config). The force constants come back sum-rule clean: residuals
    above threshold raise unless ``enforce_sum_rule`` is set, in which
    case the self-terms are adjusted here.
    """
    config = load_config(path)
    crystal = load_crystal(config.crystal_path)
    fc = load_force_constants(config.fc_path, crystal)
    residual = fc.sum_rule_residual()
    if residual > SUM_RULE_THRESHOLD:
        if not config.enforce_sum_rule:
            raise SumRuleError(
                f"acoustic sum-rule residual {residual:.3e} eV/A^2 exceeds "
                f"{SUM_RULE_THRESHOLD:.0e}; set enforce_sum_rule to adjust "
                f"self-terms at load")
        fc = enforce_acoustic_sum_rule(fc)
    derivs = CouplingDerivativeSet()
    for p in config.deriv_paths:
        derivs = derivs.merged(load_derivatives(p, crystal))
    system = build_spin_system(config.spin_system, crystal,
                               config.params.field_B)
    # derivative records must reference declared spin centers
    ids = {c.id for c in system.centers}
    for k, (kind, key) in enumerate(derivs.targets):
        ref = (key,) if kind == "g" else key
        unknown = [r for r in ref if r not in ids]
        if unknown:
            raise ValidationError(
                f"derivative record {k} ({derivs.provenance[k]}) references "
                f"unknown spin center(s) {unknown}")
    return crystal, fc, derivs, system, config


# ---------------------------------------------------------------------------
# results emission

def _to_native(obj):
    """Recursively convert numpy containers to plain Python."""
    if isinstance(obj, dict):
        return {str(k): _to_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_native(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt9(x):
    """9-significant-digit CSV formatting; blanks for missing values."""
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return "nan"
    return f"{x:.9g}"


def _axis_cell(value):
    """CSV label of a row: a string as is, a number in ``_fmt9``, a
    sequence as its items joined by "x" (a q-grid reads 2x2x2)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return "x".join(_axis_cell(v) for v in value)
    return _fmt9(value)


RESULT_CSV_COLUMNS = ("axis", "tau_total_ms", "tau_zeeman_ms",
                      "tau_hyperfine_ms", "tau_dipolar_ms", "tau_fit_ms",
                      "fit_residual", "mismatch", "non_exponential",
                      "n_couplings", "error", "version", "config_hash")


def write_results(result, out_dir, basename=None, config_hash=None):
    """Emit one SweepResult as CSV and a JSON sidecar.

    The CSV carries 9 significant digits; the JSON sidecar keeps full
    precision so reloading reproduces tau values bit-exactly. Both embed
    the code version and the config hash.
    """
    os.makedirs(out_dir, exist_ok=True)
    if basename is None:
        basename = f"sweep_{result.plan_axis}"
    written = {"csv": os.path.join(out_dir, basename + ".csv"),
               "json": os.path.join(out_dir, basename + ".json")}
    with open(written["csv"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_CSV_COLUMNS)
        for row in result.rows:
            ch = row.tau_channel_ms
            diag = row.diagnostics
            writer.writerow([
                _axis_cell(row.value),
                _fmt9(row.tau_ms),
                _fmt9(ch.get("zeeman")),
                _fmt9(ch.get("hyperfine")),
                _fmt9(ch.get("dipolar")),
                _fmt9(diag.get("tau_fit_ms")),
                _fmt9(diag.get("fit_residual")),
                str(bool(diag.get("mismatch", False))).lower(),
                str(bool(diag.get("non_exponential", False))).lower(),
                diag.get("n_couplings", ""),
                row.error or "",
                __version__,
                config_hash or "",
            ])
    doc = {
        "version": __version__,
        "config_hash": config_hash,
        "plan_axis": result.plan_axis,
        "metadata": _to_native(result.metadata),
        "rows": [{
            "value": _to_native(row.value),
            "tau_ms": _to_native(row.tau_ms),
            "tau_channel_ms": _to_native(row.tau_channel_ms),
            "diagnostics": _to_native(row.diagnostics),
            "error": row.error,
        } for row in result.rows],
    }
    with open(written["json"], "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return written


def load_results(path):
    """Reload a JSON results sidecar (full-precision round trip)."""
    with open(path) as fh:
        return json.load(fh)


def _write_table(path, config_hash, header, rows):
    """A CSV of the version and config-hash stamp line, ``header`` and
    ``rows`` of numbers in ``_fmt9``."""
    stamp = f"# spinphonon {__version__} config {config_hash or 'none'}"
    with open(path, "w", newline="") as fh:
        fh.write(stamp + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt9(x) for x in row] for row in rows)
    return path


def write_dos_csv(dos, path, config_hash=None):
    """(omega, total, translational, rotational, intra) columns."""
    return _write_table(
        path, config_hash,
        ("omega_cm1", "total", "translational", "rotational", "intra"),
        zip(dos.frequency, dos.total, dos.translational, dos.rotational,
            dos.intra))


def write_bands_csv(qpoints, omega, path, config_hash=None):
    """Per-q phonon frequencies: q1,q2,q3,omega_1..omega_3N."""
    omega = np.asarray(omega)
    return _write_table(
        path, config_hash,
        ["q1", "q2", "q3"] + [f"omega_{k + 1}" for k in range(omega.shape[1])],
        (list(q) + list(row) for q, row in zip(np.asarray(qpoints), omega)))


def write_coupling_csv(distribution, path, config_hash=None):
    """Binned squared coupling norms per channel versus frequency."""
    centers = next(iter(distribution.values()))[0]
    channels = [ch for ch in CHANNELS if ch in distribution]
    return _write_table(
        path, config_hash, ["omega_cm1"] + channels,
        zip(centers, *(distribution[ch][1] for ch in channels)))
