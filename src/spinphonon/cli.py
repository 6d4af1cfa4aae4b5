"""Command-line interface.

Subcommands: phonons, dos, couple, relax, sweep, converge, perturb,
toygen, run-examples. Exit codes: 0 success, 1 usage error, 2
parse/validation error, 3 numerical failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from .errors import (CapacityError, ConfigError, NumericalError, ParseError,
                     SpinPhononError, ValidationError)
from .coupling import CHANNELS, coupling_norm_distribution
from .lattice import phonon_dos, phonon_spectrum
from .project import (load_project, write_bands_csv, write_coupling_csv,
                      write_dos_csv, write_results)
from .sweep import (STAGES, RelaxationPipeline, SweepResult,
                    converge_protocol, kpoint_grid, kpoint_orbits,
                    perturbation_study, run_sweep)
from .version import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise _UsageError(f"--grid expects n or n1,n2,n3, got {text!r}")
    try:
        grid = tuple(int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--grid expects integers, got {text!r}")
    return grid


def _parse_vec3(text, flag):
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"{flag} expects x,y,z, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{flag} expects numbers, got {text!r}")


#: the flags of the project verbs -> add_argument keywords
_FLAGS = {
    "--config": dict(required=True, help="project configuration JSON"),
    "--out": dict(help="output directory (default from config)"),
    "--grid": dict(help="q-grid divisions n or n1,n2,n3"),
    "--sigma": dict(type=float, help="Gaussian breadth (cm^-1)"),
    "--temp": dict(type=float, help="temperature (K)"),
    "--field": dict(help="magnetic field Bx,By,Bz (T)"),
    "--channels": dict(help="comma-separated channel subset"),
    "--secular": dict(action="store_true", default=None,
                      help="apply the secular approximation"),
    # sweep points run one after another; kept for scripts that pass it
    "--threads": dict(type=int, choices=(1,), default=1,
                      help="accepted for compatibility; only 1"),
}
_SPIN_FLAGS = ("--temp", "--field", "--channels", "--secular")
_POINT_FLAGS = ("--grid", "--sigma") + _SPIN_FLAGS


def _project(*flags):
    """The arguments of a project verb that reads the run-point ``flags``."""
    return tuple((flag, _FLAGS[flag]) for flag in ("--config", "--out")
                 + flags)


#: verb -> (help, its arguments as (flag, add_argument keywords))
_VERBS = {
    "phonons": ("phonon frequencies over the q-grid", _project("--grid")),
    "dos": ("phonon density of states with rigid-body decomposition",
            _project("--grid", "--sigma")),
    "couple": ("binned squared spin-phonon coupling norms",
               _project("--grid")),
    "relax": ("single relaxation-time evaluation", _project(*_POINT_FLAGS)),
    "sweep": ("run the sweep plans declared in the config",
              _project(*_POINT_FLAGS, "--threads")),
    # the protocol sets sigma and the q-grid itself
    "converge": ("nested sigma/q-grid convergence protocol",
                 _project(*_SPIN_FLAGS)),
    "perturb": ("coupling-doubling and frequency-scaling checks",
                _project(*_POINT_FLAGS) + (
                    ("--kind", dict(choices=("coupling_x2", "freq_x0.8",
                                             "both"), default="both")),
                    ("--channel", dict(choices=CHANNELS, default="zeeman")))),
    "toygen": ("generate a synthetic project fixture", (
        ("--out", dict(required=True, help="output directory")),
        ("--seed", dict(type=int, default=0)),
        ("--preset", dict(choices=("soft", "vanadyl"), default="soft")))),
    "run-examples": ("run the bundled examples", (
        ("--filter", dict(default=None, help="only run examples whose id "
                                             "contains this substring")),)),
}


def build_parser(verb=None):
    """The CLI's parser, with the subparser of every verb, or of
    ``verb`` alone: a call's own verb is all it parses, and the other
    subparsers only feed the top-level help and its errors."""
    parser = _Parser(prog="spinphonon",
                     description="Direct-process spin-lattice relaxation "
                                 "for molecular crystals")
    parser.add_argument("--version", action="version",
                        version=f"spinphonon {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name, (descr, arguments) in _VERBS.items():
        if verb in (None, name):
            p = sub.add_parser(name, help=descr)
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
    return parser


def _overrides(args):
    """RunParams overrides from the run-point flags the verb has and
    the user gave."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    out = {}
    if "grid" in given:
        out["qgrid"] = _parse_grid(given["grid"])
    if "sigma" in given:
        out["sigma"] = given["sigma"]
    if "temp" in given:
        out["temperature"] = given["temp"]
    if "field" in given:
        out["field_B"] = _parse_vec3(given["field"], "--field")
    if "channels" in given:
        out["channels"] = tuple(given["channels"].split(","))
    if given.get("secular"):
        out["secular"] = True
    return out


def _load_pipeline(args):
    """(pipeline, params, config, out_dir) of the verb, and load_s: the
    wall time of load_project and the pipeline's construction, which no
    stage timer covers."""
    t0 = time.perf_counter()
    crystal, fc, derivs, system, config = load_project(args.config)
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    load_s = time.perf_counter() - t0
    try:
        params = config.run_params(**_overrides(args))
    except ValidationError as exc:  # a bad flag value
        raise _UsageError(str(exc)) from exc
    out_dir = args.out if args.out is not None else config.output_dir
    return pipeline, params, config, out_dir, load_s


def _cmd_phonons(args):
    pipeline, params, config, out_dir, _ = _load_pipeline(args)
    # the full grid: the band listing has a row for every q-point
    qpts = kpoint_grid(*params.qgrid)
    omega, _ = phonon_spectrum(pipeline.fc, qpts)
    os.makedirs(out_dir, exist_ok=True)
    path = write_bands_csv(qpts, omega, os.path.join(out_dir, "phonons.csv"),
                           config_hash=config.config_hash)
    # kpoint_grid is Gamma-centred: row 0 is Gamma
    gamma_acoustic = ", ".join(f"{w:.3e}" for w in omega[0, :3])
    print(f"grid {params.qgrid}: {omega.shape[0]} q-points, "
          f"{omega.shape[1]} branches, omega in "
          f"[{omega.min():.6g}, {omega.max():.6g}] cm^-1")
    print(f"Gamma acoustic frequencies (cm^-1): {gamma_acoustic}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_dos(args):
    pipeline, params, config, out_dir, load_s = _load_pipeline(args)
    rotations = pipeline.symmetry.rotations
    qpts, weights = kpoint_orbits(*params.qgrid, rotations)
    dos = phonon_dos(pipeline.fc, qpts, params.sigma, weights)
    os.makedirs(out_dir, exist_ok=True)
    path = write_dos_csv(dos, os.path.join(out_dir, "dos.csv"),
                         config_hash=config.config_hash)
    print(f"DOS area {dos.area():.6f} (3N = {3 * pipeline.crystal.n_atoms}), "
          f"sigma {params.sigma} cm^-1")
    print(f"load_s {load_s:.3f}")
    t = dos.timings_s
    print(f"dos timings_s blocks {t['blocks']:.3f} kernel {t['kernel']:.3f}; "
          f"workers {dos.workers} q_blocks {dos.blocks}; "
          f"symmetry_ops {len(rotations)} irreducible_q {len(qpts)}/"
          f"{math.prod(params.qgrid)}; "
          f"{dos.imaginary_modes} imaginary modes excluded")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_couple(args):
    pipeline, params, config, out_dir, _ = _load_pipeline(args)
    modes, diag = pipeline.mode_precursors(params.qgrid, params.omega_min)
    dist = coupling_norm_distribution(modes, diag["n_q"])
    os.makedirs(out_dir, exist_ok=True)
    path = write_coupling_csv(dist, os.path.join(out_dir, "couplings.csv"),
                              config_hash=config.config_hash)
    print(f"projected {len(modes)} modes, {modes.weight.sum()} with their "
          f"-q partners, over {diag['n_q']} q-points "
          f"({diag['skipped_modes']} below omega_min, "
          f"{diag['imaginary_modes']} imaginary)")
    print(f"wrote {path}")
    return EXIT_OK


def _stage_summary(diagnostics):
    """"timings_s <stage> <s> ...; cache_hits <n>", summed over the
    diagnostics of the points, then "; symmetry_ops <m> irreducible_q
    <diagonalised>/<paired>" as ``dos`` prints them, with the q-point
    counts of each distinct grid of the points, comma-separated, and n/a
    for operations never sought (``sweep.SYMMETRY_MIN_Q``)."""
    timings = dict.fromkeys(STAGES, 0.0)
    for d in diagnostics:
        for stage, t in d["timings_s"].items():
            timings[stage] += t
    hits = sum(d["cache_hits"] for d in diagnostics)
    stages = " ".join(f"{s} {t:.3f}" for s, t in timings.items())
    out = f"timings_s {stages}; cache_hits {hits}"
    if diagnostics:
        grids = dict.fromkeys(f"{a}/{b}" for a, b in
                              (d["irreducible_q"] for d in diagnostics))
        ops = next((d["symmetry_ops"] for d in diagnostics
                    if d["symmetry_ops"] is not None), "n/a")
        out += (f"; symmetry_ops {ops} "
                f"irreducible_q {','.join(grids)}")
    return out


def _cmd_relax(args):
    pipeline, params, config, out_dir, load_s = _load_pipeline(args)
    row = pipeline.relax(params, "single")
    result = SweepResult(plan_axis="single", rows=(row,),
                         metadata={"params": dataclasses.asdict(params)})
    written = write_results(result, out_dir, basename="relax",
                            config_hash=config.config_hash)
    tau_int = row.diagnostics["tau_int_ms"]
    cross = "n/a" if tau_int is None else f"{tau_int:.9g} ms"
    print(f"tau = {row.tau_ms:.9g} ms (tau_int {cross})")
    for ch, tau in sorted(row.tau_channel_ms.items()):
        print(f"  {ch}: {tau:.9g} ms")
    d = row.diagnostics
    health = " ".join(
        f"{k} {'n/a' if d[k] is None else format(d[k], '.4g')}"
        for k in ("eigvec_cond", "min_rho_eigenvalue", "solve_residual"))
    print(f"load_s {load_s:.3f}")
    print(f"{_stage_summary([d])}; "
          f"bohr_clusters {d['bohr_clusters']} largest "
          f"{d['largest_cluster']} gap_ratio {d['cluster_gap_ratio']:.3g}; "
          f"{health}")
    for fmt, path in written.items():
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args):
    pipeline, params, config, out_dir, load_s = _load_pipeline(args)
    if not config.sweeps:
        raise ConfigError("config declares no sweep plans")
    print(f"load_s {load_s:.3f}")
    for k, plan in enumerate(config.sweeps):
        plan = dataclasses.replace(plan, params=params)
        result = run_sweep(pipeline, plan)
        written = write_results(result, out_dir,
                                basename=f"sweep_{k}_{plan.axis}",
                                config_hash=config.config_hash)
        done = [r.diagnostics for r in result.rows if not r.error]
        print(f"sweep {k} ({plan.axis}): {len(result.rows)} points, "
              f"{len(result.rows) - len(done)} failed; "
              f"{_stage_summary(done)}")
        for fmt, path in written.items():
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_converge(args):
    pipeline, params, config, out_dir, _ = _load_pipeline(args)
    report = converge_protocol(pipeline, params)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "converge.json")
    with open(path, "w") as fh:
        json.dump({"version": __version__, "config_hash": config.config_hash,
                   "report": report}, fh, indent=1)
        fh.write("\n")
    for entry in report:
        taus = ", ".join(f"{t:.6g}" for t in entry["tau_ms"])
        print(f"sigma {entry['sigma']}: grids {entry['grids']} -> tau [{taus}] "
              f"ms, converged={entry['converged']}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_perturb(args):
    pipeline, params, config, out_dir, _ = _load_pipeline(args)
    kinds = ("coupling_x2", "freq_x0.8") if args.kind == "both" else (args.kind,)
    for kind in kinds:
        result = perturbation_study(pipeline, params, kind,
                                    channel=args.channel)
        written = write_results(result, out_dir,
                                basename=f"perturb_{kind.replace('.', '_')}",
                                config_hash=config.config_hash)
        print(f"{kind}: tau ratio {result.metadata['tau_ratio']:.6g}")
        for fmt, path in written.items():
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_toygen(args):
    from .toy import toy_preset, write_toy_project
    spec = toy_preset(args.preset, args.seed)
    config_path = write_toy_project(args.out, spec)
    print(f"wrote {config_path}")
    return EXIT_OK


def _cmd_run_examples(args):
    from .examples import run_examples
    report = run_examples(filter=args.filter)
    if not report:
        print("no examples matched the filter")
        return EXIT_USAGE
    failed = 0
    for entry in report:
        status = "pass" if entry["passed"] else "FAIL"
        print(f"[{status}] {entry['example']}: {entry['details']}")
        failed += 0 if entry["passed"] else 1
    print(f"{len(report) - failed}/{len(report)} examples passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


_COMMANDS = {
    "phonons": _cmd_phonons,
    "dos": _cmd_dos,
    "couple": _cmd_couple,
    "relax": _cmd_relax,
    "sweep": _cmd_sweep,
    "converge": _cmd_converge,
    "perturb": _cmd_perturb,
    "toygen": _cmd_toygen,
    "run-examples": _cmd_run_examples,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # help, --version and a missing or unknown verb need every subparser
    parser = build_parser(argv[0] if argv and argv[0] in _VERBS else None)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ConfigError, ValidationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpinPhononError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
