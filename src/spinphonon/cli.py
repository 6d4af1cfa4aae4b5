"""Command-line interface.

Subcommands: phonons, dos, couple, relax, sweep, converge, perturb,
toygen, run-examples. Exit codes: 0 success, 1 usage error, 2
parse/validation error, 3 numerical failure.
"""

import argparse
import ctypes
import dataclasses
import json
import os
import sys

from .errors import (CapacityError, ConfigError, NumericalError, ParseError,
                     SpinPhononError, ValidationError)
from .coupling import CHANNELS, coupling_norm_distribution
from .lattice import phonon_dos, phonon_spectrum
from .project import (load_project, write_bands_csv, write_coupling_csv,
                      write_dos_csv, write_results)
from .sweep import (RelaxationPipeline, SweepResult, converge_protocol,
                    kpoint_grid, paired_kpoint_grid, perturbation_study,
                    run_sweep)
from .toy import toy_preset, write_toy_project
from .version import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3

#: blocks of this size and more get a mapping of their own, unmapped
#: when freed (glibc's M_MMAP_THRESHOLD)
MMAP_THRESHOLD_BYTES = 4 << 20

#: free memory at the top of the heap goes back to the system once it
#: reaches this size (glibc's M_TRIM_THRESHOLD). At 8 MiB, a d=32 relax
#: call kept 0, 5 or 10 MB of it from call to call; below 4 MiB the heap
#: is given back and faulted in again several times per call.
TRIM_THRESHOLD_BYTES = 4 << 20


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
    "--grid": dict(help="q-grid divisions n or n1,n2,n3"),
    "--sigma": dict(type=float, help="Gaussian breadth (cm^-1)"),
    "--temp": dict(type=float, help="temperature (K)"),
    "--field": dict(help="magnetic field Bx,By,Bz (T)"),
    "--channels": dict(help="comma-separated channel subset"),
    "--secular": dict(action="store_true", default=None,
                      help="apply the secular approximation"),
    "--threads": dict(type=int, default=1,
                      help="worker threads for sweep points"),
}
_SPIN_FLAGS = ("--temp", "--field", "--channels", "--secular")
_POINT_FLAGS = ("--grid", "--sigma") + _SPIN_FLAGS

#: project verbs: (name, help, the run-point flags the verb reads)
_VERBS = (
    ("phonons", "phonon frequencies over the q-grid", ("--grid",)),
    ("dos", "phonon density of states with rigid-body decomposition",
     ("--grid", "--sigma")),
    ("couple", "binned squared spin-phonon coupling norms", ("--grid",)),
    ("relax", "single relaxation-time evaluation", _POINT_FLAGS),
    ("sweep", "run the sweep plans declared in the config",
     _POINT_FLAGS + ("--threads",)),
    # the protocol sets sigma and the q-grid itself
    ("converge", "nested sigma/q-grid convergence protocol", _SPIN_FLAGS),
    ("perturb", "coupling-doubling and frequency-scaling checks",
     _POINT_FLAGS),
)


def build_parser():
    parser = _Parser(prog="spinphonon",
                     description="Direct-process spin-lattice relaxation "
                                 "for molecular crystals")
    parser.add_argument("--version", action="version",
                        version=f"spinphonon {__version__}")
    sub = parser.add_subparsers(dest="command")

    for name, descr, flags in _VERBS:
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", required=True,
                       help="project configuration JSON")
        p.add_argument("--out", help="output directory (default from config)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    sub.choices["perturb"].add_argument(
        "--kind", choices=("coupling_x2", "freq_x0.8", "both"), default="both")
    sub.choices["perturb"].add_argument("--channel", choices=CHANNELS,
                                        default="zeeman")

    p = sub.add_parser("toygen", help="generate a synthetic project fixture")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("soft", "vanadyl"), default="soft")

    p = sub.add_parser("run-examples", help="run the bundled examples")
    p.add_argument("--filter", default=None,
                   help="only run examples whose id contains this substring")
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
    crystal, fc, derivs, system, config = load_project(args.config)
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    try:
        params = config.run_params(**_overrides(args))
    except ValidationError as exc:  # a bad flag value
        raise _UsageError(str(exc)) from exc
    out_dir = args.out if args.out is not None else config.output_dir
    return pipeline, params, config, out_dir


def _cmd_phonons(args):
    pipeline, params, config, out_dir = _load_pipeline(args)
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
    pipeline, params, config, out_dir = _load_pipeline(args)
    qpts, weights = paired_kpoint_grid(*params.qgrid)
    dos = phonon_dos(pipeline.fc, qpts, params.sigma, weights)
    os.makedirs(out_dir, exist_ok=True)
    path = write_dos_csv(dos, os.path.join(out_dir, "dos.csv"),
                         config_hash=config.config_hash)
    print(f"DOS area {dos.area():.6f} (3N = {3 * pipeline.crystal.n_atoms}), "
          f"sigma {params.sigma} cm^-1")
    t = dos.timings_s
    print(f"dos timings_s spectrum {t['spectrum']:.3f} decomposition "
          f"{t['decomposition']:.3f} kernel {t['kernel']:.3f}; "
          f"{dos.imaginary_modes} imaginary modes excluded")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_couple(args):
    pipeline, params, config, out_dir = _load_pipeline(args)
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


def _cmd_relax(args):
    pipeline, params, config, out_dir = _load_pipeline(args)
    row = pipeline.relax(params, "single")
    result = SweepResult(plan_axis="single", rows=(row,),
                         metadata={"params": dataclasses.asdict(params)})
    written = write_results(result, out_dir, basename="relax",
                            config_hash=config.config_hash)
    tau_fit = row.diagnostics["tau_fit_ms"]
    fit = "n/a" if tau_fit is None else f"{tau_fit:.9g} ms"
    print(f"tau = {row.tau_ms:.9g} ms (exp-fit {fit})")
    for ch, tau in sorted(row.tau_channel_ms.items()):
        print(f"  {ch}: {tau:.9g} ms")
    for fmt, path in written.items():
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args):
    pipeline, params, config, out_dir = _load_pipeline(args)
    if not config.sweeps:
        raise ConfigError("config declares no sweep plans")
    for k, plan in enumerate(config.sweeps):
        plan = dataclasses.replace(plan, params=params, threads=args.threads)
        result = run_sweep(pipeline, plan)
        written = write_results(result, out_dir,
                                basename=f"sweep_{k}_{plan.axis}",
                                config_hash=config.config_hash)
        failed = sum(1 for r in result.rows if r.error)
        print(f"sweep {k} ({plan.axis}): {len(result.rows)} points, "
              f"{failed} failed")
        for fmt, path in written.items():
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_converge(args):
    pipeline, params, config, out_dir = _load_pipeline(args)
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
    pipeline, params, config, out_dir = _load_pipeline(args)
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


def _fix_malloc_thresholds():
    """Pin the allocator thresholds (Linux). glibc would raise its mmap
    threshold to each mapped block it frees, so after the first d^2 x d^2
    array later ones come from the heap, whose holes are reused or not
    from run to run: the peak RSS of repeated d=32 relax calls moved by
    one such array between otherwise identical runs. How much free heap
    a call leaves resident depends on where its live blocks landed; the
    trim threshold bounds it."""
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, MMAP_THRESHOLD_BYTES)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, TRIM_THRESHOLD_BYTES)  # M_TRIM_THRESHOLD


def main(argv=None):
    _fix_malloc_thresholds()
    parser = build_parser()
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
