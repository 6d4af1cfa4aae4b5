"""Benchmark of the spinphonon engine, run from the root of a checkout:

    python3 perfbench/run.py --workload vanadyl_relax --seed 1 --seconds 20 --trace 0

Each run generates its inputs from --seed, times the package set-up,
then calls one CLI verb in-process, in whole rounds, for about --seconds
seconds (at least one round), and checks every output. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (the end-to-end ones with --trace 0, the per-layer ones with
--trace 1). See README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 10  # before the rounds, and as many after
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads():
    """BLAS threads = usable cores; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def blas_build():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def setup_once(config):
    """Import the package afresh, load the project, build the pipeline."""
    for name in [m for m in sys.modules
                 if m == "spinphonon" or m.startswith("spinphonon.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import spinphonon.cli  # noqa: F401  (what the console script imports)
    from spinphonon.project import load_project
    from spinphonon.sweep import RelaxationPipeline
    crystal, fc, derivs, system, _ = load_project(config)
    RelaxationPipeline(crystal, fc, derivs, system)
    return time.perf_counter() - t0


class Capture:
    """Keeps the last return value of one program function (untimed use)."""

    def __init__(self, target):
        self.value = None
        if target is None:
            return
        module, attr = target
        owner = sys.modules[module]
        fn = getattr(owner, attr)

        def keep(*args, **kwargs):
            self.value = fn(*args, **kwargs)
            return self.value
        setattr(owner, attr, keep)

    def take(self):
        value, self.value = self.value, None
        return value


def one_round(workload, k, verb, capture, log):
    """Time one CLI call; returns (seconds, failures per operation)."""
    from workloads import Failure
    argv = workload.argv(k)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log):
            rc = verb(argv)
    except Exception:
        elapsed = time.perf_counter() - t0
        why = traceback.format_exc().strip().splitlines()[-1]
        return elapsed, [[Failure(f"raised {why}")]] * workload.ops_per_round
    elapsed = time.perf_counter() - t0
    if rc != 0:
        return elapsed, [[Failure(f"exit code {rc}")]] * workload.ops_per_round
    try:
        per_op = workload.check(k, capture.take())
    except (OSError, ValueError, KeyError) as exc:
        per_op = [[Failure(f"output unreadable: {exc!r}")]] * workload.ops_per_round
    shutil.rmtree(workload.out_dir(k), ignore_errors=True)
    return elapsed, per_op


def run(args):
    nproc = pin_threads()
    if not os.path.isfile(os.path.join(SRC, "spinphonon", "__init__.py")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy  # noqa: F401  dependencies are imported once, untimed
    import scipy.linalg  # noqa: F401
    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        wl.prepare()
        setup = [setup_once(wl.config) for _ in range(SETUP_REPS)]
        import spinphonon.cli
        if not os.path.abspath(spinphonon.cli.__file__).startswith(SRC):
            print(f"spinphonon imported from {spinphonon.cli.__file__}, "
                  f"not {SRC}", file=sys.stderr)
            return 2
        capture = Capture(getattr(wl, "capture", None))
        tracer, verb = None, spinphonon.cli.main
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            verb = tracer.verb(verb)
        times, failures = [], []
        start = time.perf_counter()
        with open(os.path.join(work, "cli.log"), "w") as log:
            while True:
                elapsed, per_op = one_round(wl, len(times), verb, capture,
                                            log)
                times.append(elapsed)
                failures += per_op
                spent = time.perf_counter() - start
                if spent + spent / len(times) > args.seconds:
                    break
        if tracer is not None:
            tracer.remove()
        # setup is short, so it is also sampled at the end of the run, to
        # span the same stretch of machine time as the rounds
        setup += [setup_once(wl.config) for _ in range(SETUP_REPS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed = [f for f in failures if f]
    correct = all(x.known for f in failed for x in f)
    verb_s = statistics.median(times)
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "verb_s": {"value": verb_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(len(times))

    env = {"nproc": nproc, "blas": blas_build(),
           "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
           "sweep_threads": 1}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "setup_s": setup,
              "verb_s": times,
              "failures": sorted({repr(x) for f in failed for x in f}),
              "metrics": metrics}
    if tracer is not None:
        record["spans"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh)

    print(f"env: {json.dumps(env)}")
    print(f"{wl.verb} rounds{' (traced)' if tracer else ''}: "
          f"{' '.join(f'{t:.3f}' for t in times)} s")
    if tracer is None:
        alias = {"relax": ("relax_s", verb_s, "s"),
                 "dos": ("dos_s", verb_s, "s"),
                 "sweep": ("sweep_points_per_s", wl.ops_per_round / verb_s,
                           "points/s")}[wl.verb]
        print(f"{alias[0]} = {alias[1]:.6g} {alias[2]}")
    for why in record["failures"]:
        print(f"failed: {why}")
    print(json.dumps({"correct": correct, "attempted": len(failures),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
