"""Per-layer tracing from outside the program.

The tracer replaces public functions of each module with wrappers that
record a span (name, start, end, parent) per call, plus what the call
returned where a count needs it. Each function is wrapped under the name
its caller looks it up by: ``sweep.py`` calls
``spinphonon.sweep.assemble_redfield``, so that attribute is the one
replaced. A target that no longer exists is skipped, and the metrics
that need it are reported as absent.

Spans are kept in memory and written out when the run ends. The stack
of open spans is a plain list: the workloads run on one thread.
"""

import functools
import importlib
import time

import numpy as np

# (module or module.Class, attribute, span name); a span's layer is the
# part of its name before the first dot
TARGETS = (
    ("spinphonon.cli", "load_project", "project.load"),
    ("spinphonon.cli", "write_results", "project.write"),
    ("spinphonon.cli", "write_dos_csv", "project.write"),
    ("spinphonon.cli", "phonon_dos", "lattice.phonon_dos"),
    ("spinphonon.sweep", "phonon_spectrum", "lattice.phonon_spectrum"),
    ("spinphonon.lattice", "phonon_spectrum", "lattice.phonon_spectrum"),
    ("spinphonon.lattice", "decomposition_weights",
     "lattice.decomposition_weights"),
    ("spinphonon.sweep", "mode_tensor_derivatives",
     "coupling.mode_tensor_derivatives"),
    ("spinphonon.sweep.RelaxationPipeline", "couplings", "coupling.couplings"),
    ("spinphonon.sweep", "_tensor_to_operator", "coupling.tensor_to_operator"),
    ("spinphonon.sweep", "assemble_redfield", "redfield.assemble_redfield"),
    ("spinphonon.sweep", "extract_relaxation_time",
     "redfield.extract_relaxation_time"),
    ("spinphonon.redfield", "stationary_state", "redfield.stationary_state"),
    ("spinphonon.redfield", "propagate", "redfield.propagate"),
    ("spinphonon.cli", "run_sweep", "sweep.run_sweep"),
    ("spinphonon.sweep.RelaxationPipeline", "relax", "sweep.relax"),
    ("spinphonon.sweep.RelaxationPipeline", "redfield", "sweep.redfield"),
    ("spinphonon.sweep.RelaxationPipeline", "phonons", "sweep.phonons"),
    ("spinphonon.sweep.RelaxationPipeline", "mode_precursors",
     "sweep.mode_precursors"),
)


def _info_couplings(result):
    out, diag = result
    return {"n": len(out), "pruned": diag["pruned_modes"]}


def _info_precursors(result):
    return {"n": len(result[0])}


def _info_redfield(R):
    return {"n": R.n_couplings, "d": R.dimension, "channels": len(R.channels)}


# what a span keeps of its call's return value
INFO = {
    "coupling.couplings": _info_couplings,
    "sweep.mode_precursors": _info_precursors,
    "redfield.assemble_redfield": _info_redfield,
}

# per-layer self times: metric -> span names
SELF_TIME = {
    "project.load_s": ("project.load",),
    "project.write_s": ("project.write",),
    "lattice.spectrum_s": ("lattice.phonon_spectrum",),
    "lattice.dos_kernel_s": ("lattice.phonon_dos",),
    "lattice.decomposition_s": ("lattice.decomposition_weights",),
    "coupling.projection_s": ("coupling.mode_tensor_derivatives",),
    "coupling.operator_s": ("coupling.couplings", "coupling.tensor_to_operator"),
    "redfield.assembly_s": ("redfield.assemble_redfield",),
    "redfield.spectral_s": ("redfield.extract_relaxation_time",
                            "redfield.stationary_state", "redfield.propagate"),
    "sweep.self_s": ("sweep.run_sweep", "sweep.relax", "sweep.redfield",
                     "sweep.phonons", "sweep.mode_precursors"),
    "cli.self_s": ("cli.verb",),
}

# per-layer call counts: metric -> span name
CALLS = {
    "lattice.spectrum_calls": "lattice.phonon_spectrum",
    "coupling.projected_modes": "coupling.mode_tensor_derivatives",
    "sweep.points": "sweep.relax",
}

REDFIELD = "redfield"
MB = 1e6


def wrapper_cost_s(calls=20000, batches=5):
    """Time one wrapped call adds over a bare call (median of batches)."""
    def noop():
        return None
    traced = Tracer()._wrap(noop, "probe")
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return sorted(costs)[batches // 2]


def _resolve(path):
    """Module or module.Class named by a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class Tracer:
    """Records spans of wrapped calls; ``install`` and ``remove`` patch
    and restore the program's attributes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self.stack = []
        self.eig_in_redfield = 0
        self.installed = set()
        self._patched = []

    def _wrap(self, fn, name):
        spans, stack, info_of = self.spans, self.stack, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if info_of is not None:
                try:
                    spans[idx][4] = info_of(result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    pass
            return result
        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                continue
            self._patch(owner, attr, self._wrap(fn, name))
            self.installed.add(name)
        eig = np.linalg.eig

        @functools.wraps(eig)
        def counted_eig(*args, **kwargs):
            if any(self.spans[i][0].startswith(REDFIELD) for i in self.stack):
                self.eig_in_redfield += 1
            return eig(*args, **kwargs)
        self._patch(np.linalg, "eig", counted_eig)

    def remove(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def verb(self, fn):
        """``fn`` wrapped as the root span of one CLI call."""
        self.installed.add("cli.verb")
        return self._wrap(fn, "cli.verb")

    # -- metrics ---------------------------------------------------------------
    def self_times(self):
        """Span duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, rounds):
        """Per-layer metrics per traced round (``rounds`` of them)."""
        own = self.self_times()
        spans = self.spans
        out = {}

        def put(name, value, unit, needs):
            if all(n in self.installed for n in needs):
                out[name] = {"value": value, "unit": unit}

        for metric, names in SELF_TIME.items():
            total = sum(t for s, t in zip(spans, own) if s[0] in names)
            # a metric is absent only if none of its functions exist
            if any(n in self.installed for n in names):
                out[metric] = {"value": total / rounds, "unit": "s"}
        for metric, name in CALLS.items():
            put(metric, sum(s[0] == name for s in spans) / rounds, "count",
                (name,))

        precursors_of = {s[3]: s[4]["n"] for s in spans
                         if s[0] == "sweep.mode_precursors" and s[4]
                         and s[3] is not None}
        pairs = [(precursors_of[i], s[4]) for i, s in enumerate(spans)
                 if s[0] == "coupling.couplings" and s[4]
                 and i in precursors_of]
        put("coupling.retained_couplings",
            sum(c["n"] for _, c in pairs) / rounds, "count",
            ("coupling.couplings",))
        offered = sum(n for n, _ in pairs)
        kept = sum(n - c["pruned"] for n, c in pairs)
        put("coupling.retained_mode_share", kept / offered if offered else 0.0,
            "ratio", ("coupling.couplings", "sweep.mode_precursors"))

        asm = [(s[4], t) for s, t in zip(spans, own)
               if s[0] == "redfield.assemble_redfield"]
        asm_s = sum(t for _, t in asm)
        asm_n = sum(i["n"] for i, _ in asm if i)
        put("redfield.assembly_couplings_per_s",
            asm_n / asm_s if asm_s > 0 else 0.0, "1/s",
            ("redfield.assemble_redfield",))
        points = sum(s[0] == "sweep.relax" for s in spans)
        put("redfield.dense_eig_calls",
            self.eig_in_redfield / points if points else 0.0, "count",
            ("sweep.relax",))
        # computed, not measured: d^4 complex entries per channel
        tensor = max((i["d"] ** 4 * 16 * i["channels"] / MB
                      for i, _ in asm if i), default=0.0)
        put("redfield.tensor_mb", tensor, "MB", ("redfield.assemble_redfield",))

        children = {}
        for s in spans:
            if s[3] is not None:
                children[s[3]] = children.get(s[3], 0) + 1
        hits = sum(1 for i, s in enumerate(spans)
                   if s[0] in ("sweep.phonons", "sweep.mode_precursors")
                   and i not in children)
        put("sweep.cache_hits", hits / rounds, "count",
            ("sweep.phonons", "sweep.mode_precursors"))
        out["trace.overhead_s"] = {
            "value": len(spans) / rounds * wrapper_cost_s(), "unit": "s"}
        return out

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                 "parent": s[3], "info": s[4]} for s in self.spans]
