"""Span recorder for the traced benchmark run.

While a traced run lasts, :func:`install` replaces the public functions of
each lindosc module, as module attributes, with wrappers that record a span
whenever a call enters a layer from outside it.  Because lindosc's modules
call each other through module attributes, nested calls are caught too:
``dynamics.evolve`` calling ``entropy.report`` opens an ``entropy`` span
under the ``dynamics`` one.  A call from a layer into itself opens no span
(its time already belongs to that layer) but still updates the counters.

Spans are kept in memory as ``(id, parent, name, start, end, item)`` tuples
and written out once the run ends.  Counters come from call arguments and
results only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("model", "decomposition", "entropy", "dynamics", "sieve", "wigner",
          "serialize", "cli")

#: Per-element helpers that only their own layer calls.  Wrapping them would
#: record no span and would add a wrapper call per CSV field or RK4 stage,
#: which inflates the very layer times the trace is meant to measure.
UNWRAPPED = {("serialize", "fmt17"), ("dynamics", "rhs_sigma"),
             ("dynamics", "rhs_mean"), ("decomposition", "rotation")}

ROOT = 0


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = [(ROOT, "bench")]
        self.next_id = ROOT + 1
        self.item = -1
        self.counts = defaultdict(int)
        self.cli_ms = defaultdict(list)

    def enter(self, layer):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0]
        self.stack.append((sid, layer))
        return sid, parent

    def leave(self, sid, parent, name, start, end):
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end, self.item))

    def run_item(self, index, fn, *args):
        """Call ``fn(*args)`` under a root ``bench.item`` span."""
        self.item = index
        sid, parent = self.enter("bench")
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.leave(sid, parent, "bench.item", start, perf_counter())

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Map span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, *_ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, *_ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


# --- counters --------------------------------------------------------------
# Each hook gets (recorder, args, result, crossing).  ``args()`` binds the
# call's arguments, which costs more than the counting itself, so a hook
# calls it only when it reads them.  ``crossing`` is true when the call
# entered its layer from outside.

def _evolve(rec, args, result, crossing):
    a = args()
    dt, t_final = a["dt"], a["t_final"]
    rec.counts["dynamics.steps"] += 0 if t_final == 0 else round(t_final / dt)
    rec.counts["dynamics.samples"] += len(result.t)


def _wigner_eval(rec, args, result, crossing):
    rec.counts["wigner.evals"] += 1


def _wigner_grid(rec, args, result, crossing):
    rec.counts["wigner.grid_points"] += args()["spec"].n_points ** 2


def _grid_search(rec, args, result, crossing):
    a = args()
    n_a = len(a["aleph_grid"]) if a.get("aleph_grid") is not None else a["n_aleph"]
    n_t = len(a["theta_grid"]) if a.get("theta_grid") is not None else a["n_theta"]
    rec.counts["sieve.grid_cells"] += n_a * n_t


def _landscape(rec, args, result, crossing):
    a = args()
    rec.counts["sieve.grid_cells"] += a["n_aleph"] * a["n_theta"]


def _csv(rec, args, result, crossing):
    # Only the outermost serialize call counts, so nested writers do not
    # count the same bytes twice.
    if crossing:
        with open(args()["path"], "rb") as fh:
            data = fh.read()
        rec.counts["serialize.rows"] += max(data.count(b"\n") - 1, 0)
        rec.counts["serialize.bytes"] += len(data)


def _dumps(rec, args, result, crossing):
    if crossing:
        rec.counts["serialize.bytes"] += len(result.encode())


HOOKS = {
    ("dynamics", "evolve"): _evolve,
    ("wigner", "wigner_eval"): _wigner_eval,
    ("wigner", "wigner_grid"): _wigner_grid,
    ("sieve", "grid_search"): _grid_search,
    ("sieve", "rate_landscape"): _landscape,
    ("serialize", "write_csv"): _csv,
    ("serialize", "dumps"): _dumps,
    ("serialize", "Trajectory.to_csv"): _csv,
}


def _wrap(rec, layer, qualname, fn, positivity_lost):
    hook = HOOKS.get((layer, qualname))
    sig = inspect.signature(fn) if hook else None
    name = f"{layer}.{qualname}"
    is_cli_main = name == "cli.main"

    def count(args, kwargs, result, crossing):
        if hook:
            def arguments():
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments
            hook(rec, arguments, result, crossing)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.stack[-1][1] == layer:
            result = fn(*args, **kwargs)
            count(args, kwargs, result, False)
            return result
        sid, parent = rec.enter(layer)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except positivity_lost:
            rec.counts["dynamics.positivity_lost"] += layer == "dynamics"
            raise
        finally:
            end = perf_counter()
            rec.leave(sid, parent, name, start, end)
        if is_cli_main:
            argv = args[0] if args else kwargs.get("argv")
            rec.cli_ms[argv[0] if argv else "?"].append((end - start) * 1e3)
        count(args, kwargs, result, True)
        return result

    return wrapper


def install(rec):
    """Wrap every public function of each lindosc layer; return an undo list."""
    errors = importlib.import_module("lindosc.errors")
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"lindosc.{layer}")
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or (layer, attr) in UNWRAPPED):
                continue
            setattr(mod, attr, _wrap(rec, layer, attr, obj, errors.PositivityLost))
            undo.append((mod, attr, obj))
    # Trajectory.to_csv is a CSV writer living in dynamics; it counts as
    # serialization so the metric does not depend on where the writer sits.
    dynamics = importlib.import_module("lindosc.dynamics")
    traj = getattr(dynamics, "Trajectory", None)
    if traj is not None and "to_csv" in vars(traj):
        orig = vars(traj)["to_csv"]
        setattr(traj, "to_csv",
                _wrap(rec, "serialize", "Trajectory.to_csv", orig, errors.PositivityLost))
        undo.append((traj, "to_csv", orig))
    return undo


def uninstall(undo):
    for owner, attr, obj in reversed(undo):
        setattr(owner, attr, obj)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(rec, run_s_traced, run_s_plain):
    """Per-layer metrics from the spans and counters of one traced run."""
    selfs = self_times(rec.spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    fp_s = []
    for span in rec.spans:
        layer = span[2].split(".", 1)[0]
        self_s[layer] += selfs[span[0]]
        calls[layer] += 1
        if span[2] == "wigner.fp_residual":
            fp_s.append(span[4] - span[3])
    c = rec.counts
    m = {}
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["dynamics.steps"] = (c["dynamics.steps"], "count")
    m["dynamics.samples"] = (c["dynamics.samples"], "count")
    m["dynamics.us_per_step"] = (_ratio(self_s["dynamics"], c["dynamics.steps"], 1e6), "us")
    m["dynamics.positivity_lost"] = (c["dynamics.positivity_lost"], "count")
    m["entropy.us_per_call"] = (_ratio(self_s["entropy"], calls["entropy"], 1e6), "us")
    m["wigner.evals"] = (c["wigner.evals"], "count")
    m["wigner.grid_points"] = (c["wigner.grid_points"], "count")
    m["wigner.us_per_fp_residual"] = (_ratio(sum(fp_s), len(fp_s), 1e6), "us")
    m["serialize.rows"] = (c["serialize.rows"], "count")
    m["serialize.bytes"] = (c["serialize.bytes"], "B")
    m["serialize.ns_per_byte"] = (_ratio(self_s["serialize"], c["serialize.bytes"], 1e9), "ns")
    m["sieve.grid_cells"] = (c["sieve.grid_cells"], "count")
    m["sieve.ns_per_cell"] = (_ratio(self_s["sieve"], c["sieve.grid_cells"], 1e9), "ns")
    m["decomposition.us_per_call"] = (
        _ratio(self_s["decomposition"], calls["decomposition"], 1e6), "us")
    for cmd in ("validate", "evolve", "sieve", "sweep", "wigner"):
        times = rec.cli_ms.get(cmd)
        m[f"cli.{cmd}_ms"] = (statistics.median(times) if times else 0.0, "ms")
    m["trace.overhead"] = (run_s_traced / run_s_plain - 1.0, "ratio")
    m["trace.coverage"] = (sum(self_s[layer] for layer in LAYERS) / run_s_traced, "ratio")
    return m
