"""lindosc benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lindosc source tree; the package is imported from
``src/``.  A single thread in a single process, kept to one CPU, runs items
back to back, each starting when the previous one has finished, for S
seconds, and checks every item's outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics.  ``setup_s`` is import plus input
  generation plus one warm-up item, the median over this process and
  SETUP_CHILDREN set-up-only child processes spread evenly through the
  measured loop.  ``items_per_s`` and ``item_p50_ms`` come from the item
  latencies alone (see ``item_stats``).  All three are scaled to the
  reference host's idle speed by a probe timed between items (see
  ``hostspeed.py``); their raw values are printed as ``raw_*``.
* ``--trace 1``: per-layer metrics.  Each item runs untraced and then again
  with span wrappers installed (see ``spans.py``); the spans are written to
  ``.bench_out/<workload>.spans.jsonl``.

The lines before the JSON add the error rate, the item tail latency with its
percentile and item count, and counts of known defects.  A fuller report
(environment, per-slice figures, failures, output digests) goes to
``.bench_out/<workload>.trace<0|1>.json``.
"""

from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402

# BLAS and OpenMP pools must be pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The run, set-up children included, keeps to one CPU: the host's CPUs
# differ in speed from moment to moment, and the host speed probe must see
# the CPU the items run on.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: Set-up is measured in this process and in this many child processes,
#: run between items at even intervals of the measured loop, so that a
#: spell of slow host hits set-up and items alike.
SETUP_CHILDREN = 8
#: The tail percentile needs at least ten items beyond it.
MIN_ITEMS = 11
#: The host speed probe runs after any item that ends this long after it
#: last ran.
PROBE_EVERY_S = 0.25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, run the warm-up item, print setup_s and exit")
    return p.parse_args(argv)


def import_lindosc():
    src = ROOT / "src"
    if not (src / "lindosc" / "__init__.py").is_file():
        raise SystemExit(f"error: no lindosc source tree under {src}")
    sys.path.insert(0, str(src))
    import lindosc
    if Path(lindosc.__file__).resolve().parent != (src / "lindosc").resolve():
        raise SystemExit(f"error: imported lindosc from {lindosc.__file__}, not {src}")


class Loop:
    """Closed loop over the input pool; one item at a time."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.next = 0
        self.attempted = 0
        self.failures = []
        self.tally = Counter()
        self.check_s = 0.0

    def item(self, run, tally=None):
        """Run and check the next item; return its latency in seconds.

        The latency covers ``run`` only; the check is timed apart, in
        ``check_s``."""
        k = self.next
        self.next += 1
        self.attempted += 1
        x = self.pool[k % len(self.pool)]
        t0 = perf_counter()
        try:
            out = run(k, x)
        except Exception as exc:  # the item fails; the run goes on
            dt = perf_counter() - t0
            self.failures.append((k, [f"{type(exc).__name__}: {exc}"]))
            return dt
        t1 = perf_counter()
        try:
            bad = self.workload.check(x, out, self.tally if tally is None else tally)
        except Exception:
            bad = ["check raised: " + traceback.format_exc(limit=2)]
        self.check_s += perf_counter() - t1
        if bad:
            self.failures.append((k, bad))
        return t1 - t0


def measure(step, seconds, probe=None, side=None, sides=0, cap=120.0):
    """Call ``step()`` until its calls have taken ``seconds`` and MIN_ITEMS
    are done; between them call ``side()`` ``sides`` times, at even
    intervals of the steps' time, outside it.  ``probe()`` runs first,
    around every side call, and after any step that ends PROBE_EVERY_S or
    more after its last run.

    Return the step results and the side results, each paired with the
    index of the last probe sample before it, the probe samples and the
    steps' time."""
    probe = probe or (lambda: 0.0)
    out, side_out, probes = [], [], [probe()]
    busy = since = 0.0
    while True:
        if len(side_out) < sides and busy >= len(side_out) * seconds / sides:
            if since:
                probes.append(probe())
                since = 0.0
            side_out.append((side(), len(probes) - 1))
            probes.append(probe())
            continue
        t0 = perf_counter()
        out.append((step(), len(probes) - 1))
        dt = perf_counter() - t0
        busy += dt
        since += dt
        done = (busy >= seconds and len(out) >= MIN_ITEMS and len(side_out) == sides
                or busy >= cap)
        if done or since >= PROBE_EVERY_S:
            probes.append(probe())
            since = 0.0
        if done:
            return out, side_out, probes, busy


#: A run is cut into at most SLICES slices of at least SLICE_ITEMS
#: consecutive items, and items_per_s is the median of the slices' rates,
#: so that slices the host speed scaling misjudges do not set it.
SLICES = 20
SLICE_ITEMS = 10


def _slices(n, k):
    cuts = [round(i * n / k) for i in range(k + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def item_stats(lat):
    """items_per_s, p50 ms, tail ms and the tail's percentile of one run.

    A slice's rate is its item count over the sum of its item latencies, so
    the benchmark's own checks stay out of it.  The p50 is the median of all
    items; the tail is the highest percentile with at least ten items
    beyond it, over all items.
    """
    n = len(lat)
    rates = [(hi - lo) / sum(lat[lo:hi])
             for lo, hi in _slices(n, max(1, min(SLICES, n // SLICE_ITEMS)))]
    s = sorted(lat)
    tail = s[max(n - MIN_ITEMS, 0)] * 1e3, 100.0 * max(n - 10, 0) / n
    return statistics.median(rates), statistics.median(lat) * 1e3, tail, rates


def environment(args, np):
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_child(args):
    """setup_s of a fresh set-up-only process."""
    r = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"],
                       cwd=ROOT, capture_output=True, text=True, timeout=150)
    if r.returncode != 0:
        raise RuntimeError(f"set-up child failed: {r.stderr.strip()[-500:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    import_lindosc()
    import numpy as np

    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, np, workloads, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, np, workloads, tmp):
    wl = workloads.WORKLOADS[args.workload](ROOT, tmp)
    loop = Loop(wl, wl.inputs(args.seed))
    warm = loop.item(lambda k, x: wl.run(x))
    setup_s = perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"environment": environment(args, np), "warmup_ms": warm * 1e3}
    info = {}
    if hasattr(wl, "digests"):
        report["output_sha256"] = wl.digests()

    if args.trace:
        import spans
        rec = spans.Recorder()

        def paired():
            # The same item untraced, then traced: drift in machine speed
            # cancels out of the overhead ratio.
            plain = loop.item(lambda k, x: wl.run(x), tally=Counter())
            loop.next -= 1
            undo = spans.install(rec)
            try:
                return plain, loop.item(lambda k, x: rec.run_item(k, wl.run, x))
            finally:
                spans.uninstall(undo)

        pairs = [pair for pair, _ in measure(paired, args.seconds)[0]]
        plain_s = sum(p for p, _ in pairs)
        traced_s = sum(t for _, t in pairs)
        metrics = spans.layer_metrics(rec, traced_s, plain_s)
        metrics["sieve.rate_excess_violations"] = (
            loop.tally["sieve.rate_excess_violations"], "count")
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"{args.workload}.spans.jsonl")
        report.update(items=len(pairs), plain_run_s=plain_s, traced_run_s=traced_s,
                      spans=len(rec.spans))
    else:
        import hostspeed
        probe = hostspeed.Probe(wl.probe)
        loop.check_s = 0.0
        items, children, probes, run_s = measure(
            lambda: loop.item(lambda k, x: wl.run(x)), args.seconds,
            probe.sample, lambda: setup_child(args), SETUP_CHILDREN)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # This process's own set-up ended just before the first probe sample.
        setups = [(setup_s, 0)] + children
        lat = [dt for dt, _ in items]
        scaled = [dt / probe.slowness(probes, j) for dt, j in items]
        rate, p50, (tail_ms, tail_pct), rates = item_stats(scaled)
        raw_rate, raw_p50, _, _ = item_stats(lat)
        metrics = {
            "setup_s": (statistics.median(s / probe.slowness(probes, j)
                                          for s, j in setups), "s"),
            "items_per_s": (rate, "1/s"),
            "item_p50_ms": (p50, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        # Reported, not gated: the few slowest items of a run mostly measure
        # the other tenants of the host.
        info["item_tail_ms"] = (tail_ms, f"ms (p{tail_pct:.1f} of {len(lat)} items)")
        info["raw_setup_s"] = (statistics.median(s for s, _ in setups), "s")
        info["raw_items_per_s"] = (raw_rate, "1/s")
        info["raw_item_p50_ms"] = (raw_p50, "ms")
        info["host_slowness"] = (statistics.median(probes) / probe.ref_s, "ratio")
        # The share of the loop's time spent in the benchmark's own checks,
        # which no item metric includes.
        info["check_share"] = (loop.check_s / run_s, "ratio")
        report.update(items=len(lat), run_s=run_s, item_tail_ms=tail_ms,
                      tail_percentile=tail_pct, slice_items_per_s=rates,
                      setup_samples_s=[s for s, _ in setups], probe_samples_s=probes,
                      item_latencies_s=lat)

    failed = len(loop.failures)
    info["error_rate"] = (failed / loop.attempted, f"({failed}/{loop.attempted} items)")
    if not args.trace:
        for name in getattr(wl, "counts", ()):
            info[name] = (loop.tally[name], "count")
    report.update(attempted=loop.attempted, failed=failed,
                  failures=[{"item": k, "why": why} for k, why in loop.failures[:10]],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  info={k: v for k, (v, _u) in info.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{args.workload:16s} {name:30s} {value:14.6g} {unit}")
    for name, digest in report.get("output_sha256", {}).items():
        print(f"{args.workload:16s} sha256 {name:23s} {digest}")
    for k, why in loop.failures[:3]:
        print(f"  item {k} failed: {'; '.join(why)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
