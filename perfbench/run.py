#!/usr/bin/env python3
"""geomlab benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload willmore-drop --seed 1 --seconds 30 --trace 0

Run from the root of a geomlab source checkout; the package is imported
from ``src``.  The workloads are listed in BENCHMARK.json and described,
with the reasoning behind the timing method, in perfbench/README.md.

Shared machines change speed by up to half for tens of seconds at a
time, so every time here is taken next to a fixed reference computation
(numpy and Python work unrelated to geomlab) and reported at the
reference's nominal speed: time * REF_S / reference time.

--trace 0 prints the end-to-end metrics:
  setup_s      import of geomlab and the first pass's inputs, each probe
               in a fresh interpreter; the median over SETUP_PROBES probes;
  wall_s       one pass: over the operations of the pass, the sum of each
               operation's lower-quartile normalised time over the passes
               run in --seconds seconds;
  peak_rss_mb  peak resident memory of this process, which runs the passes.
--trace 1 alternates untraced and traced passes for --seconds seconds and
prints the per-layer metrics: counts from the first traced pass, self
times as medians over the traced passes, and the tracing overhead.  The
spans are written to .perfbench_runs/trace-<workload>-seed<seed>.csv.

Every pass's outputs are checked; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

# numpy, geomlab and the benchmark's own modules are imported inside the
# functions that use them, so that a set-up probe times their import
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 15
REF_S = 0.012   # the reference's time running alone on a quiet 2.1 GHz Xeon core


class Reference:
    """A fixed computation unrelated to geomlab whose time tracks the
    machine's current speed: a Python loop over tiny numpy arrays, then
    streaming passes over a 1 MiB array."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((1000, 3, 3))
        self.big = rng.standard_normal(1 << 17)
        self.time()   # first calls into numpy are slower

    def time(self):
        import numpy as np
        t0 = time.perf_counter()
        acc = 0.0
        for m in self.small:
            acc += float(np.einsum("ij,ji->", m, m))
        for _ in range(4):
            acc += float(np.dot(np.sin(self.big), self.big))
        return time.perf_counter() - t0


def pass_rng(seed, k):
    import numpy as np
    return np.random.default_rng([seed, k])


def setup_probe(workload, seed):
    """Normalised time to import geomlab and build the first pass's inputs
    (run in a fresh interpreter: the caller starts one per probe)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]
    work = workloads.fresh_dir(os.path.join(RUNS, f"probe-{workload}-{os.getpid()}"))
    try:
        wl.prepare(wl.draw(pass_rng(seed, 0)), work)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = Reference()
    return elapsed * REF_S / statistics.median(ref.time() for _ in range(3))


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Passes:
    """Runs whole passes of a workload and keeps the books on them."""

    def __init__(self, wl, seed, work):
        self.wl, self.seed, self.work = wl, seed, work
        self.ref = Reference()
        self.ref_times = []
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self):
        """One pass with freshly drawn parameters.  Returns, per operation,
        (seconds, normalised seconds); the reference runs before the first
        operation and after each one."""
        from workloads import fresh_dir
        k = self.count
        self.count += 1
        params = self.wl.draw(pass_rng(self.seed, k))
        fresh_dir(self.work)
        self.wl.prepare(params, self.work)
        ops = self.wl.operations(params, self.work)
        ok, times = {}, {}
        ref_before = self.ref.time()
        for label, op in ops:
            t0 = time.perf_counter()
            try:
                ok[label] = bool(op())
            except Exception:  # a crashing operation counts as failed
                traceback.print_exc()
                ok[label] = False
            elapsed = time.perf_counter() - t0
            ref_after = self.ref.time()
            ref = 0.5 * (ref_before + ref_after)
            times[label] = (elapsed, elapsed * REF_S / ref)
            self.ref_times.append(ref)
            ref_before = ref_after
        self.attempted += len(ops)
        self.failed += sum(not v for v in ok.values())
        for msg in self.wl.check(params, self.work, ok):
            self.problems.append(f"pass {k}: {msg}")
        return times


def lower_quartile(values):
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def pass_time(per_pass, column):
    """Sum over operations of the lower quartile over passes of one time
    column: slow spells on a shared machine only ever add time."""
    return sum(lower_quartile(p[label][column] for p in per_pass)
               for label in per_pass[0])


def end_to_end(wl, args, work, setup_s):
    passes = Passes(wl, args.seed, work)
    per_pass = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < args.seconds:
        per_pass.append(passes.run())
    raw = [sum(t for t, _ in p.values()) for p in per_pass]
    print(f"{wl.name}: {len(per_pass)} passes; raw pass s min {min(raw):.4f} "
          f"median {statistics.median(raw):.4f} max {max(raw):.4f}; reference s "
          f"median {statistics.median(passes.ref_times):.4f}; normalised lower "
          "quartile per operation " + ", ".join(
              f"{label} {lower_quartile(p[label][1] for p in per_pass):.4f}"
              for label in per_pass[0]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (pass_time(per_pass, 1), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    return passes, metrics


def traced(wl, args, work, layer_units):
    import spans
    tracer = spans.Tracer()
    passes = Passes(wl, args.seed, work)
    plain, traced_passes, per_pass = [], [], []
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < args.seconds:
        if passes.count % 2 == 0:
            plain.append(passes.run())
            continue
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced_passes.append(passes.run())
        finally:
            tracer.uninstall()
        per_pass.append(spans.layer_metrics(tracer.take_stats()))
        per_pass[-1]["trace.spans"] = len(tracer.spans) - first_span
    os.makedirs(RUNS, exist_ok=True)
    tracer.write(os.path.join(RUNS, f"trace-{wl.name}-seed{args.seed}.csv"))
    print(f"{wl.name}: {len(plain)} untraced and {len(traced_passes)} traced passes, "
          f"{len(tracer.spans)} spans")

    metrics = {}
    for name, unit in layer_units.items():
        if name == "trace.overhead_pct":
            value = 100.0 * (pass_time(traced_passes, 1) / pass_time(plain, 1) - 1.0)
        elif unit == "s":
            value = statistics.median(p.get(name, 0.0) for p in per_pass)
        else:
            value = per_pass[0].get(name, 0)
        metrics[name] = (value, unit)
    return passes, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(RUNS, f"{wl.name}-{os.getpid()}")
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            passes, metrics = traced(wl, args, work, units)
        else:
            passes, metrics = end_to_end(wl, args, work, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in passes.problems:
        print(f"CHECK FAILED {msg}")
    result = {
        "correct": not passes.problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
