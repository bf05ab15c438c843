"""imptool benchmark.

    python3 bench/run.py --workload {differential,verify,longrun} --seed N --seconds S --trace {0,1}

Runs one workload in a closed loop (one call in flight, one process, one
thread) for about S seconds and prints a report, then, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a traced pass.  See README.md in
this directory for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_BATCHES = 3
MIN_CYCLES = 2
# The speed of a shared host drifts by tens of percent within minutes, so the
# gated times are scaled to a machine on which one reference sample (the
# geometric mean of the two loops below) takes REF_SECONDS.  Both loops are
# pure Python and touch no imptool code, so a change to imptool moves the
# scaled times exactly as much as the raw ones.
REF_SECONDS = 0.013
SAMPLE_GAP_S = 0.25

clock = time.perf_counter


def _ref_arith() -> int:
    s = 0
    for i in range(150_000):
        s += i * i
    return s


def _ref_alloc() -> int:
    """Keeps every configuration of a counting loop, as star_run does."""
    trace = []
    cfg = (0, {"i": 0, "s": 0})
    for _ in range(25_000):
        pc, env = cfg
        env = dict(env)
        env["i"] += 1
        env["s"] += env["i"]
        cfg = (pc + 1, env)
        trace.append(cfg)
    return len(trace)


class Speed:
    """Reference samples taken between timed regions, at most one per
    SAMPLE_GAP_S seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def tick(self) -> None:
        if clock() - self.last >= SAMPLE_GAP_S:
            self.sample()

    def sample(self) -> None:
        t0 = clock()
        _ref_arith()
        t1 = clock()
        _ref_alloc()
        t2 = clock()
        self.samples.append(math.sqrt((t1 - t0) * (t2 - t1)))
        self.last = t2

    def scale(self, first: int = 0) -> float:
        """Scale factor from the samples taken since sample `first`."""
        return REF_SECONDS / statistics.median(self.samples[first:])

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import imptool; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import imptool in a fresh interpreter (startup excluded)."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Outcome:
    """Operations attempted and failed, with the first few errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors += result.errors[: max(0, 20 - len(self.errors))]

    def same(self, first, again, what: str) -> None:
        """Determinism check: the same inputs must give the same counts."""
        self.attempted += 1
        if first != again:
            self.failed += 1
            self.errors.append(f"{what}: counts differ between two runs of the same inputs")


def setup(workload: str, seed: int, sizes, speed: Speed):
    """Import plus building every workload's inputs, repeated; returns the
    median time and this workload's inputs."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        seconds = import_seconds()
        t0 = clock()
        built = {name: wl.build(seed, sizes) for name, wl in workloads.WORKLOADS.items()}
        times.append(seconds + clock() - t0)
    return statistics.median(times), built[workload]


def measure(wl, inputs, seconds: float, outcome: Outcome, speed: Speed):
    """Untraced batches until the time is up; batch i has its own inputs.
    Each batch time is scaled by the reference samples taken just before and
    during it.

    Batch 0 runs once untimed first, to warm the allocator and caches, and
    its counts are the reference for the determinism check."""
    warmup = wl.run_batch(inputs, 0)
    outcome.add(warmup)
    results = []
    start = clock()
    while True:
        first = len(speed.samples)
        speed.sample()
        result = wl.run_batch(inputs, len(results), speed.tick)
        result.scaled_s = result.seconds * speed.scale(first)
        outcome.add(result)
        results.append(result)
        elapsed = clock() - start
        typical = statistics.median(r.seconds for r in results)
        if len(results) >= MIN_BATCHES and elapsed + typical > seconds:
            break
    for r in results if wl.repeats_content else results[:1]:
        outcome.same(warmup.signature, r.signature, "batch 0")
    return results


def measure_traced(wl, inputs, seconds: float, outcome: Outcome):
    """Cycles over the first few batches: each cycle runs them untraced, then
    traced.  Returns the per-layer metrics, the tracing overhead and the
    details for the report."""
    import tracing

    cycles = []
    start = clock()
    while True:
        plain = [wl.run_batch(inputs, i) for i in range(wl.trace_batches)]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = [wl.run_batch(inputs, i) for i in range(wl.trace_batches)]
        for p, t in zip(plain, traced):
            outcome.add(p)
            outcome.add(t)
            outcome.same(p.signature, t.signature, "traced batch")
        summary = tracer.summary()
        cycles.append((sum(r.seconds for r in plain), sum(r.seconds for r in traced), summary, tracer.missing))
        elapsed = clock() - start
        if len(cycles) >= MIN_CYCLES and elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            break
    counts = cycles[0][2].layer_counts()
    for cycle in cycles[1:]:
        outcome.same(counts, cycle[2].layer_counts(), "traced cycle")
    per_cycle = [c[2].layer_times() for c in cycles]
    times = {k: statistics.median(t[k] for t in per_cycle) for k in per_cycle[0]}
    metrics = tracing.layer_metrics(counts, times)
    metrics["trace.overhead_pct"] = statistics.median((t / p - 1.0) * 100.0 for p, t, _, _ in cycles)
    details = {
        "cycles": len(cycles),
        "batches_per_cycle": wl.trace_batches,
        "untraced_cycle_s": [p for p, _, _, _ in cycles],
        "traced_cycle_s": [t for _, t, _, _ in cycles],
        "spans_per_cycle": sum(cycles[0][2].calls.values()),
        "unwrapped": cycles[0][3],
        "counts_digest": digest(counts),
    }
    return metrics, details


def peak_mb(wl, inputs, outcome: Outcome) -> float:
    """Peak traced allocation over batch 0, in a separate untimed pass."""
    tracemalloc.start()
    try:
        outcome.add(wl.run_batch(inputs, 0))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run(workload: str, seed: int, seconds: float, trace: bool, sizes) -> tuple[dict, dict]:
    """One benchmark run: returns the result line and the report."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    setup_speed = Speed()
    setup_s, inputs = setup(workload, seed, sizes, setup_speed)
    outcome = Outcome()
    report: dict = {}
    if trace:
        layer, report["trace"] = measure_traced(wl, inputs, seconds, outcome)
        layer["memory.peak_mb"] = peak_mb(wl, inputs, outcome)
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in sorted(layer.items())}
    else:
        speed = Speed()
        results = measure(wl, inputs, seconds, outcome, speed)
        metrics = {
            "batch_s": {"value": statistics.median(r.scaled_s for r in results), "unit": "s"},
            "setup_s": {"value": setup_s * setup_speed.scale(), "unit": "s"},
        }
        report["batches"] = len(results)
        report["batch_s_raw"] = [r.seconds for r in results]
        report["batch_s_scaled"] = [r.scaled_s for r in results]
        report["reference_s"] = statistics.median(speed.samples)
        report["reference_samples"] = len(speed.samples)
        report["workload_metrics"] = workloads.report_metrics(workload, results)
        report["counts_digest"] = digest(results[0].signature)
    report["setup_s_raw"] = setup_s
    report["setup_reference_s"] = statistics.median(setup_speed.samples)
    report["errors"] = outcome.errors
    line = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("differential", "verify", "longrun"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "imptool" / "__init__.py").is_file():
        print(f"error: no imptool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    report = {"environment": environment(args), **report}
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
