"""qdissect benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
src directory, so nothing has to be built or installed.  Each pass of a
workload runs in a fresh child process (bench/child.py), one at a time,
in a closed loop: the next pass starts when the previous one has ended.
Passes repeat until S seconds have gone and enough item latencies are
pooled for the 90th percentile to keep ten samples beyond it.

After every pass a second child runs fixed reference work
(bench/reference.py).  The pass's times are divided by the reference's
speed relative to REFERENCE_NOMINAL_S, so they read as times on a
machine where one repetition of the reference takes that long.  This
takes out the drift of a shared host; the raw wall times are printed
with the run's context.

With --trace 0 the last line of output holds the end-to-end metrics:
set-up time, run time, item latency p50/p90 and peak memory of a pass.
With --trace 1 traced and untraced passes alternate, and the last line
holds the per-layer metrics of the traced passes, the tracing overhead
among them.  The line before it holds the run's context: seed, order,
Python version, CPU, pass and sample counts, the failure ratio, and for
traced runs the per-record cache deltas.

The parent judges every pass against a known answer (all records pass,
exit code 0) or an independent oracle (counting_series), and counts a
pass that crashes or times out as failing all of its items.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Every run must end within 180 s; leave room for the last pass to finish.
HARD_LIMIT_S = 170.0
# p90 needs at least ten samples beyond it.
MIN_ITEM_SAMPLES = 100
MIN_TRACED_PASSES = 2
# Typical time of one reference repetition on the two-vCPU KVM guest
# (Intel Xeon, CPython 3.11) the benchmark was written on.
REFERENCE_NOMINAL_S = 0.040


def now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child can compare
    # its own readings with the time at which the parent started it.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Child:
    def __init__(self, workload: str, seed: int, order: int):
        self.base = {"workload": workload, "seed": seed, "order": order}
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.errors: list[str] = []

    def _last_line(self, argv: list[str], what: str, timeout: float):
        """Run argv to completion and parse its last output line as JSON
        (None on a crash, a nonzero exit or a timeout, noted in errors)."""
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{what} child timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{what} child exit {proc.returncode}: {tail[0]}")
            return None
        if proc.stderr.strip():
            self.errors.append(proc.stderr.strip().splitlines()[-1])
        return json.loads(lines[-1])

    def run(self, timeout: float, **config) -> dict | None:
        """One child.py process; set-up is timed from just before it starts."""
        config = dict(self.base, **config, t_spawn=now())
        argv = [sys.executable, str(BENCH / "child.py"), json.dumps(config)]
        return self._last_line(argv, config["mode"], timeout)

    def reference(self, timeout: float) -> list[float] | None:
        """Times of the reference repetitions, run in a process of their own."""
        return self._last_line([sys.executable, str(BENCH / "reference.py")], "reference", timeout)


def expected_items(workload: str, seed: int, order: int, modules) -> tuple[list, float]:
    """The items a pass must get right, with what right means, and the
    oracle's own time (expand-partitions only)."""
    combinatorics, identities, qexpr = modules
    if workload == "verify-registry":
        current = sorted(r.id for r in identities.registry())
        return wl.expected_ids(wl.SEED_REGISTRY_IDS, current), 0.0
    if workload == "theta-lemmas":
        current = [r.id for r in wl.theta_lemma_records(qexpr, identities.registry())]
        return wl.expected_ids(wl.SEED_THETA_LEMMA_IDS, current), 0.0
    items = wl.partition_items(seed)
    t = time.perf_counter()
    digests = wl.partition_oracle(combinatorics, items, order)
    return list(zip(items, digests)), time.perf_counter() - t


def failures(workload: str, expected: list, report: dict | None) -> int:
    if report is None:
        return len(expected)
    if workload == "expand-partitions":
        items = [item for item, _ in expected]
        return len(wl.expand_failures(items, [d for _, d in expected], report["digests"]))
    return len(wl.verify_failures(expected, report["outcomes"], report["exit_code"]))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qdissect" / "__init__.py").is_file():
        print(f"error: no qdissect package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qdissect import combinatorics, identities, qexpr

    start = now()
    order = wl.ORDERS[args.workload]
    child = Child(args.workload, args.seed, order)

    def remaining() -> float:
        return HARD_LIMIT_S - (now() - start)

    # An unrecorded first child warms the file cache and the bytecode cache.
    if child.run(remaining(), mode="setup") is None:
        print(f"error: set-up failed: {child.errors[-1]}", file=sys.stderr)
        return 2
    expected, oracle_s = expected_items(
        args.workload, args.seed, order, (combinatorics, identities, qexpr))
    # The reference runs before the first pass and after every pass, so each
    # pass is bracketed by two and its speed is taken from both.
    ref_before = child.reference(remaining())

    untraced: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    speeds: list[float] = []
    attempted = failed = 0
    deadline = start + args.seconds
    plan = (False, True) if args.trace else (False,)

    def enough() -> bool:
        if args.trace:
            return min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
        return sum(len(p["latencies_s"]) for p in untraced) >= MIN_ITEM_SAMPLES

    while True:
        is_traced = plan[len(walls) % len(plan)]
        t = now()
        report = child.run(remaining(), mode="pass", trace=is_traced)
        ref_after = child.reference(remaining())
        walls.append(now() - t)
        if ref_before is None or ref_after is None:
            print(f"error: reference failed: {child.errors[-1]}", file=sys.stderr)
            return 2
        speed = REFERENCE_NOMINAL_S / statistics.median(ref_before + ref_after)
        speeds.append(speed)
        ref_before = ref_after
        attempted += len(expected)
        failed += failures(args.workload, expected, report)
        if report is not None:
            report["speed"] = speed
            (traced if is_traced else untraced).append(report)
        next_end = now() + statistics.median(walls)
        if next_end >= deadline and (enough() or report is None):
            break
        if next_end >= start + HARD_LIMIT_S:
            break

    if not untraced or (args.trace and not traced):
        print(f"error: no pass completed: {'; '.join(child.errors[-3:])}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "order": order,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "items_per_pass": len(expected),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "fail_ratio": failed / attempted,
        "wall_s": now() - start,
        "speed_per_pass": [round(x, 4) for x in speeds],
        "raw_run_s_per_pass": [round(p["run_s"], 4) for p in untraced],
        "errors": child.errors[:10],
    }
    if args.trace:
        metrics = trace_metrics(traced, untraced, oracle_s, info)
    else:
        metrics = end_to_end_metrics(untraced, untraced + traced, info)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def scaled_median(passes: list[dict], key: str) -> float:
    """Median over passes of a time, each at the reference machine's speed."""
    return statistics.median(p[key] * p["speed"] for p in passes)


def end_to_end_metrics(untraced: list[dict], passes: list[dict], info: dict) -> dict:
    """Set-up is sampled by every pass, traced or not; the rest by untraced ones."""
    def percentiles(scale: bool) -> tuple[float, float]:
        ms = [1000.0 * x * (p["speed"] if scale else 1.0)
              for p in untraced for x in p["latencies_s"]]
        return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]

    p50, p90 = percentiles(True)
    raw_p50, raw_p90 = percentiles(False)
    info["item_samples"] = sum(len(p["latencies_s"]) for p in untraced)
    info["setup_samples"] = len(passes)
    info["raw"] = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_s": statistics.median(p["run_s"] for p in untraced),
        "item_p50_ms": raw_p50,
        "item_p90_ms": raw_p90,
    }
    values = {
        "setup_s": (scaled_median(passes, "setup_s"), "s"),
        "run_s": (scaled_median(untraced, "run_s"), "s"),
        "item_p50_ms": (p50, "ms"),
        "item_p90_ms": (p90, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in untraced) / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# Units of per-layer metrics by name suffix; every other one is a time in s.
_UNITS = {"calls": "count", "operand_terms": "count", "max_coeff_bits": "bits",
          "nonzero_frac": "ratio", "hit_ratio": "ratio", "repeat_ratio": "ratio",
          "self_coverage": "ratio"}


def unit_of(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[1], "s")


def trace_metrics(traced, untraced, oracle_s, info) -> dict:
    passes = untraced + traced
    values = {
        n: statistics.median(
            p["layers"][n] * (p["speed"] if unit_of(n) == "s" else 1.0) for p in traced)
        for n in traced[0]["layers"]
    }
    traced_run_s = scaled_median(traced, "run_s")
    values["trace.run_s"] = traced_run_s
    values["trace.overhead_s"] = traced_run_s - scaled_median(untraced, "run_s")
    values["identities.registry.build_s"] = scaled_median(passes, "registry_s")
    values["cli.import_s"] = scaled_median(passes, "import_s")
    values["combinatorics.counting_series.self_s"] = (
        oracle_s * statistics.median(p["speed"] for p in passes))
    info["record_caches"] = {
        "columns": ["pochhammer_hits", "pochhammer_misses", "theta_f_hits", "theta_f_misses"],
        "records": traced[0]["record_caches"],
    }
    return {n: {"value": v, "unit": unit_of(n)} for n, v in sorted(values.items())}


if __name__ == "__main__":
    sys.exit(main())
