"""The traced benchmark still runs against the package.

bench/tracer.py wraps public names of the package from outside; a rename
there breaks the benchmark, not the package's own tests.  One short traced
pass of each workload catches that.  The traced multiply count of each
pass is a deterministic check on the work the evaluator does, free of
timing noise: it may not exceed the count the newest committed
BENCH_*.json records for the change it measured.  One untraced pass of
each workload at its full order is the wall-clock check: its run time may
not pass three times the median the newest committed BENCH_*.json that
measured the workload records for its change, and one short pass holds
its set-up time to the same bound.  The committed medians are scaled to
the benchmark's reference machine, so the wall-clock checks scale their
own pass the same way, by bench/reference.py runs just before and after
it, as bench/run.py does.
"""

import ast
import functools
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qdissect import combinatorics

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["verify-registry", "theta-lemmas", "expand-partitions"]


def bench_workloads():
    """bench/workloads.py, which is not a package module."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def child_pass(workload: str, order: int, trace: int) -> dict:
    """The result line of one bench/child.py pass in a fresh interpreter."""
    config = {
        "mode": "pass",
        "workload": workload,
        "seed": 1,
        "order": order,
        "trace": trace,
        "t_spawn": time.clock_gettime(time.CLOCK_MONOTONIC),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(config)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def reference_times() -> list[float]:
    """The repetition times of one bench/reference.py run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "reference.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@functools.cache
def reference_nominal_s() -> float:
    """REFERENCE_NOMINAL_S as bench/run.py assigns it, read without running
    that file."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [
                "REFERENCE_NOMINAL_S"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no REFERENCE_NOMINAL_S")


def scaled_pass(workload: str, order: int) -> dict:
    """The set-up and run times of one untraced pass at the reference
    machine's speed: bench/run.py's scaling, the reference run before and
    after the pass giving its speed."""
    before = reference_times()
    result = child_pass(workload, order, 0)
    after = reference_times()
    speed = reference_nominal_s() / statistics.median(before + after)
    return {key: result[key] * speed for key in ("setup_s", "run_s")}


@functools.cache
def traced_pass(workload: str) -> dict:
    return child_pass(workload, 200, 1)


def test_traced_theta_lemmas_pass():
    result = traced_pass("theta-lemmas")
    statuses = [status for _, status in result["outcomes"]]
    assert statuses == ["pass"] * 41
    assert result["layers"]["theta.theta_f.calls"] > 0


def test_traced_expand_partitions_pass():
    workloads = bench_workloads()
    result = traced_pass("expand-partitions")
    items = workloads.partition_items(1)
    assert result["digests"] == workloads.partition_oracle(combinatorics, items, 200)


def test_traced_verify_registry_pass():
    result = traced_pass("verify-registry")
    assert result["exit_code"] == 0
    assert len(result["outcomes"]) >= 114
    assert all(status == "pass" for _, status in result["outcomes"])


def test_bench_selftest():
    # Each of the benchmark's correctness gates passes a true result and
    # trips on a corrupted one.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "all checks pass"


def _label_key(path: Path) -> list:
    # BENCH_pr10 sorts after BENCH_pr4: runs of digits compare as numbers.
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", path.stem)]


def newest_committed(workload: str, read):
    """read(the workload's summary) in the newest BENCH_*.json where it is
    not None, or None if it is None in every file."""
    for path in sorted(ROOT.glob("BENCH_*.json"), key=_label_key, reverse=True):
        summary = json.loads(path.read_text()).get("summary", {})
        found = read(summary.get(workload, {}))
        if found is not None:
            return found
    return None


def committed_mul_calls(workload: str) -> float | None:
    """series.mul.calls of the change measured by the newest BENCH_*.json
    that traced this workload, or None if none did."""
    return newest_committed(
        workload, lambda s: s.get("traced", {}).get("series.mul.calls", {}).get("change"))


def committed_median(workload: str, metric: str) -> float | None:
    """The median of a metric of the change measured by the newest
    BENCH_*.json that measured this workload, or None if none did."""
    def median(summary):
        quartiles = summary.get(metric, {}).get("change_q1_median_q3")
        return quartiles[1] if quartiles else None

    return newest_committed(workload, median)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mul_calls_within_committed_bench(workload):
    # The multiply count does not depend on the order, so a short pass
    # compares with the figure of the full benchmark run.
    limit = committed_mul_calls(workload)
    if limit is None:
        pytest.skip(f"no committed BENCH_*.json traces {workload}")
    assert traced_pass(workload)["layers"]["series.mul.calls"] <= limit


# Profiles found by a scan in one pass of each workload at its order,
# with cold caches (expand-partitions on the specs of seed 1): the
# deterministic count of sequences read to learn their support.
SCAN_PINS = {"verify-registry": 210, "theta-lemmas": 2, "expand-partitions": 368}
# Prefix copies in the same passes: the series that enter a product with
# more terms than it reads, copied once there (TruncatedSeries._operand).
OPERAND_COPY_PINS = {"verify-registry": 18, "theta-lemmas": 0, "expand-partitions": 0}


def cold_pass(workload: str) -> list | None:
    """One pass of a workload at its order with cold caches, in process:
    the reports of verify_all, or None for expand-partitions, whose items
    are evaluated on the specs of seed 1."""
    from qdissect import identities, qexpr, theta

    for cache in (theta.theta_f, theta.pochhammer, qexpr._eval):
        cache.cache_clear()
    workloads = bench_workloads()
    order = workloads.ORDERS[workload]
    if workload == "expand-partitions":
        for _, text in workloads.partition_items(1):
            qexpr.evaluate(qexpr.parse(text), order)
        return None
    records = None
    if workload == "theta-lemmas":
        records = workloads.theta_lemma_records(qexpr, identities.registry())
    reports = identities.verify_all(order=order, records=records)
    assert all(r.status == "pass" for r in reports)
    return reports


def test_theta_lemmas_profiles_handed_over(monkeypatch):
    # A builder that knows where it wrote hands its support to the
    # profile: in one pass of the theta-lemmas records at their order no
    # theta_f series is scanned, and at most 2 profiles are found by a
    # scan (173 were before supports were handed over).  The other two
    # workloads' passes scan no more than their pins either.
    from qdissect import qexpr, series, theta

    thetas, scanned = [], []
    real_theta_f, real_profile = theta.theta_f, series.Profile

    def recording_theta_f(*args):
        thetas.append(real_theta_f(*args))
        return thetas[-1]

    recording_theta_f.cache_clear = real_theta_f.cache_clear  # for cold_pass

    def recording_profile(cs, support=None):
        if support is None:
            scanned.append(cs)
        return real_profile(cs, support)

    monkeypatch.setattr(theta, "theta_f", recording_theta_f)
    monkeypatch.setattr(qexpr, "theta_f", recording_theta_f)
    monkeypatch.setattr(series, "Profile", recording_profile)
    for workload, pin in SCAN_PINS.items():
        thetas.clear()
        scanned.clear()
        reports = cold_pass(workload)
        assert len(scanned) <= pin, (workload, len(scanned))
        if workload == "theta-lemmas":
            assert thetas and len(reports) == 41
            assert not {id(t._coeffs) for t in thetas} & set(map(id, scanned))


def test_operands_cut_once_per_pass(monkeypatch):
    # A series is cut to what a product reads where it enters the product,
    # and nowhere below: in one pass of each workload no _mul_lists call,
    # the q^g split's sub-products included, gets an operand longer than
    # its n_out + 1 terms, and _operand copies no more prefixes than pinned.
    from qdissect import series

    copies, too_long = [], []
    real_mul, real_operand = series._mul_lists, series.TruncatedSeries._operand

    def recording_mul(px, py, n_out, *rest):
        if max(len(px.cs), len(py.cs)) > n_out + 1:
            too_long.append((len(px.cs), len(py.cs), n_out))
        return real_mul(px, py, n_out, *rest)

    def recording_operand(self, n):
        if len(self._coeffs) != n:
            copies.append(n)
        return real_operand(self, n)

    monkeypatch.setattr(series, "_mul_lists", recording_mul)
    monkeypatch.setattr(series.TruncatedSeries, "_operand", recording_operand)
    for workload, pin in OPERAND_COPY_PINS.items():
        copies.clear()
        too_long.clear()
        cold_pass(workload)
        assert too_long == [], (workload, too_long[:5])
        assert len(copies) <= pin, (workload, len(copies))


# Net tracked allocations of one pass, measured as below in a fresh
# CPython 3.11 process.  A generation-0 collection inside a theta-lemmas
# pass costs 2-5 ms, and whether the pass takes one more turns on a few
# dozen live objects; the count is deterministic, so it is pinned.  To
# re-pin, run the text of GC_GROWTH_SCRIPT with `python -c` from the
# repository root, PYTHONPATH=src and the arguments `bench/workloads.py
# WORKLOAD`, for each workload, and take what it prints; any rise must be
# recorded in CHANGES.md with its cause.
GC_GROWTH_PINS = {"theta-lemmas": 874, "verify-registry": 2234}
GC_GROWTH_SCRIPT = """
import gc, importlib.util, sys
from qdissect import identities, qexpr
registry = identities.registry()
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
records = workloads.theta_lemma_records(qexpr, registry)
if sys.argv[2] != "theta-lemmas":
    records = None
qexpr._eval.cache_clear()
gc.collect()
gc.disable()
before = gc.get_count()[0]
reports = identities.verify_all(order=workloads.ORDERS[sys.argv[2]], records=records)
print(gc.get_count()[0] - before)
"""


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="tracked allocation counts are pinned on CPython 3.11")
@pytest.mark.parametrize("workload", sorted(GC_GROWTH_PINS))
def test_pass_gc_growth_within_pin(workload):
    # The growth of the generation-0 count across one pass, with the
    # collector off and the reports kept: the pass's net tracked allocations.
    proc = subprocess.run(
        [sys.executable, "-c", GC_GROWTH_SCRIPT, str(ROOT / "bench" / "workloads.py"),
         workload],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= GC_GROWTH_PINS[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_time_within_committed_bench(workload):
    # The committed median and this pass are both scaled to the benchmark's
    # reference machine; three times the median leaves room for a noisy pass.
    limit = committed_median(workload, "run_s")
    if limit is None:
        pytest.skip(f"no committed BENCH_*.json measures {workload}")
    result = scaled_pass(workload, bench_workloads().ORDERS[workload])
    assert result["run_s"] <= 3 * limit, (result["run_s"], limit)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_time_within_committed_bench(workload):
    # Cold start, `import qdissect.cli` and the registry build, is the
    # other half of a short run; the same three times bound keeps it from
    # growing unseen.  The pass is short: set-up ends before it starts.
    limit = committed_median(workload, "setup_s")
    if limit is None:
        pytest.skip(f"no committed BENCH_*.json measures {workload}")
    result = scaled_pass(workload, 10)
    assert result["setup_s"] <= 3 * limit, (result["setup_s"], limit)
