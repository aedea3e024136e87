"""The traced benchmark still runs against the package.

bench/tracer.py wraps public names of the package from outside; a rename
there breaks the benchmark, not the package's own tests.  Short traced
passes of the theta-lemmas and expand-partitions workloads catch that.
The traced multiply count of expand-partitions is a deterministic check
on the work the evaluator does, free of timing noise.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from qdissect import combinatorics

ROOT = Path(__file__).resolve().parent.parent


def traced_pass(workload: str) -> dict:
    config = {
        "mode": "pass",
        "workload": workload,
        "seed": 1,
        "order": 200,
        "trace": 1,
        "t_spawn": time.clock_gettime(time.CLOCK_MONOTONIC),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(config)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_theta_lemmas_pass():
    result = traced_pass("theta-lemmas")
    statuses = [status for _, status in result["outcomes"]]
    assert statuses == ["pass"] * 41
    assert result["layers"]["theta.theta_f.calls"] > 0


def test_traced_expand_partitions_pass():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    result = traced_pass("expand-partitions")
    items = workloads.partition_items(1)
    assert result["digests"] == workloads.partition_oracle(combinatorics, items, 200)
    # Pochhammer lists and powers do only the multiplies they need; the
    # count does not depend on the order.
    assert result["layers"]["series.mul.calls"] <= 164
