"""The traced benchmark still runs against the package.

bench/tracer.py wraps public names of the package from outside; a rename
there breaks the benchmark, not the package's own tests.  One short
traced pass of the theta-lemmas workload catches that.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_theta_lemmas_pass():
    config = {
        "mode": "pass",
        "workload": "theta-lemmas",
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
    result = json.loads(proc.stdout.splitlines()[-1])
    statuses = [status for _, status in result["outcomes"]]
    assert statuses == ["pass"] * 41
    assert result["layers"]["theta.theta_f.calls"] > 0
