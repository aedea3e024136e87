"""The summary of tools/paired_bench.py, on made-up results: no
benchmark or other subprocess is run."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)


def _result(run_s, rss, failed=0):
    return {"attempted": 10, "failed": failed,
            "metrics": {"run_s": {"value": run_s}, "peak_rss_mb": {"value": rss}}}


def test_summary_of_pairs():
    parent = [0.20, 0.10, 0.40, 0.30, 0.50]
    change = [0.15, 0.12, 0.30, 0.20, 0.45]
    pairs = [(_result(p, 20.0), _result(c, 21.0 - i, failed=i == 4))
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = paired_bench.summarize(pairs, {"run_s": "lower", "peak_rss_mb": "higher"})
    assert summary["run_s"] == {
        "parent_q1_median_q3": [0.2, 0.3, 0.4],
        "change_q1_median_q3": [0.15, 0.2, 0.3],
        "change_better_pairs": "4/5",
    }
    assert summary["peak_rss_mb"]["change_better_pairs"] == "1/5"  # 21.0 > 20.0 once
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 50, "change": 50}
    assert paired_bench.format_summary(summary) == [
        "run_s: 0.3 [0.2, 0.4] -> 0.2 [0.15, 0.3] (change better in 4/5)",
        "peak_rss_mb: 20 [20, 20] -> 19 [18, 20] (change better in 1/5)",
        "failed items: parent 0, change 1",
    ]
    one = paired_bench.summarize(pairs[:1], {"run_s": "lower"})
    assert one["run_s"]["parent_q1_median_q3"] == [0.2] * 3
