"""The summary of tools/paired_bench.py, on made-up results: no
benchmark or other subprocess is run."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def _summary(parent, change, better="lower"):
    pairs = [(_result(p, 20.0), _result(c, 20.0)) for p, c in zip(parent, change)]
    return paired_bench.summarize(pairs, {"run_s": better})


def test_bound_verdict():
    # The change's median against the parent's, by the metric's bound.
    s = _summary([1.0] * 4, [1.2] * 4)
    assert paired_bench.bound_verdict(s["run_s"], "lower", 0.25) == "bound 25%: within (+20.0%)"
    assert paired_bench.bound_verdict(s["run_s"], "lower", 0.1) == "bound 10%: WORSE (+20.0%)"
    # for a metric where higher is better, a rise is no harm
    assert paired_bench.bound_verdict(s["run_s"], "higher", 0.1) == "bound 10%: within (+20.0%)"
    down = _summary([1.0] * 4, [0.8] * 4)["run_s"]
    assert paired_bench.bound_verdict(down, "higher", 0.1) == "bound 10%: WORSE (-20.0%)"


def test_claim_verdict_needs_nine_tenths_and_a_gap_past_the_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # q3 - q1 = 0.03
    faster = [p - 0.10 for p in parent]
    s = _summary(parent, faster)["run_s"]
    assert s["change_better_pairs"] == "10/10"
    assert paired_bench.claim_verdict(s, "lower").startswith("claim: holds (better in 10/10, needs 9")
    # 8 of 10 pairs better: too few, whatever the gap
    eight = faster[:8] + [2.0, 2.0]
    s = _summary(parent, eight)["run_s"]
    assert paired_bench.claim_verdict(s, "lower").startswith("claim: NOT shown (better in 8/10")
    # 9 of 10, the tenth a tie, which counts for neither side
    nine = faster[:9] + [parent[9]]
    assert paired_bench.claim_verdict(_summary(parent, nine)["run_s"], "lower").startswith(
        "claim: holds (better in 9/10")
    # every pair better, but by less than the parent's own spread
    close = [p - 0.01 for p in parent]
    verdict = paired_bench.claim_verdict(_summary(parent, close)["run_s"], "lower")
    assert verdict.startswith("claim: NOT shown (better in 10/10") and "<= parent q3 - q1" in verdict
    # a metric where higher is better wins by rising
    assert paired_bench.claim_verdict(_summary(parent, faster, "higher")["run_s"],
                                      "higher").startswith("claim: NOT shown (better in 0/10")


def test_summary_lines_carry_the_verdicts():
    summary = _summary([1.0, 1.1, 0.9, 1.0], [0.5, 0.6, 0.4, 0.5])
    ends = {"run_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1)}
    lines = paired_bench.format_summary(summary, ends, frozenset({"run_s"}))
    assert lines == [
        "run_s: 1 [0.975, 1.025] -> 0.5 [0.475, 0.525] (change better in 4/4)",
        "  bound 25%: within (-50.0%)",
        "  claim: holds (better in 4/4, needs 4; gap 0.5 > parent q3 - q1 0.05)",
        "failed items: parent 0, change 0",
    ]
    assert "claim" not in "".join(paired_bench.format_summary(summary, ends))


def test_a_claim_names_a_metric_and_a_measured_workload(capsys):
    # Refused before any revision is written out or run.
    for claim in ("run_s@nowhere", "run_s", "speed@theta-lemmas"):
        with pytest.raises(SystemExit):
            paired_bench.main(["A", "B", "--pairs", "1", "--workload", "theta-lemmas",
                               "--claim", claim])
        assert "--claim needs METRIC@WORKLOAD" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--pairs", "0"], "--pairs must be at least 1, got 0"),
    (["--pairs", "-3"], "--pairs must be at least 1, got -3"),
    (["--pairs", "1", "--workload", "nowhere"], "argument --workload: invalid choice: 'nowhere'"),
])
def test_pairs_and_workloads_are_checked_before_any_export(argv, message, capsys, monkeypatch):
    # Refused with a usage error before any revision is written out or run.
    def export(rev, dest):
        raise AssertionError(f"exported {rev}")

    monkeypatch.setattr(paired_bench, "export", export)
    with pytest.raises(SystemExit) as exit_:
        paired_bench.main(["A", "B", *argv])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


def test_json_holds_the_verdicts_printed(tmp_path, capsys, monkeypatch):
    # Made-up runs: the change reads half the parent on every metric.
    ends = [m["name"] for m in json.loads((paired_bench.ROOT / "BENCHMARK.json").read_text())
            ["end_to_end"]]

    def run(copy, workload, seed, seconds, trace):
        value = (1.0 if copy.name == "parent" else 0.5) + seed / 100
        return {"context": {}, "result": {"attempted": 4, "failed": 0, "metrics": {
            name: {"value": value} for name in ends}}}

    monkeypatch.setattr(paired_bench, "export", lambda rev, dest: None)
    monkeypatch.setattr(paired_bench, "run", run)
    out = tmp_path / "bench.json"
    assert paired_bench.main(["A", "B", "--pairs", "3", "--workload", "theta-lemmas",
                              "--claim", "run_s@theta-lemmas", "--traced-seed", "7",
                              "--json", str(out), "--workdir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    summary = json.loads(out.read_text())["summary"]["theta-lemmas"]
    assert [name for name in summary if "bound" in summary[name]] == ends
    assert [name for name in summary if "claim" in summary[name]] == ["run_s"]
    assert summary["run_s"]["bound"] == "bound 25%: within (-49.0%)"
    assert summary["run_s"]["claim"].startswith("claim: holds (better in 3/3")
    assert printed[1:] == ["theta-lemmas:", *paired_bench.format_summary(summary)]
    for name in ends:
        at = next(i for i, line in enumerate(printed) if line.startswith(f"{name}: "))
        assert printed[at + 1] == "  " + summary[name]["bound"]
