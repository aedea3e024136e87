"""Paired benchmark of two revisions of this repository.

    python3 tools/paired_bench.py PARENT_REV CHANGE_REV --pairs N [--workload W ...]
        [--claim METRIC@WORKLOAD ...] [--seconds S] [--first-seed I] [--traced-seed T]
        [--json PATH] [--workdir DIR]

Each revision is written out by `git archive` into a directory of its own,
and `python -m compileall` is run on that copy's src and bench, so every
child of the benchmark loads matching bytecode: a copy whose bytecode is
missing or stale compiles its modules again in every child, and the check
then reads the compilation.  Pair i runs

    python3 bench/run.py --workload W --seed i --seconds S --trace 0

in both copies, one after the other, the parent first for odd i; the seeds
are I, I + 1, ... (I = 1), and N is at least 1.  Each --workload, one of
BENCHMARK.json, runs its pairs in turn, every workload when none is given.
With --traced-seed one more pair per workload runs with --trace 1 at that
seed.  Every run's two output lines are kept.

It prints first that both copies were bytecode-compiled, then each
end-to-end metric of each workload as

    run_s: 0.1317 [0.1301, 0.1335] -> 0.1096 [0.1090, 0.1130] (change better in 10/10)
      bound 25%: within (-16.8%)
      claim: holds (better in 10/10, needs 9; gap 0.0221 > parent q3 - q1 0.0034)

the parent's median [q1, q3], then the change's, then the number of pairs
in which the change reads better; then whether the change's median is worse
than the parent's by more than the metric's bound in BENCHMARK.json; and,
for a metric named by --claim METRIC@WORKLOAD, whether a gain may be
claimed: the change reads better in at least nine tenths of the pairs, ties
counting for neither, and the medians differ by more than the parent's own
spread, q3 - q1.  Last come the failed items of each side.  --json writes
the runs and the summaries of every workload, in the layout of the
BENCH_*.json files, its "context" stating the compiled bytecode too.  Each
verdict is computed once and kept in its metric's summary, as "bound" and
"claim", so the file holds the verdict lines printed.  The copies live in
--workdir (a new temporary directory, removed afterwards, when not given).
Nothing is written in the checkout the tool runs from but the --json file.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPILE = ["-m", "compileall", "-q", "src", "bench"]
BYTECODE = ("both copies bytecode-compiled (python " + " ".join(COMPILE)
            + ") before any run")


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of the values (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """The summary of (parent, change) results of bench/run.py, its last
    output line each: every metric named in `better` ("lower" or "higher"),
    as both sides' [q1, median, q3] and the pairs in which the change reads
    better, then the failed and attempted items of each side."""
    summary: dict = {}
    for name, way in better.items():
        sides = [[result["metrics"][name]["value"] for result in side] for side in zip(*pairs)]
        wins = sum(c < p if way == "lower" else c > p for p, c in zip(*sides))
        summary[name] = {
            "parent_q1_median_q3": [round(v, 4) for v in quartiles(sides[0])],
            "change_q1_median_q3": [round(v, 4) for v in quartiles(sides[1])],
            "change_better_pairs": f"{wins}/{len(pairs)}",
        }
    for count in ("failed", "attempted"):
        summary[count] = {side: sum(pair[i][count] for pair in pairs)
                          for i, side in enumerate(("parent", "change"))}
    return summary


def bound_verdict(s: dict, way: str, bound: float) -> str:
    """Whether the change's median of a metric reads worse than the
    parent's by more than the bound, a fraction of the parent's median."""
    p, c = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
    change = c / p - 1 if p else 0.0
    worse = change if way == "lower" else -change
    return f"bound {bound:.0%}: {'WORSE' if worse > bound else 'within'} ({change:+.1%})"


def claim_verdict(s: dict, way: str) -> str:
    """Whether a gain in the metric may be claimed: the change reads better
    in at least nine tenths of the pairs, and its median is better than the
    parent's by more than the parent's q3 - q1."""
    wins, pairs = map(int, s["change_better_pairs"].split("/"))
    p, c = s["parent_q1_median_q3"], s["change_q1_median_q3"]
    gap, spread = (p[1] - c[1] if way == "lower" else c[1] - p[1]), p[2] - p[0]
    needed = -(-9 * pairs // 10)
    holds = wins >= needed and gap > spread
    return (f"claim: {'holds' if holds else 'NOT shown'} (better in {wins}/{pairs}, needs "
            f"{needed}; gap {gap:.4g} {'>' if gap > spread else '<='} parent q3 - q1 {spread:.4g})")


def judge(summary: dict, ends: dict[str, tuple[str, float]],
          claimed: frozenset[str] = frozenset()) -> dict:
    """A copy of the summary with its verdicts: each metric of ends, its
    (better, bound) from BENCHMARK.json, gains a "bound" field holding its
    bound verdict, and one in claimed a "claim" field too."""
    judged = {}
    for name, s in summary.items():
        if name in ends and "change_better_pairs" in s:
            way, bound = ends[name]
            s = {**s, "bound": bound_verdict(s, way, bound)}
            if name in claimed:
                s["claim"] = claim_verdict(s, way)
        judged[name] = s
    return judged


def format_summary(summary: dict, ends: dict[str, tuple[str, float]] | None = None,
                   claimed: frozenset[str] = frozenset()) -> list[str]:
    """One line per metric of a summary, then one for the failed items.
    A metric line is followed by the verdicts the summary holds; with
    ends, the summary is judged first."""
    if ends:
        summary = judge(summary, ends, claimed)
    lines = []
    for name, s in summary.items():
        if "change_better_pairs" in s:
            p, c = s["parent_q1_median_q3"], s["change_q1_median_q3"]
            lines.append(f"{name}: {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] -> {c[1]:.4g} "
                         f"[{c[0]:.4g}, {c[2]:.4g}] (change better in {s['change_better_pairs']})")
            lines.extend("  " + s[verdict] for verdict in ("bound", "claim") if verdict in s)
    failed = summary.get("failed", {})
    lines.append(f"failed items: parent {failed.get('parent')}, change {failed.get('change')}")
    return lines


def export(rev: str, dest: Path) -> None:
    """The files of a revision, written out by git archive, compiled."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)
    subprocess.run([sys.executable, *COMPILE], cwd=dest, check=True)


def run(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in a copy: its context and its result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True, check=True)
    context, result = proc.stdout.splitlines()[-2:]
    return {"context": json.loads(context), "result": json.loads(result)}


def measure(copies: dict[str, Path], workload: str, args, better: dict[str, str]
            ) -> tuple[dict, dict]:
    """The pairs of one workload, and its traced pair if asked for: its
    summary and its results."""
    runs: dict = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            runs[side].append(run(copies[side], workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed} {side}: "
                  f"run_s {runs[side][-1]['result']['metrics']['run_s']['value']:.4f}",
                  file=sys.stderr)
    pairs = [(p["result"], c["result"]) for p, c in zip(runs["parent"], runs["change"])]
    summary = summarize(pairs, better)
    results = {"trace0": runs}
    if args.traced_seed is not None:
        traced = {side: run(copies[side], workload, args.traced_seed, args.seconds, 1)
                  for side in ("parent", "change")}
        results["trace1"] = traced
        layers = [traced[side]["result"]["metrics"] for side in ("parent", "change")]
        summary["traced"] = {name: {"parent": layers[0][name]["value"],
                                    "change": layers[1][name]["value"]}
                             for name in sorted(layers[0]) if name in layers[1]}
    return summary, results


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--json", type=Path)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")

    ends = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    better = {name: way for name, (way, _) in ends.items()}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    claims = [claim.partition("@")[::2] for claim in args.claim]
    for metric, workload in claims:
        if metric not in ends or workload not in workloads:
            ap.error(f"--claim needs METRIC@WORKLOAD, an end-to-end metric and a measured "
                     f"workload; got {metric}@{workload}")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="paired_bench_"))
    copies = {"parent": workdir / "parent", "change": workdir / "change"}
    summaries, results = {}, {}
    try:
        for side, rev in (("parent", args.parent), ("change", args.change)):
            export(rev, copies[side])
        for workload in workloads:
            summary, results[workload] = measure(copies, workload, args, better)
            claimed = frozenset(metric for metric, w in claims if w == workload)
            summaries[workload] = judge(summary, ends, claimed)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    print(BYTECODE)
    for workload, summary in summaries.items():
        print(f"{workload}:\n" + "\n".join(format_summary(summary)))
    if args.json:
        args.json.write_text(json.dumps({
            "code": {"parent": args.parent, "change": args.change},
            "context": {"bytecode": BYTECODE},
            "protocol": (f"tools/paired_bench.py {args.parent} {args.change} "
                         + "".join(f"--workload {w} " for w in workloads)
                         + "".join(f"--claim {c} " for c in args.claim)
                         + f"--pairs {args.pairs} --seconds {args.seconds} "
                         f"--first-seed {args.first_seed}"
                         + ("" if args.traced_seed is None else
                            f" --traced-seed {args.traced_seed}")),
            "summary": summaries,
            "results": results,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
