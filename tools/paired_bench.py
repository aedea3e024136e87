"""Paired benchmark of two revisions of this repository.

    python3 tools/paired_bench.py PARENT_REV CHANGE_REV --workload W --pairs N
        [--seconds S] [--first-seed I] [--traced-seed T] [--json PATH] [--workdir DIR]

Each revision is written out by `git archive` into a directory of its own,
and `python -m compileall` is run on that copy's src and bench, so every
child of the benchmark loads matching bytecode: a copy whose bytecode is
missing or stale compiles its modules again in every child, and the check
then reads the compilation.  Pair i runs

    python3 bench/run.py --workload W --seed i --seconds S --trace 0

in both copies, one after the other, the parent first for odd i; the seeds
are I, I + 1, ... (I = 1).  With --traced-seed one more pair runs with
--trace 1 at that seed.  Every run's two output lines are kept.

It prints each end-to-end metric as

    run_s: 0.1317 [0.1301, 0.1335] -> 0.1096 [0.1090, 0.1130] (change better in 10/10)

the parent's median [q1, q3], then the change's, then the number of pairs
in which the change reads better, plus the failed items of each side.
--json writes the runs and the summary in the layout of the BENCH_*.json
files.  The copies live in --workdir (a new temporary directory, removed
afterwards, when not given).  Nothing is written in the checkout the tool
runs from but the --json file.
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


def format_summary(summary: dict) -> list[str]:
    """One line per metric of a summary, then one for the failed items."""
    lines = []
    for name, s in summary.items():
        if "change_better_pairs" in s:
            p, c = s["parent_q1_median_q3"], s["change_q1_median_q3"]
            lines.append(f"{name}: {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] -> {c[1]:.4g} "
                         f"[{c[0]:.4g}, {c[2]:.4g}] (change better in {s['change_better_pairs']})")
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
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=dest,
                   check=True)


def run(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in a copy: its context and its result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True, check=True)
    context, result = proc.stdout.splitlines()[-2:]
    return {"context": json.loads(context), "result": json.loads(result)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--json", type=Path)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="paired_bench_"))
    copies = {"parent": workdir / "parent", "change": workdir / "change"}
    try:
        for side, rev in (("parent", args.parent), ("change", args.change)):
            export(rev, copies[side])
        runs: dict = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                runs[side].append(run(copies[side], args.workload, seed, args.seconds, 0))
                print(f"seed {seed} {side}: "
                      f"run_s {runs[side][-1]['result']['metrics']['run_s']['value']:.4f}",
                      file=sys.stderr)
        pairs = [(p["result"], c["result"]) for p, c in zip(runs["parent"], runs["change"])]
        summary = summarize(pairs, better)
        results = {"trace0": runs}
        if args.traced_seed is not None:
            traced = {side: run(copies[side], args.workload, args.traced_seed, args.seconds, 1)
                      for side in ("parent", "change")}
            results["trace1"] = traced
            layers = [traced[side]["result"]["metrics"] for side in ("parent", "change")]
            summary["traced"] = {name: {"parent": layers[0][name]["value"],
                                        "change": layers[1][name]["value"]}
                                 for name in sorted(layers[0]) if name in layers[1]}
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(format_summary(summary)))
    if args.json:
        args.json.write_text(json.dumps({
            "code": {"parent": args.parent, "change": args.change},
            "protocol": (f"tools/paired_bench.py {args.parent} {args.change} --workload "
                         f"{args.workload} --pairs {args.pairs} --seconds {args.seconds} "
                         f"--first-seed {args.first_seed}"),
            "summary": {args.workload: summary},
            "results": {args.workload: results},
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
