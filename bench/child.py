"""One pass of one workload, in a fresh interpreter.

run.py starts this file as `python3 bench/child.py '<json config>'` with
the package's src directory on PYTHONPATH.  The evaluator's caches live
for the whole process, and two of them are private, so only a fresh
process measures the work a user of the CLI pays for.

Set-up is timed first, before anything else is imported: the parent
passes the monotonic time at which it started this process, and set-up
ends when `import qdissect.cli` has finished and the registry is built.

The child only runs and reports.  The last line of its output is one JSON
object with its timings and raw outcomes; run.py judges the outcomes.
"""

import time

_T_START = time.clock_gettime(time.CLOCK_MONOTONIC)
import qdissect.cli  # noqa: E402

_T_IMPORT = time.clock_gettime(time.CLOCK_MONOTONIC)
from qdissect import identities  # noqa: E402

identities.registry()
_T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from qdissect import qexpr, series, theta  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _timed(fn, sink: list):
    def timed(*args, **kwargs):
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter() - t)

    return timed


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def verify_registry(order: int, _inputs, latencies: list) -> dict:
    """`qdissect verify --order N --format json` through cli.main."""
    buf = io.StringIO()
    code = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = qdissect.cli.main(["verify", "--order", str(order), "--format", "json"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash fails every item; the run goes on
        print(f"verify-registry: {type(exc).__name__}: {exc}", file=sys.stderr)
    run_s = perf_counter() - t0
    rss = _peak_rss_kb()
    try:
        outcomes = [(d["id"], d["status"]) for d in json.loads(buf.getvalue())]
    except (ValueError, KeyError, TypeError):
        outcomes, code = [], None
    return {"run_s": run_s, "peak_rss_kb": rss, "exit_code": code, "outcomes": outcomes}


def theta_lemmas(order: int, records, latencies: list) -> dict:
    """verify_all over the theta-only records."""
    code, reports = 0, []
    t0 = perf_counter()
    try:
        reports = identities.verify_all(order=order, records=records)
    except Exception as exc:  # a crash fails every item; the run goes on
        code = None
        print(f"theta-lemmas: {type(exc).__name__}: {exc}", file=sys.stderr)
    run_s = perf_counter() - t0
    rss = _peak_rss_kb()
    return {"run_s": run_s, "peak_rss_kb": rss, "exit_code": code,
            "outcomes": [(r.id, r.status) for r in reports]}


def expand_partitions(order: int, items, latencies: list) -> dict:
    """evaluate(parse(product)) for each drawn spec, one at a time."""
    results = []
    for _, text in items:
        t = perf_counter()
        try:
            s = qexpr.evaluate(qexpr.parse(text), order)
        except Exception as exc:  # a failed item is counted, not raised
            s = None
            print(f"expand-partitions: {type(exc).__name__}: {exc}", file=sys.stderr)
        latencies.append(perf_counter() - t)
        results.append(s)
    rss = _peak_rss_kb()
    digests = [None if s is None else wl.coeff_digest(s.coeffs) for s in results]
    return {"run_s": sum(latencies), "peak_rss_kb": rss, "digests": digests}


def inputs(workload: str, seed: int):
    """A pass's inputs, made before any tracing starts."""
    if workload == "theta-lemmas":
        return wl.theta_lemma_records(qexpr, identities.registry())
    if workload == "expand-partitions":
        return wl.partition_items(seed)
    return None


PASSES = {
    "verify-registry": verify_registry,
    "theta-lemmas": theta_lemmas,
    "expand-partitions": expand_partitions,
}


def main() -> int:
    config = json.loads(sys.argv[1])
    out = {
        "setup_s": _T_READY - config["t_spawn"],
        "import_s": _T_IMPORT - _T_START,
        "registry_s": _T_READY - _T_IMPORT,
    }
    if config["mode"] == "pass":
        workload = config["workload"]
        latencies: list[float] = []
        pass_inputs = inputs(workload, config["seed"])
        tracer = None
        if config["trace"]:
            tracer = Tracer()
            tracer.install(series, theta, qexpr, identities, qdissect.cli)
        elif workload != "expand-partitions":
            identities.verify = _timed(identities.verify, latencies)
        out.update(PASSES[workload](config["order"], pass_inputs, latencies))
        if tracer is None:
            out["latencies_s"] = latencies
        else:
            out["layers"] = layer_metrics(tracer, out["run_s"])
            out["record_caches"] = tracer.record_caches
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
