"""Self-test of the benchmark's correctness gates.

    python3 bench/selftest.py

Shows that each gate passes the true result and trips on a corrupted one,
and that the AST selection of the theta-lemmas workload finds the records
it found at the seed commit.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import workloads as wl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qdissect import combinatorics, identities, qexpr  # noqa: E402

FAILED: list[str] = []

def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILED.append(what)


def test_verify_gate() -> None:
    records = wl.theta_lemma_records(qexpr, identities.registry())[:4]
    ids = [r.id for r in records]
    reports = identities.verify_all(order=60, records=records)
    good = [(r.id, r.status) for r in reports]
    check(wl.verify_failures(ids, good, 0) == [], "verify gate passes a true result")

    flipped = [good[0][:1] + ("fail",)] + good[1:]
    check(wl.verify_failures(ids, flipped, 0) == [ids[0]], "verify gate trips on a failed record")
    check(wl.verify_failures(ids, good[1:], 0) == [ids[0]], "verify gate trips on a missing record")
    check(wl.verify_failures(ids, good + good[:1], 0) == [ids[0]],
          "verify gate trips on a record reported twice")
    check(wl.verify_failures(ids, good + [("X.extra", "pass")], 0) == ids,
          "verify gate trips on a record nobody asked for")
    check(wl.verify_failures(ids, flipped, 1) == [ids[0]],
          "verify gate counts only the failed record when the exit code says so")
    check(wl.verify_failures(ids, good, 1) == ids,
          "verify gate trips on a nonzero exit with every record passing")
    check(wl.verify_failures(ids, good, None) == ids, "verify gate trips on a crash")

    # A record of the seed that the code under test stops reporting.
    expected = wl.expected_ids(ids, ids[1:])
    check(expected == ids and wl.verify_failures(expected, good[1:], 0) == [ids[0]],
          "verify gate trips on a seed record the code no longer reports")
    grown = wl.expected_ids(ids[:3], ids)
    check(grown == ids and wl.verify_failures(grown, good, 0) == [],
          "verify gate also checks records added after the seed")


def test_expand_gate() -> None:
    order = 80
    items = wl.partition_items(seed=7)[:3]
    oracle = wl.partition_oracle(combinatorics, items, order)
    series = [qexpr.evaluate(qexpr.parse(expr), order).coeffs for _, expr in items]
    got = [wl.coeff_digest(cs) for cs in series]
    check(wl.expand_failures(items, oracle, got) == [], "expand gate passes a true result")

    corrupted = list(series[1])
    corrupted[order // 2] += 1
    bad = [got[0], wl.coeff_digest(corrupted), got[2]]
    check(wl.expand_failures(items, oracle, bad) == [items[1][0]],
          "expand gate trips on one wrong coefficient")
    check(wl.expand_failures(items, oracle, [got[0], None, got[2]]) == [items[1][0]],
          "expand gate trips on an item that raised")
    check(wl.expand_failures(items, oracle, got[:2]) == [spec for spec, _ in items],
          "expand gate trips on a missing item")


def test_inputs() -> None:
    registry = identities.registry()
    check(sorted(r.id for r in registry) == list(wl.SEED_REGISTRY_IDS),
          f"the registry holds the {len(wl.SEED_REGISTRY_IDS)} seed ids")
    selected = [r.id for r in wl.theta_lemma_records(qexpr, registry)]
    check(selected == list(wl.SEED_THETA_LEMMA_IDS),
          f"theta-lemmas selection yields the {len(wl.SEED_THETA_LEMMA_IDS)} seed ids")
    a, b = wl.partition_items(3), wl.partition_items(3)
    check(a == b and a != wl.partition_items(4), "expand-partitions inputs follow the seed")
    specs = [combinatorics.parse_spec(spec) for spec, _ in a]
    check(sorted(s.modulus for s in specs) == list(wl.EXPAND_MODULI),
          "expand-partitions uses each modulus once")
    check(all(4 <= len(s.classes) <= 8 and all(1 <= f <= 3 for _, f in s.classes)
              for s in specs),
          "expand-partitions specs have 4 to 8 classes of 1 to 3 flavours")


def main() -> int:
    test_verify_gate()
    test_expand_gate()
    test_inputs()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks pass")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
