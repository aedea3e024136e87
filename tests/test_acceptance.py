"""Acceptance gate: the package's headline guarantees, one test per
criterion, each emitting a visible PASS/FAIL line.

Every check here is exact integer arithmetic at a finite truncation
order; there are no tolerances anywhere.
"""

import random
import time

from qdissect.combinatorics import parse_spec, verify_interpretation
from qdissect.identities import (
    G1_HAT,
    G1_PRODUCT,
    G2_PRODUCT,
    H1_HAT,
    H1_PRODUCT,
    H2_PRODUCT,
    Congruence,
    DissectionRelation,
    SeriesEquality,
    SignPattern,
    VanishingProgression,
    registry,
    verify,
    verify_all,
)
from qdissect.qexpr import evaluate_text, parse, render
from qdissect.series import (
    TruncatedSeries,
    dissect,
    invert,
    schoolbook_mul,
    shift,
    substitute_power,
)
from qdissect.theta import SignedMonomial, jtp_product, theta_f


def announce(capsys, number: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {status} [{number}] {text}", flush=True)


# --- 1: every registry record verifies at the default order ---------------------


def test_criterion_1_full_registry(capsys):
    start = time.perf_counter()
    reports = verify_all(order=300)
    elapsed = time.perf_counter() - start
    bad = [r for r in reports if r.status != "pass"]
    ok = not bad and len(reports) >= 60
    announce(capsys, 1, ok,
             f"verify --order 300: {len(reports) - len(bad)}/{len(reports)} "
             f"records pass in {elapsed:.1f}s")
    assert ok, [f"{r.id}: {r.status} {r.first_failure} {r.detail}" for r in bad]


# --- 2: vanishing progressions to deep indices -----------------------------------


def raw_progression_zero(text: str, k: int, l: int, up_to_index: int) -> list[int]:
    series = evaluate_text(text, up_to_index)
    return [i for i in range(l, up_to_index + 1, k) if series[i] != 0]


def test_criterion_2_vanishing(capsys):
    offenders = {}
    for name, text, l, bound in (
        ("g1(5n+3)", G1_PRODUCT, 3, 1000),
        ("h1(5n+1)", H1_PRODUCT, 1, 1000),
        ("g2(5n+3)", G2_PRODUCT, 3, 1000),
        ("h2(5n+1)", H2_PRODUCT, 1, 1000),
        ("ghat(5n+2)", G1_HAT, 2, 500),
        ("hhat(5n+1)", H1_HAT, 1, 500),
    ):
        nonzero = raw_progression_zero(text, 5, l, bound)
        if nonzero:
            offenders[name] = nonzero[:5]
    ok = not offenders
    announce(capsys, 2, ok,
             "vanishing progressions hold to raw index 1000 (hats to 500)")
    assert ok, offenders


# --- 3: bilateral theta sum equals its triple-product form ------------------------


def test_criterion_3_triple_product_oracle(capsys):
    mismatches = []
    for total in range(1, 13):
        for r in range(0, total + 1):
            s = total - r
            for sa in (1, -1):
                for sb in (1, -1):
                    a, b = SignedMonomial(sa, r), SignedMonomial(sb, s)
                    if theta_f(a, b, 200) != jtp_product(a, b, 200):
                        mismatches.append((sa, r, sb, s))
    ok = not mismatches
    announce(capsys, 3, ok,
             "theta_f == jtp_product for all sign choices, 1 <= r+s <= 12, "
             "order 200")
    assert ok, mismatches


# --- 4: combinatorial interpretations against the DP oracle -----------------------


INTERPRETATIONS = [
    ("G0", "M=10;1x2,9x2,2x1,8x1,4x2,6x2", G1_PRODUCT, 0, 1, 1),
    ("G1", "M=10;1x1,9x1,2x2,8x2,3x1,7x1,4x1,6x1", G1_PRODUCT, 1, 1, 2),
    ("G2", "M=10;1x2,9x2,4x3,6x3", G1_PRODUCT, 2, 1, 1),
    ("G4", "M=10;2x2,8x2,3x2,7x2,4x1,6x1", G1_PRODUCT, 4, 1, 1),
    ("H0", "M=10;1x2,9x2,2x1,8x1,4x2,6x2", H1_PRODUCT, 0, 1, 1),
    ("H2", "M=10;2x3,8x3,3x2,7x2", H1_PRODUCT, 2, 1, 1),
    ("H3", "M=10;1x1,9x1,2x1,8x1,3x1,7x1,4x2,6x2", H1_PRODUCT, 3, 1, 2),
    ("H4", "M=10;2x2,8x2,3x2,7x2,4x1,6x1", H1_PRODUCT, 4, -1, 1),
]


def test_criterion_4_interpretations(capsys):
    failures = {}
    for name, spec_text, expr_text, l, sign, mult in INTERPRETATIONS:
        report = verify_interpretation(
            parse_spec(spec_text), parse(expr_text), 5, l, up_to=30,
            sign_factor=sign, multiplier=mult)
        if not report.ok:
            failures[name] = report.first_failure
    ok = not failures
    announce(capsys, 4, ok,
             "all eight flavoured-partition interpretations match for n <= 30")
    assert ok, failures


# --- 5: strict sign corollaries with their single exceptions ----------------------


def test_criterion_5_sign_corollaries(capsys):
    problems = []
    expected_exceptions = {
        "C.signs.g1.4": "n=1: value 0",
        "C.signs.h1.2": "n=1: value 0",
        "C.signs.h1.4": "n=1: value 0",
    }
    for record in registry():
        if not record.id.startswith("C.signs."):
            continue
        report = verify(record, order=1004)  # progression index reaches 200
        if report.status != "pass":
            problems.append((record.id, report.first_failure, report.detail))
            continue
        want = expected_exceptions.get(record.id)
        if want and want not in report.detail:
            problems.append((record.id, "missing exception value", report.detail))
        if not want and "value" in report.detail:
            problems.append((record.id, "unexpected exception", report.detail))
    ok = not problems
    announce(capsys, 5, ok,
             "sign corollaries hold for n <= 200; the n = 1 exceptions "
             "report value 0")
    assert ok, problems


# --- 6: conjectured sign patterns --------------------------------------------------


def test_criterion_6_conjecture_scan(capsys):
    violations = []
    for record in registry():
        if not record.id.startswith("R5.conj."):
            continue
        report = verify(record, order=1004)
        if report.status != "pass":
            violations.append((record.id, report.first_failure))
    ok = not violations
    announce(capsys, 6, ok,
             "all eight conjectured sign patterns hold for n <= 200")
    assert ok, (
        "SIGN PATTERN VIOLATION -- a counterexample to the conjecture, "
        f"worth reporting: {violations}")


# --- 7: parity along one progression ----------------------------------------------


def test_criterion_7_congruence(capsys):
    series = evaluate_text(H2_PRODUCT, 1004)
    odd = [i for i in range(3, 1004, 5) if series[i] % 2]
    ok = not odd
    announce(capsys, 7, ok, "h2(5n+3) is even for n <= 200")
    assert ok, odd[:5]


# --- 8: randomized property suites -------------------------------------------------


def test_criterion_8_property_suites(capsys):
    rng = random.Random(424242)
    problems = []

    def rand_series(order, bound=40):
        return TruncatedSeries(
            [rng.randint(-bound, bound) for _ in range(order + 1)])

    for _ in range(100):  # ring axioms at order 64
        a, b, c = (rand_series(64) for _ in range(3))
        if not (a + b == b + a and (a + b) + c == a + (b + c)
                and a * b == b * a and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c):
            problems.append("ring axiom")
            break

    for _ in range(100):  # inversion
        cs = [rng.randint(-40, 40) for _ in range(rng.randint(1, 70))]
        cs[0] = rng.choice((1, -1))
        a = TruncatedSeries(cs)
        if a * invert(a) != TruncatedSeries.one(a.order):
            problems.append("invert")
            break

    for _ in range(100):  # dissection reconstruction, k <= 8
        k = rng.randint(1, 8)
        a = rand_series(rng.randint(k, 80))
        pieces = TruncatedSeries.zero(a.order)
        for l in range(k):
            p = shift(substitute_power(dissect(a, k, l), k), l)
            padded = list(p.coeffs) + [0] * (a.order + 1 - len(p.coeffs))
            pieces = pieces + TruncatedSeries(padded)
        if pieces != a:
            problems.append("dissection reconstruction")
            break

    for _ in range(100):  # fast multiply vs schoolbook oracle
        a = rand_series(rng.randint(0, 30), bound=10**12)
        b = rand_series(rng.randint(0, 30), bound=10**12)
        if a * b != schoolbook_mul(a, b):
            problems.append("mul oracle")
            break

    texts = set()
    for record in registry():
        kind = record.kind
        if isinstance(kind, (SeriesEquality, DissectionRelation)):
            texts.update((kind.lhs, kind.rhs))
        elif isinstance(kind, (VanishingProgression, Congruence, SignPattern)):
            texts.add(kind.expr)
    for text in sorted(texts):  # parser round trip over the whole registry
        try:
            e = parse(text)
            if parse(render(e)) != e:
                problems.append(f"round trip: {text}")
        except Exception as exc:
            problems.append(f"parse failure: {text}: {exc}")

    ok = not problems
    announce(capsys, 8, ok,
             "property suites: ring axioms, inversion, reconstruction, "
             "multiply oracle, parser round trip (100+ cases each)")
    assert ok, problems


# --- 9: verdicts independent of truncation order ------------------------------------


def test_criterion_9_order_stability(capsys):
    low = {r.id: r.status for r in verify_all(order=50)}
    high = {r.id: r.status for r in verify_all(order=300)}
    changed = {k for k in low if low[k] != high[k]}
    ok = not changed and set(low) == set(high)
    announce(capsys, 9, ok,
             "verify at order 50 and order 300 give identical verdicts")
    assert ok, changed
