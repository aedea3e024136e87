"""Registry integrity and the verification machinery itself."""

import random
import re
import sys

import pytest

from qdissect import identities
from qdissect.identities import (
    Congruence,
    DissectionRelation,
    IdentityRecord,
    SeriesEquality,
    SignPattern,
    VanishingProgression,
    get_record,
    load_records,
    registry,
    verify,
    verify_all,
)
from qdissect.qexpr import column, evaluate, evaluate_text, parse
from qdissect.series import TruncatedSeries, dissect


# --- registry shape -----------------------------------------------------------


def test_registry_size_and_unique_ids():
    records = registry()
    assert len(records) >= 60
    ids = [r.id for r in records]
    assert len(ids) == len(set(ids))


def test_registry_known_records_present():
    vanish = get_record("T1.G3")
    assert isinstance(vanish.kind, VanishingProgression)
    assert (vanish.kind.k, vanish.kind.l) == (5, 3)
    diff = get_record("T4.i3")
    assert isinstance(diff.kind, SeriesEquality)
    assert get_record("R5.cong").kind == Congruence(
        "(q^2,q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf", 5, 3, 2)


def test_registry_prefix_counts():
    t3 = [r for r in registry() if r.id.startswith("T3.")]
    t4 = [r for r in registry() if r.id.startswith("T4.")]
    assert len(t3) == 8
    assert len(t4) == 4


def test_get_record_unknown():
    with pytest.raises(KeyError):
        get_record("NO.SUCH")


def test_every_record_has_citation_and_order():
    for r in registry():
        assert r.citation.strip()
        assert r.default_order >= 1


# --- verification machinery ----------------------------------------------------


def test_verify_all_sorted_and_filtered():
    reports = verify_all(order=60, id_filter="T4.")
    assert [r.id for r in reports] == ["T4.i1", "T4.i2", "T4.i3", "T4.i4"]
    assert all(r.status == "pass" for r in reports)
    assert verify_all(order=60, id_filter="ZZZ") == []


def test_corrupted_equality_reports_first_failure():
    bad = IdentityRecord(
        "bad.eq", "test", SeriesEquality("phi(q)", "psi(q)"), 40)
    report = verify(bad)
    assert report.status == "fail"
    assert report.first_failure == (1, 2, 1)
    assert report.checked_order == 40


def test_corrupted_dissection_reports_sign():
    bad = IdentityRecord(
        "bad.diss", "test",
        DissectionRelation("phi(q)", 1, 0, "phi(q)", 1, 0, -1), 20)
    report = verify(bad)
    assert report.status == "fail"
    assert report.first_failure == (0, 1, -1)


def test_vanishing_failure_locates_compressed_index():
    bad = IdentityRecord(
        "bad.vanish", "test", VanishingProgression("psi(q)", 2, 1), 30)
    report = verify(bad)
    assert report.status == "fail"
    assert report.first_failure == (0, 1, 0)


def test_congruence_failure():
    bad = IdentityRecord(
        "bad.cong", "test", Congruence("phi(q)", 1, 0, 2), 30)
    report = verify(bad)
    assert report.status == "fail"
    assert report.first_failure == (0, 1, 0)
    assert "mod 2" in report.detail


def test_sign_pattern_exception_values_reported():
    report = verify(get_record("C.signs.h1.4"), order=120)
    assert report.status == "pass"
    assert "n=1: value 0" in report.detail


def test_sign_pattern_violation():
    bad = IdentityRecord(
        "bad.sign", "test", SignPattern("1 - q", 1, 0, 1), 10)
    report = verify(bad)
    assert report.status == "fail"
    assert report.first_failure == (1, -1, 1)


def test_error_status_for_unevaluable_expression():
    broken = IdentityRecord(
        "bad.eval", "test", SeriesEquality("f(1,1)", "phi(q)"), 20)
    report = verify(broken)
    assert report.status == "error"
    assert report.first_failure is None
    assert "InvalidThetaArgument" in report.detail


def test_kernel_fault_is_raised_not_reported(monkeypatch):
    # Only evaluation errors (ValueError) become an "error" verdict; a fault
    # in the kernels propagates, so the tests see it.
    import qdissect.qexpr as qexpr
    import qdissect.series as series

    def broken(px, py, n_out, *rest):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(series, "_mul_lists", broken)
    qexpr._eval.cache_clear()  # so the record's products are built again
    with pytest.raises(RuntimeError, match="kernel fault"):
        verify(get_record("T1.G0"), 97)


def test_alternate_reading_retried():
    rec = IdentityRecord(
        "alt.demo", "test",
        SeriesEquality("phi(q)", "psi(q)"), 30,
        alternates=(SeriesEquality("phi(q)", "phi(q^4) + 2*q*psi(q^8)"),),
    )
    report = verify(rec)
    assert report.status == "pass"
    assert "alternate reading verified" in report.detail


def test_ambiguous_family_records_verify_via_primary():
    for rid in ("R5.m7a", "R5.m7b", "R5.m11a", "R5.m11b"):
        record = get_record(rid)
        assert record.alternates  # the other product shape is retried
        report = verify(record, order=150)
        assert report.status == "pass"
        assert "alternate" not in report.detail  # primary reading held


def test_verdicts_stable_between_orders():
    for rid in ("T1.G0", "T2.H4", "L3.S1", "L4.PQ5", "CT.i2"):
        low = verify(get_record(rid), order=50)
        high = verify(get_record(rid), order=300)
        assert low.status == high.status == "pass"


@pytest.mark.parametrize("order", (300, 1000))
def test_every_claim_holds_on_its_columns(monkeypatch, order):
    # Every claim is decided on its columns, and no text is expanded
    # plainly: that is left only to a part without a column, which no
    # registry claim has.
    plain = []
    monkeypatch.setattr(identities, "_series_of", lambda text, n: plain.append(text))
    reports = verify_all(order=order)
    assert plain == []
    assert sum(r.status == "pass" for r in reports) == len(reports) == 114


def test_columns_that_disagree_with_the_exact_ones_are_a_fault(monkeypatch):
    # The columns times D, a unit, fail where the exact columns fail.  A
    # column read wrong is a fault that verify raises, not a verdict.
    real = identities.cross_multiplied

    def skewed(parts, order, exact=False):
        columns = real(parts, order, exact)
        if exact:
            return columns
        first = list(columns[0].coeffs)
        first[3] += 1
        return (TruncatedSeries(first), *columns[1:])

    monkeypatch.setattr(identities, "cross_multiplied", skewed)
    with pytest.raises(AssertionError, match="fail at 3, the exact ones at None"):
        verify(get_record("T1.G0"), 100)


G1 = "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf"
G1_RHS = "(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1"
# Claims that each hold one evaluation error, and whether a text of theirs
# has no column, so is expanded plainly.  Order 30.
ONE_ERROR = [
    # in an A part, in a B part, and in a B part raised to a power, at k = 5
    (DissectionRelation(f"bsum(1,5)*{G1}", 5, 0, G1_RHS, 1, 0), False),
    (VanishingProgression("(q;q)_inf/(2 + q)", 5, 3), False),
    (VanishingProgression(f"f(1,1)*{G1}", 5, 3), False),
    (DissectionRelation(G1, 5, 0, f"f(1,1)*{G1_RHS}", 1, 0), False),
    (Congruence(f"f(1,1)^3*{G1}", 5, 3, 2), False),
    # inside a sum
    (DissectionRelation(G1, 5, 0, f"{G1_RHS} + bsum(1,5)", 1, 0), False),
    (VanishingProgression(f"{G1}*(1 + f(1,1))", 5, 3), False),
    (SeriesEquality("phi(q)", "phi(q^4) + 2*q*psi(q^8) + 1/(q - q^2)"), False),
    # in an A part shifted past its column
    (VanishingProgression("q^40/(2 + q)", 5, 0), False),
    # on a sign pattern
    (SignPattern(f"f(1,1)*{G1}", 5, 0, 1), False),
    (SignPattern(f"{G1}/(3 - q)", 5, 0, 1), False),
    # next to an invalid progression, and next to a residue past the order
    (DissectionRelation("f(1,1)", 5, 7, "q", 1, 0), True),
    (DissectionRelation("q", 1, 0, "(q;q)_inf/(2 + q)", 0, 0), True),
    (DissectionRelation("phi(q)", 5, 0, "psi(q)", 5, 9), True),
    (VanishingProgression("bsum(1,5)", 35, 34), True),
    (SignPattern("q/(2 + q)", 40, 31, 1), True),
    # a residue past the order alone
    (VanishingProgression("psi(q)", 35, 34), True),
]


@pytest.mark.parametrize("kind, plain_read", ONE_ERROR)
def test_columns_report_the_error_of_a_plain_read(monkeypatch, kind, plain_read):
    # The columns meet a claim's one error, and report what expanding each
    # text at the order and dissecting it, part by part, reports.
    order = 30
    try:
        for text, k, l in identities._parts(kind):
            dissect(evaluate_text(text, order), k, l)
        want = ("pass", "")
    except ValueError as exc:
        want = ("error", f"{type(exc).__name__}: {exc}")
    assert want[0] == "error"
    expanded = []
    real = identities._series_of
    monkeypatch.setattr(identities, "_series_of",
                        lambda *args: expanded.append(args) or real(*args))
    report = verify(IdentityRecord("x", "test", kind, order))
    assert (report.status, report.detail) == want
    assert bool(expanded) == plain_read


@pytest.mark.parametrize("text, k, l", sorted({
    part for kind, _ in ONE_ERROR for part in identities._parts(kind)}))
def test_column_reports_the_error_of_a_plain_read(text, k, l):
    # The one progression reader, on each part of the claims above: the
    # exact column where k*n + l has one at the order, else the plain read
    # itself (an invalid progression, a residue past the order).  Either
    # way the coefficients, or the error's type and message, are those of
    # expanding the text whole and dissecting it.
    def outcome(read):
        try:
            return read().coeffs
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    e, order = parse(text), 30
    want = outcome(lambda: dissect(evaluate(e, order), k, l))
    assert outcome(lambda: column(e, k, l, order)) == want


def test_report_serialization():
    report = verify(get_record("T1.G0"), order=40)
    d = report.to_dict()
    assert list(d.keys()) == ["id", "status", "checkedOrder", "elapsed"]
    bad = verify(IdentityRecord(
        "bad.eq2", "test", SeriesEquality("phi(q)", "psi(q)"), 40))
    d2 = bad.to_dict()
    assert d2["firstFailure"] == {"index": 1, "lhs": "2", "rhs": "1"}


# --- cross-checks against raw coefficients --------------------------------------


def test_dissection_relation_matches_raw_walk():
    rec = get_record("T3.r1")
    assert isinstance(rec.kind, DissectionRelation)
    lhs = evaluate_text(rec.kind.lhs, 200)
    rhs = evaluate_text(rec.kind.rhs, 200)
    for n in range(40):
        i, j = 5 * n + rec.kind.l1, 5 * n + rec.kind.l2
        assert lhs[i] == rec.kind.sign_factor * rhs[j]


def test_sum_identities_difference_is_zero_series():
    for rid in ("T4.i1", "CT.i1"):
        rec = get_record(rid)
        diff = evaluate_text(f"({rec.kind.lhs}) - ({rec.kind.rhs})", 200)
        assert diff.is_zero()


# --- the claim walk against a plain per-coefficient loop ----------------------------


def _poly_text(coeffs) -> str:
    return " + ".join(f"{c}*q^{e}" for e, c in enumerate(coeffs) if c) or "0"


def _random_claim(rng, order):
    """A claim of a random kind over short polynomials, built to hold up to
    at most one planted fault (at any index, 0 included)."""
    k, k2 = rng.randint(1, 4), rng.randint(1, 4)
    l, l2 = rng.randrange(k), rng.randrange(k2)
    cs = [rng.randint(-9, 9) for _ in range(order + 1)]
    on = range(l, order + 1, k)  # positions of the progression k*n + l
    width = len(on)
    fault = rng.randrange(width + 2)  # past the column: no fault
    kind_name = rng.choice(["eq", "diss", "vanish", "cong", "sign"])
    if kind_name == "eq":
        rhs = list(cs)
        if fault <= order:
            rhs[fault] += rng.choice((-1, 1))
        return SeriesEquality(_poly_text(cs), _poly_text(rhs))
    if kind_name == "diss":
        sign = rng.choice((1, -1))
        rhs = [rng.randint(-9, 9) for _ in range(order + 1)]
        # columns of unequal length: only the shorter one is compared
        for n, j in enumerate(range(l2, order + 1, k2)):
            if n < width:
                rhs[j] = sign * cs[on[n]] + (n == fault)
        return DissectionRelation(_poly_text(cs), k, l, _poly_text(rhs), k2, l2, sign)
    if kind_name == "vanish":
        for n, i in enumerate(on):
            cs[i] = rng.randint(1, 3) if n == fault else 0
        return VanishingProgression(_poly_text(cs), k, l)
    if kind_name == "cong":
        m = rng.randint(2, 4)
        for n, i in enumerate(on):
            # negative multiples of m too, which c % m maps to 0
            cs[i] = m * rng.randint(-3, 3) + (n == fault)
        return Congruence(_poly_text(cs), k, l, m)
    sign = rng.choice((1, -1))
    for n, i in enumerate(on):
        cs[i] = sign * rng.randint(1, 9) if n != fault else rng.choice((0, -sign))
    # exceptions inside the column, at the fault, and beyond the column end
    exceptions = frozenset(rng.sample(range(width + 3), rng.randint(0, 3)))
    return SignPattern(_poly_text(cs), k, l, sign, exceptions)


def test_claim_walk_matches_plain_loop(claim_oracle):
    rng = random.Random(60311)
    seen = set()
    for case in range(300):
        order = rng.randint(4, 16)
        kind = _random_claim(rng, order)
        want = claim_oracle(kind, order)
        report = verify(IdentityRecord(f"walk.{case}", "test", kind, order))
        assert (report.status, report.first_failure, report.detail) == want, kind
        assert want[0] != "error", kind
        miss = want[1]
        seen.add((type(kind).__name__, None if miss is None else min(miss[0], 1)))
    # every kind both held and failed, at index 0 and later
    assert len(seen) == 5 * 3


# Claims whose first failure sits on a column's first or last entry, a
# relation read with sign factor -1 (on sides of different lengths in the
# plain loop, which the columns cut to one), and sign patterns whose
# exceptions sit on the first and last entries.  ORDER is the last index.
ORDER = 40
RISING = f"1/(1 - q) - 2 - 2*q^{ORDER}"  # -1, 1, 1, ..., 1, -1
SCAN_EDGES = [
    (SeriesEquality("phi(q)", "phi(q) + 1"), (0, 1, 2)),
    (SeriesEquality("phi(q)", f"phi(q) - q^{ORDER}"), (ORDER, 0, -1)),
    (SeriesEquality("phi(q)", "phi(q)"), None),
    (DissectionRelation("psi(q)", 1, 0, "-psi(q)", 1, 0, -1), None),
    (DissectionRelation("psi(q)", 1, 0, "3 - psi(q)", 1, 0, -1), (0, 1, -2)),
    (DissectionRelation("psi(q)", 1, 0, f"q^{ORDER} - psi(q)", 1, 0, -1), (ORDER, 0, -1)),
    (DissectionRelation("phi(q)", 2, 0, "-phi(q^2)", 1, 0, -1), None),
    (DissectionRelation("phi(q)", 2, 0, "q^20 - phi(q^2)", 1, 0, -1), (20, 0, -1)),
    (VanishingProgression(f"q^{ORDER}", 1, 0), (ORDER, 1, 0)),
    (VanishingProgression("1 + q - q", 1, 0), (0, 1, 0)),
    (Congruence(f"2*phi(q) + q^{ORDER}", 1, 0, 2), (ORDER, 1, 0)),
    (SignPattern(RISING, 1, 0, 1, frozenset({0, ORDER})), None),
    (SignPattern(f"-({RISING})", 1, 0, -1, frozenset({0, ORDER})), None),
    (SignPattern(RISING, 1, 0, 1, frozenset({0})), (ORDER, -1, 1)),
    (SignPattern(RISING, 1, 0, 1, frozenset({ORDER})), (0, -1, 1)),
    (SignPattern(f"-({RISING})", 1, 0, -1, frozenset({ORDER, ORDER + 5})), (0, 1, -1)),
    (SignPattern(f"{RISING} - q^7", 1, 0, 1, frozenset({0, ORDER})), (7, 0, 1)),
]


@pytest.mark.parametrize("kind, failure", SCAN_EDGES)
def test_claim_scan_edges_match_plain_loop(claim_oracle, kind, failure):
    # The same status, (index, value, expected) and detail as one plain
    # loop over the coefficients, and the failure where it was planted.
    want = claim_oracle(kind, ORDER)
    report = verify(IdentityRecord("edge", "test", kind, ORDER))
    assert (report.status, report.first_failure, report.detail) == want
    assert report.first_failure == failure
    if isinstance(kind, SignPattern) and failure is None:
        assert report.detail == f"n=0: value {-kind.expected_sign}; n={ORDER}: value {-kind.expected_sign}"


# --- file load path --------------------------------------------------------------


RECORD_FILE = """
# comment lines and blanks are skipped

u.eq | equality | | phi(q) | phi(q^4) + 2*q*psi(q^8)
u.diss | dissection | k1=5,l1=4,k2=5,l2=4,sign=- | {g1} | {h1}
u.vanish | vanishing | k=5,l=3 | {g1} |
u.cong | congruence | k=5,l=3,mod=2 | (q^2,q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf |
u.sign | sign | k=5,l=4,sign=-,except=1 | {h1} |
u.low | equality | order=25 | psi(q) | psi(q)
""".format(
    g1="(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf",
    h1="(-q^2,-q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf",
)


def test_load_records_round_trip(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text(RECORD_FILE, encoding="utf-8")
    records = load_records(str(path))
    ids = ["u.eq", "u.diss", "u.vanish", "u.cong", "u.sign", "u.low"]
    assert [r.id for r in records] == ids
    # A byte-order mark, as Windows editors write one, is skipped before a
    # leading comment and before a leading record.
    for text in (RECORD_FILE.lstrip("\n"), RECORD_FILE.split("\n", 3)[3]):
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert [r.id for r in load_records(str(path))] == ids
    assert records[1].kind == DissectionRelation(
        "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf", 5, 4,
        "(-q^2,-q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf", 5, 4, -1)
    assert records[5].default_order == 25
    reports = verify_all(order=100, records=records)
    assert all(r.status == "pass" for r in reports)


def test_load_records_rejects_malformed(tmp_path):
    for line in (
        "too | few | fields",
        "x | equality | nonsense | phi(q) | phi(q)",
        "x | wat | | phi(q) | phi(q)",
        "x | dissection | k1=1,l1=0 | phi(q) | phi(q)",
        "x | sign | k=5,l=0,sign=? | phi(q) |",
        "my.v | vanishing | k=5 | q |",
        "my.v | vanishing | k=5,l=x | q |",
        # progressions dissect rejects, nonpositive modulus and order
        "my.v | vanishing | k=5,l=5 | q |",
        "my.v | vanishing | k=0,l=0 | q |",
        "my.v | sign | k=5,l=-1,sign=- | q |",
        "my.d | dissection | k1=5,l1=0,k2=5,l2=7 | q | q",
        "my.c | congruence | k=5,l=3,mod=0 | q |",
        "my.e | equality | order=-4 | q | q",
        # expressions that do not parse, on either side
        "my.e | equality | | q + | q",
        "my.d | dissection | k1=5,l1=0,k2=5,l2=0 | q | (q;q",
        "my.e | equality | | q |",
        # an rhs on a one-column kind, and a sign-pattern exception that
        # can never match
        "a | vanishing | k=5,l=3 | (-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf | q^(((",
        "a | sign | k=1,l=0,sign=+,except=-3 | 1/(q;q)_inf |",
        # a repeated id is reported on its second line
        "my.e | equality | | q | q\nmy.e | equality | | q^2 | q^2",
    ):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n" + line + "\n", encoding="utf-8")
        bad_line = 1 + len(line.splitlines())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{bad_line}: "):
            load_records(str(path))
    # A key the kind does not take is named, not ignored: with sgn=-1 the
    # sign stayed +, so the false claim q = -q passed, and odrer=5 ran at
    # order 300.  A value that is not an integer is named by its key, and
    # a digit string past the int-string limit by its length.
    limit = sys.get_int_max_str_digits()
    for line, message in (
        ("a | dissection | k1=1,l1=0,k2=1,l2=0,sgn=-1 | q | q", "unknown parameter 'sgn'"),
        ("a | equality | odrer=5 | q | q", "unknown parameter 'odrer'"),
        ("a | sign | k=5,l=0,sign=-,mod=2 | q |", "unknown parameter 'mod'"),
        ("a | vanishing | k=5,l=x | q |", "l must be an integer, got 'x'"),
        ("a | vanishing | k=5,l=1_0 | q |", "l must be an integer, got '1_0'"),
        ("a | dissection | k1=5,l1=0,k2=five,l2=0 | q | q", "k2 must be an integer, got 'five'"),
        ("a | congruence | k=5,l=0,mod=two | q |", "mod must be an integer, got 'two'"),
        ("a | equality | order=1e3 | q | q", "order must be an integer, got '1e3'"),
        ("a | sign | k=1,l=0,sign=+,except=1/x | q |", "except must list integers, got 'x'"),
        (f"a | vanishing | k=5,l=-{'7' * (limit + 1)} | q |",
         f"l must be an integer of at most {limit} digits, got {limit + 1} digits"),
    ):
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as error:
            load_records(str(path))
        assert str(error.value) == f"{path}:1: {message}"


def test_load_records_refuses_a_repeated_parameter(tmp_path):
    # Keeping the last value checked l=1, so the true claim at l=3 read
    # FAIL, and order=50,order=300 ran at 300 without a word.
    path = tmp_path / "bad.txt"
    for line, key in (
        ("a | vanishing | k=5,l=3,l=1 | (-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf |", "l"),
        ("a | equality | order=50,order=300 | q | q", "order"),
        ("a | equality | order=50, order = 50 | q | q", "order"),
    ):
        path.write_text("# header\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as error:
            load_records(str(path))
        assert str(error.value) == f"{path}:2: repeated parameter {key!r}"


def test_load_records_checks_progressions_like_dissect(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("my.v | vanishing | k=5,l=5 | q |\n", encoding="utf-8")
    with pytest.raises(ValueError) as load_error:
        load_records(str(path))
    with pytest.raises(ValueError) as dissect_error:
        dissect(TruncatedSeries.one(10), 5, 5)
    assert str(load_error.value) == f"{path}:1: {dissect_error.value}"
