"""Partition counting oracle, interpretation checks, sign scans."""

import random
import sys

import pytest

from qdissect.combinatorics import (
    InvalidSpec,
    PartClassSpec,
    count_partitions,
    counting_series,
    parse_spec,
    scan_signs,
    spec_text,
    verify_interpretation,
)
from qdissect.qexpr import evaluate_text, parse

G0_SPEC = "M=10;1x2,9x2,2x1,8x1,4x2,6x2"
G1_TEXT = "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf"
H1_TEXT = "(-q^2,-q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf"


def test_parse_spec_round_trip():
    spec = parse_spec(G0_SPEC)
    assert spec.modulus == 10
    assert spec.classes == ((1, 2), (9, 2), (2, 1), (8, 1), (4, 2), (6, 2))
    assert spec_text(spec) == G0_SPEC
    assert parse_spec(spec_text(spec)) == spec


def test_parse_spec_errors():
    for bad in ("", "10;1x2", "M=10;", "M=10;1", "M=10;1y2", "M=0;1x1",
                "M=10;0x1", "M=10;11x1", "M=10;3x0", "M=10;3x1,3x2"):
        with pytest.raises((InvalidSpec, ValueError)):
            parse_spec(bad)
    # Every number is read as flags are: ASCII digits only, the field
    # named, and a modulus past the int-string limit named by its length.
    limit = sys.get_int_max_str_digits()
    for bad, message in (
        ("M=10;1_0x1", "residue must be an integer, got '1_0'"),
        ("M=\u0661\u0660;1x1", "modulus must be an integer, got '\u0661\u0660'"),
        ("M=10;ax1", "residue must be an integer, got 'a'"),
        ("M=10;1x2 2", "flavours must be an integer, got '2 2'"),
        (f"M={'7' * (limit + 700)};1x1",
         f"modulus must be an integer of at most {limit} digits, got {limit + 700} digits"),
    ):
        with pytest.raises(InvalidSpec) as error:
            parse_spec(bad)
        assert str(error.value) == message


def test_count_small_values_by_hand():
    # two flavours of parts congruent to 1, 9 and 4, 6 mod 10, one
    # flavour of parts congruent to 2, 8: hand-enumerated counts
    spec = parse_spec(G0_SPEC)
    assert [count_partitions(spec, n) for n in range(6)] == [1, 2, 4, 6, 11, 16]


def test_count_negative_rejected():
    with pytest.raises(InvalidSpec):
        count_partitions(parse_spec(G0_SPEC), -1)


def test_counting_series_agrees_with_pointwise():
    spec = parse_spec("M=5;1x1,4x2,2x3")
    series = counting_series(spec, 25)
    assert list(series.coeffs) == [count_partitions(spec, n) for n in range(26)]


def test_counting_series_matches_product_inversion():
    # independent cross-check: the DP against the generating function
    spec = parse_spec(G0_SPEC)
    series = counting_series(spec, 40)
    product = evaluate_text("(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1", 40)
    assert series == product


def _per_flavour(spec, order):
    """The counts by one recurrence pass per flavour of every size."""
    dp = [1] + [0] * order
    for residue, flavours in spec.classes:
        for size in range(residue, order + 1, spec.modulus):
            for _ in range(flavours):
                for i in range(size, order + 1):
                    dp[i] += dp[i - size]
    return dp


def test_counting_routes_agree():
    # A size s whose flavour count f passes order // s is applied in one
    # pass of the binomial series, every other size one pass per flavour.
    # Flavour counts drawn around order // r, for each residue r, put
    # sizes on both sides; the counts equal those of the per-flavour pass.
    rng = random.Random(1403)
    routes = set()
    for _ in range(60):
        order = rng.randint(0, 40)
        modulus = rng.randint(1, 8)
        classes = []
        for r in sorted(rng.sample(range(1, modulus + 1), rng.randint(1, modulus))):
            flavours = max(1, order // r + rng.randint(-2, 2))
            classes.append((r, flavours))
            routes.update(flavours > order // s for s in range(r, order + 1, modulus))
        spec = PartClassSpec(modulus, tuple(classes))
        assert list(counting_series(spec, order).coeffs) == _per_flavour(spec, order), spec
    assert routes == {True, False}


def test_single_flavour_is_classical_partitions():
    spec = parse_spec("M=1;1x1")
    assert [count_partitions(spec, n) for n in range(11)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]


def test_verify_interpretation_pass():
    report = verify_interpretation(
        parse_spec(G0_SPEC), parse(G1_TEXT), 5, 0, up_to=15)
    assert report.ok
    assert report.checked_up_to == 15
    assert report.first_failure is None


def test_verify_interpretation_failure_located():
    report = verify_interpretation(
        parse_spec(G0_SPEC), parse(G1_TEXT), 5, 0, up_to=15, sign_factor=-1)
    assert not report.ok
    assert report.first_failure == (0, -1, 1)


def test_verify_interpretation_multiplier():
    spec = parse_spec("M=10;1x1,9x1,2x2,8x2,3x1,7x1,4x1,6x1")
    report = verify_interpretation(spec, parse(G1_TEXT), 5, 1, up_to=12,
                                   multiplier=2)
    assert report.ok


def test_scan_signs_records_zero_exceptions():
    scan = scan_signs(parse(H1_TEXT), 5, 4, 30)
    assert scan.zeros == [1]
    assert all(s == -1 for n, s in enumerate(scan.signs) if n != 1)
    assert scan.sign_changes == []
    assert scan.values[0] == -1


def test_scan_signs_alternation():
    scan = scan_signs(parse("1 - q"), 1, 0, 1)
    assert scan.signs == [1, -1]
    assert scan.sign_changes == [1]
    assert scan.zeros == []
