"""Theta functions, Pochhammer products, and the triple-product oracle."""

import pytest

from qdissect import theta
from qdissect.combinatorics import counting_series, parse_spec
from qdissect.qexpr import evaluate_direct, parse
from qdissect.series import TruncatedSeries, schoolbook_mul
from qdissect.theta import (
    InvalidFactor,
    InvalidParameters,
    InvalidThetaArgument,
    NegativeExponent,
    PochhammerFactor,
    SignedMonomial,
    bsum,
    jtp_product,
    phi,
    pochhammer,
    psi,
    theta_f,
)


def sm(sign: int, e: int) -> SignedMonomial:
    return SignedMonomial(sign, e)


# --- signed monomials --------------------------------------------------------


def test_signed_monomial_algebra():
    a, b = sm(-1, 3), sm(-1, 5)
    assert a.times(b) == sm(1, 8)
    assert b.over(a) == sm(1, 2)
    assert a.negated() == sm(1, 3)
    with pytest.raises(NegativeExponent):
        a.over(b)
    with pytest.raises(NegativeExponent):
        SignedMonomial(1, -2)
    with pytest.raises(InvalidParameters):
        SignedMonomial(2, 1)


def test_pochhammer_factor_validation():
    with pytest.raises(InvalidFactor):
        PochhammerFactor(sm(1, 0), 5)
    with pytest.raises(InvalidFactor):
        PochhammerFactor(sm(1, 1), 0)
    PochhammerFactor(sm(-1, 0), 5)  # (−q^0; q^5) = (1 − (−1)) · … is fine


@pytest.mark.parametrize("build", [
    lambda: theta_f(sm(1, 1), sm(1, 2), -1),
    lambda: phi(1, -1),
    lambda: psi(1, -1),
    lambda: bsum(2, 1, -1),
    lambda: pochhammer(PochhammerFactor(sm(1, 1), 1), -1),
    lambda: jtp_product(sm(1, 1), sm(1, 2), -1),
    lambda: evaluate_direct(parse("f(q,q^2)"), -1),
    lambda: evaluate_direct(parse("q"), -1),
    lambda: counting_series(parse_spec("M=5;1x1"), -1),
], ids=["theta_f", "phi", "psi", "bsum", "pochhammer", "jtp_product",
        "evaluate_direct-theta", "evaluate_direct-monomial", "counting_series"])
def test_negative_order_refused(build):
    # Every builder refuses order -1 with one error, and theta_f caches
    # nothing for it.
    cached = theta.theta_f.cache_info().currsize
    with pytest.raises(InvalidParameters, match="order must be nonnegative, got -1"):
        build()
    assert theta.theta_f.cache_info().currsize == cached


# --- classical expansions -----------------------------------------------------


def test_euler_product_pentagonal_numbers():
    got = pochhammer(PochhammerFactor(sm(1, 1), 1), 10)
    assert got.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0)


def test_pochhammer_sparse_factor():
    got = pochhammer(PochhammerFactor(sm(1, 2), 5), 9)
    # (1-q^2)(1-q^7) to order 9
    assert got.coeffs == (1, 0, -1, 0, 0, 0, 0, -1, 0, 1)


def test_pochhammer_negative_argument_matches_factor_product():
    # (-+q^r; q^m) = prod_n (1 +- q^(r+nm)), multiplied out here with the
    # schoolbook oracle, outside the slice map pochhammer shares with
    # jtp_product: both signs of its factor step.  r = 0 with the minus
    # argument gives the factor (1 + 1) = 2.
    order = 40
    for sign, first in ((-1, 0), (1, 1)):
        for m in range(1, 7):
            for r in range(first, 2 * m + 1):
                want = TruncatedSeries.one(order)
                for e in range(r, order + 1, m):
                    want = schoolbook_mul(want, TruncatedSeries.one(order)
                                          - TruncatedSeries.monomial(e, order, sign))
                got = pochhammer(PochhammerFactor(sm(sign, r), m), order)
                assert got == want, (sign, r, m)


def test_phi_psi_values():
    assert phi(1, 10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)
    assert psi(1, 6).coeffs == (1, 1, 0, 1, 0, 0, 1)
    assert psi(2, 6).coeffs == (1, 0, 1, 0, 0, 0, 1)
    assert phi(2, 8) .coeffs == (1, 0, 2, 0, 0, 0, 0, 0, 2)
    with pytest.raises(InvalidFactor):
        phi(0, 5)
    with pytest.raises(InvalidFactor):
        psi(-1, 5)


def test_theta_f_small_support():
    got = theta_f(sm(1, 1), sm(1, 4), 15)
    assert [e for e, c in enumerate(got.coeffs) if c] == [0, 1, 4, 7, 13]
    assert set(got.coeffs) <= {0, 1}


def test_theta_f_symmetry():
    for a, b in ((sm(1, 2), sm(1, 7)), (sm(-1, 3), sm(1, 4)), (sm(-1, 1), sm(-1, 6))):
        assert theta_f(a, b, 60) == theta_f(b, a, 60)


def test_theta_f_phi_psi_consistency():
    assert theta_f(sm(1, 1), sm(1, 1), 30) == phi(1, 30)
    assert theta_f(sm(1, 1), sm(1, 3), 30) == psi(1, 30)


def test_theta_f_argument_validation():
    with pytest.raises(InvalidThetaArgument):
        theta_f(sm(1, 0), sm(1, 0), 10)
    with pytest.raises(InvalidThetaArgument):
        theta_f(sm(-1, 0), sm(1, 0), 10)


def test_theta_f_unit_argument():
    # f(1, b) doubles into a theta of the base: f(1, b) = 2 f(b, b^3)
    lhs = theta_f(sm(1, 0), sm(1, 5), 80)
    rhs = theta_f(sm(1, 5), sm(1, 15), 80).scale(2)
    assert lhs == rhs


def test_theta_f_minus_one_vanishes():
    assert theta_f(sm(-1, 0), sm(1, 3), 40).is_zero()
    assert jtp_product(sm(-1, 0), sm(1, 3), 40).is_zero()


def test_triple_product_oracle_sweep():
    # exhaustive small sweep; the acceptance suite pushes this to r+s <= 12
    for r in range(0, 7):
        for s in range(0, 7):
            if r + s < 1:
                continue
            for sa in (1, -1):
                for sb in (1, -1):
                    a, b = sm(sa, r), sm(sb, s)
                    assert theta_f(a, b, 100) == jtp_product(a, b, 100), (a, b)


@pytest.mark.parametrize("order", (0, 1, 2, 6000))
def test_theta_f_bytes_match_the_product_form(order):
    # theta_f stores its coefficients, each in [-2, 2], in a signed byte
    # array; the series equals, both ways, and hashes like the triple
    # product's tuple-backed one, and .coeffs reads as a tuple.  f(1, q^k)
    # holds 2s, mixed signs alternate, and f(-1, b) is the zero series.
    for a, b in ((sm(1, 0), sm(1, 40)), (sm(-1, 17), sm(1, 23)), (sm(-1, 0), sm(1, 40)),
                 (sm(-1, 20), sm(-1, 20)), (sm(1, 0), sm(-1, 1))):
        if order == 6000 and a.exponent + b.exponent < 40:
            continue  # the product form is quadratic in the order over the base
        got, want = theta_f(a, b, order), jtp_product(a, b, order)
        assert got._coeffs.typecode == "b" and type(want._coeffs) is tuple
        assert got == want and want == got and hash(got) == hash(want)
        assert type(got.coeffs) is tuple and got.coeffs == want.coeffs
        assert max(map(abs, got.coeffs)) <= 2
        assert got != TruncatedSeries(list(want.coeffs[:-1]) + [want.coeffs[-1] + 1])
    assert 2 in theta_f(sm(1, 0), sm(1, 40), 6000).coeffs


# --- bilateral quadratic sums --------------------------------------------------


def test_bsum_support():
    got = bsum(20, 2, 100)
    # 20n^2 + 2n at n = 0, -1, 1, -2, 2
    assert [e for e, c in enumerate(got.coeffs) if c] == [0, 18, 22, 76, 84]
    assert set(got.coeffs) <= {0, 1}


def test_bsum_lattice_collision():
    # A n^2 + B n with B = 0 pairs n and -n, so coefficients reach 2
    got = bsum(1, 0, 9)
    assert got.coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)


def test_bsum_validation():
    with pytest.raises(InvalidParameters):
        bsum(0, 0, 10)
    with pytest.raises(InvalidParameters):
        bsum(3, 6, 10)
    with pytest.raises(InvalidParameters):
        bsum(3, -7, 10)
    with pytest.raises(NegativeExponent):
        bsum(3, 4, 10)


def direct_sum(exponent, order: int) -> TruncatedSeries:
    """Sum of q^exponent(n) over all integers n, term by term: the oracle
    for the builders that theta_f implements.  Every exponent used here
    is at least |n| - 1, so |n| <= order + 1 covers every term."""
    cs = [0] * (order + 1)
    for n in range(-order - 1, order + 2):
        e = exponent(n)
        if e <= order:
            cs[e] += 1
    return TruncatedSeries(cs)


def test_bsum_matches_direct_sum():
    order = 400
    for quad in range(1, 25):
        for lin in range(-quad, quad + 1):
            want = direct_sum(lambda n: quad * n * n + lin * n, order)
            assert bsum(quad, lin, order) == want, (quad, lin)


def test_phi_psi_match_direct_sum():
    order = 400
    for k in range(1, 20):
        assert phi(k, order) == direct_sum(lambda n: k * n * n, order), k
        # n(n+1)/2 over all integers n visits each triangular number twice
        tri = direct_sum(lambda n: k * n * (n + 1) // 2, order)
        assert psi(k, order) == TruncatedSeries([c // 2 for c in tri.coeffs]), k
