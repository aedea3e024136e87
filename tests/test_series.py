"""Exact truncated series arithmetic: unit checks and randomized laws."""

import random
import sys

import pytest

from qdissect.qexpr import evaluate_text
from qdissect.series import (
    MAX_COEFF_BITS,
    _mul_lists,
    _mul_terms,
    LimitExceeded,
    NonUnitConstantTerm,
    TruncatedSeries,
    coeff_text,
    dissect,
    first_index,
    invert,
    power_bits,
    schoolbook_mul,
    shift,
    substitute_power,
)

CASES = 120
ORDER = 64


def rand_series(rng: random.Random, order: int = ORDER, bound: int = 50) -> TruncatedSeries:
    return TruncatedSeries([rng.randint(-bound, bound) for _ in range(order + 1)])


def rand_unit(rng: random.Random, order: int = ORDER, bound: int = 50) -> TruncatedSeries:
    cs = [rng.randint(-bound, bound) for _ in range(order + 1)]
    cs[0] = rng.choice((1, -1))
    return TruncatedSeries(cs)


# --- construction and accessors --------------------------------------------


def test_basic_accessors():
    a = TruncatedSeries([3, 0, -2])
    assert a.order == 2
    assert a.coeffs == (3, 0, -2)
    assert a[0] == 3 and a[2] == -2
    with pytest.raises(IndexError):
        a[3]
    with pytest.raises(IndexError):
        a[-1]


def test_coefficients_must_be_integers():
    for bad in ([0.5, 2.9], "123", [1, "2"]):
        with pytest.raises(TypeError):
            TruncatedSeries(bad)


def test_constructors():
    assert TruncatedSeries.zero(3).coeffs == (0, 0, 0, 0)
    assert TruncatedSeries.one(3).coeffs == (1, 0, 0, 0)
    assert TruncatedSeries.monomial(2, 4, coeff=5).coeffs == (0, 0, 5, 0, 0)
    assert TruncatedSeries.monomial(7, 4).is_zero()


def test_equality_and_hash():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([1, 2, 3])
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedSeries([1, 2])
    assert a != TruncatedSeries([1, 2, 4])


def test_truncation_to_shorter_operand():
    a = TruncatedSeries([1, 1, 1, 1, 1])
    b = TruncatedSeries([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


# --- ring laws on random inputs ---------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(20260819)
    one = TruncatedSeries.one(ORDER)
    zero = TruncatedSeries.zero(ORDER)
    for _ in range(CASES):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert a + (-a) == zero
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * one == a
        assert a * (b + c) == a * b + a * c


def _stress_pairs(rng: random.Random):
    """Operands whose products push the balanced-digit decode to its edges."""
    for _ in range(CASES):
        # all-negative operands
        n, m = rng.randint(0, 40), rng.randint(0, 40)
        yield (TruncatedSeries([-rng.randint(1, 10**9) for _ in range(n + 1)]),
               TruncatedSeries([-rng.randint(1, 10**9) for _ in range(m + 1)]))
        # +-(2^k - 1) and +-2^k: with equal signs lined up, a product
        # coefficient reaches the width bound mx * my * length
        k = rng.randint(1, 80)
        edge = (2**k - 1, 2**k, -(2**k - 1), -(2**k))
        length = rng.randint(1, 30)
        c = rng.choice(edge)
        yield (TruncatedSeries([c] * length),
               TruncatedSeries([rng.choice((c, -c))] * length))
        yield (TruncatedSeries([rng.choice(edge) for _ in range(length)]),
               TruncatedSeries([rng.choice(edge) for _ in range(length)]))
        # long zero runs between sparse nonzero terms
        cs = [0] * rng.randint(20, 200)
        ds = [0] * rng.randint(20, 200)
        for xs in (cs, ds):
            for _ in range(rng.randint(1, 4)):
                xs[rng.randrange(len(xs))] = rng.choice((-1, 1)) * rng.randint(1, 2**40)
        yield TruncatedSeries(cs), TruncatedSeries(ds)


def test_mul_matches_schoolbook_random():
    rng = random.Random(97)
    for _ in range(CASES):
        n = rng.randint(0, 40)
        bound = rng.choice((5, 10**6, 10**12, 10**24))
        a = rand_series(rng, n, bound)
        b = rand_series(rng, rng.randint(0, 40), bound)
        assert a * b == schoolbook_mul(a, b)
    for a, b in _stress_pairs(rng):
        assert a * b == schoolbook_mul(a, b), (a, b)
    # n_out shorter than both operands: only the low digits are read back
    for _ in range(CASES):
        xs = [rng.randint(-2**30, 2**30) for _ in range(rng.randint(5, 40))]
        ys = [rng.randint(-2**30, 2**30) for _ in range(rng.randint(5, 40))]
        n_out = rng.randint(0, min(len(xs), len(ys)) - 2)
        a, b = TruncatedSeries(xs[: n_out + 1]), TruncatedSeries(ys[: n_out + 1])
        assert _mul_lists(xs, ys, n_out) == list(schoolbook_mul(a, b).coeffs)


@pytest.fixture
def pair_calls(monkeypatch):
    """(kx, ky, n) of every product that takes the term-pair path."""
    import qdissect.series as series

    calls = []

    def counting(xs, ys, ix, iy, n):
        calls.append((len(ix), len(iy), n))
        return _mul_terms(xs, ys, ix, iy, n)

    monkeypatch.setattr(series, "_mul_terms", counting)
    return calls


def _oracle(xs, ys, n_out):
    """schoolbook_mul on both operands zero-padded or cut to n_out + 1 terms."""
    def fit(cs):
        return TruncatedSeries((list(cs) + [0] * (n_out + 1))[: n_out + 1])

    return list(schoolbook_mul(fit(xs), fit(ys)).coeffs)


def _sparse(rng, length, positions):
    """Zeros except at `positions`: signed values from 1 up to past 64 bits."""
    cs = [0] * length
    for i in positions:
        cs[i] = rng.choice((-1, 1)) * rng.randint(1, rng.choice((9, 2**40, 2**100)))
    return cs


def test_mul_paths_match_schoolbook(pair_calls):
    rng = random.Random(5)
    for _ in range(CASES):
        kx, ky = rng.randint(2, 9), rng.randint(2, 9)
        # kx * ky equal to n takes the pairs, kx * ky = n + 1 packs
        for n, pairs in ((kx * ky, True), (kx * ky - 1, False)):
            xs = _sparse(rng, n, rng.sample(range(n), kx))
            ys = _sparse(rng, n, rng.sample(range(n), ky))
            pair_calls.clear()
            assert _mul_lists(xs, ys, n - 1) == _oracle(xs, ys, n - 1)
            assert pair_calls == ([(kx, ky, n)] if pairs else []), (kx, ky, n)
        # an operand shorter than n_out + 1, as in invert's Newton rounds
        n = rng.randint(2, 60)
        xs = _sparse(rng, n, rng.sample(range(n), rng.randint(1, n)))
        m = rng.randint(1, n - 1)
        ys = _sparse(rng, m, rng.sample(range(m), rng.randint(1, m)))
        assert _mul_lists(xs, ys, n - 1) == _oracle(xs, ys, n - 1)
        assert _mul_lists(ys, xs, n - 1) == _oracle(ys, xs, n - 1)
        # terms near the top, so many pairs have i + j past n_out
        n = rng.randint(8, 60)
        top = range(n // 2, n)
        xs = _sparse(rng, n, rng.sample(top, rng.randint(1, 3)))
        ys = _sparse(rng, n, [0] + rng.sample(top, rng.randint(1, 3)))
        assert _mul_lists(xs, ys, n - 1) == _oracle(xs, ys, n - 1)
        # an all-zero operand: no pairs, a zero product of full length
        pair_calls.clear()
        assert _mul_lists([0] * n, ys, n - 1) == [0] * n
        assert _mul_lists(xs, [0] * (n // 2), n - 1) == [0] * n
        assert len(pair_calls) == 2


@pytest.mark.parametrize(
    "left, right, order, kx, ky, pairs",
    [
        ("phi(q^5)", "psi(q^10)", 6000, 35, 35, True),
        ("f(q,q^2)", "f(q^2,q^3)", 6000, 127, 98, False),
        ("(q;q)_inf^-1", "(q^2;q^2)_inf^-1", 1000, 1001, 501, False),
    ],
)
def test_mul_path_dispatch(pair_calls, left, right, order, kx, ky, pairs):
    # The term-pair path runs exactly when kx * ky <= n = order + 1.
    a, b = evaluate_text(left, order), evaluate_text(right, order)
    assert (sum(map(bool, a.coeffs)), sum(map(bool, b.coeffs))) == (kx, ky)
    pair_calls.clear()
    product = a * b
    assert pair_calls == ([(kx, ky, order + 1)] if pairs else [])
    assert product == schoolbook_mul(b, a)


def test_mul_spot_values():
    a = TruncatedSeries([1, 1, 1])
    assert (a * a).coeffs == (1, 2, 3)
    geo = invert(TruncatedSeries([1, -1, 0, 0, 0, 0]))
    assert geo.coeffs == (1, 1, 1, 1, 1, 1)


def test_pow():
    a = TruncatedSeries([1, 3, -2, 4])
    assert a**0 == TruncatedSeries.one(3)
    assert a**1 == a
    assert a**4 == a * a * a * a
    assert a**-2 == invert(a) * invert(a)
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries([0, 1]) ** -1


def test_pow_matches_repeated_products():
    rng = random.Random(77)
    a = rand_unit(rng, 30, bound=5)
    inv = invert(a)
    for k in range(-5, 17):
        want = TruncatedSeries.one(30)
        for _ in range(abs(k)):
            want = want * (a if k > 0 else inv)
        assert a**k == want, k


def test_pow_multiply_count(monkeypatch):
    # Binary powering: bit_length(k) - 1 squarings and popcount(k) - 1
    # products by the base; no product with a unit seed.
    import qdissect.series as series

    calls = []

    def counting(xs, ys, n_out):
        calls.append(n_out)
        return _mul_lists(xs, ys, n_out)

    monkeypatch.setattr(series, "_mul_lists", counting)
    a = TruncatedSeries([1, 3, -2, 4, 1])
    for k in range(1, 40):
        calls.clear()
        a**k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k


def test_power_bits():
    # k * (bit length of the widest coefficient + bit length of order + 1)
    one_plus_q = TruncatedSeries.monomial(0, 300) + TruncatedSeries.monomial(1, 300)
    assert power_bits(one_plus_q, 7) == 7 * (1 + 9)
    assert power_bits(TruncatedSeries([3, -200, 5, 0]), 3) == 3 * (8 + 3)
    assert power_bits(one_plus_q, 10**300) > MAX_COEFF_BITS
    # a power that cannot grow: +-q^v, zero, or vanishing to the order
    assert power_bits(TruncatedSeries([-1, 0, 0]), 10**300) == 0
    assert power_bits(TruncatedSeries.monomial(2, 30), 10**300) == 0
    assert power_bits(TruncatedSeries.zero(30), 10**300) == 0
    assert power_bits(TruncatedSeries([0, 0, 5, 7]), 2) == 0
    assert power_bits(TruncatedSeries([0, 0, 5, 7, 0]), 2) == 2 * (3 + 3)
    # past the order the truncation bounds it: (1+q)^20000 to order 30
    # has coefficients of at most 321 bits, bounded by 30*(1+5+15) + 5
    assert power_bits(TruncatedSeries([1, 1] + [0] * 29), 20000) == 30 * (1 + 5 + 15) + 5
    assert power_bits(TruncatedSeries([3, 1, 0]), 40) == 40 * 2 + 2 * (2 + 2 + 6) + 2
    # the registry's widest coefficient is 242 bits at order 2000
    assert MAX_COEFF_BITS >= 100 * 242


def test_power_bits_bounds_the_power():
    rng = random.Random(2024)
    for _ in range(300):
        a = rand_series(rng, rng.randint(0, 6), bound=rng.choice((1, 3, 40)))
        k = rng.choice((rng.randint(1, 12), rng.randint(1, 300)))
        bits = power_bits(a, k)
        got = a**k
        assert max(max(got.coeffs), -min(got.coeffs)).bit_length() <= bits or (
            bits == 0 and set(map(abs, got.coeffs)) <= {0, 1}), (a, k)


def test_pow_refuses_past_the_limit_before_multiplying(monkeypatch):
    import qdissect.series as series

    def no_multiply(*args):
        raise AssertionError("multiplied before checking the limit")

    monkeypatch.setattr(series, "_mul_lists", no_multiply)
    with pytest.raises(LimitExceeded):
        TruncatedSeries([1, 1] + [0] * 299) ** (10**300)
    with pytest.raises(LimitExceeded):
        TruncatedSeries([2, 0]) ** (10**300)
    wide = TruncatedSeries([1, 2**6600] + [0] * 9)  # 9 * 6605 bits fit, 10 * 6605 do not
    with pytest.raises(LimitExceeded):
        wide**10
    monkeypatch.undo()
    assert (wide**9)[9] == 2 ** (6600 * 9)


# --- inversion ---------------------------------------------------------------


def test_invert_random():
    rng = random.Random(1234)
    for _ in range(CASES):
        a = rand_unit(rng, rng.randint(0, 80))
        assert a * invert(a) == TruncatedSeries.one(a.order)


def test_invert_of_series_in_q_to_the_g():
    # a(q^g) inverts at order N // g; the result is spread back.
    rng = random.Random(4321)
    for _ in range(40):
        g = rng.randint(2, 7)
        a = rand_unit(rng, rng.randint(0, 20), bound=9)
        n = g * a.order + rng.randint(0, g - 1)
        spread = TruncatedSeries(list(substitute_power(a, g).coeffs) + [0] * (n - g * a.order))
        got = invert(spread)
        assert spread * got == TruncatedSeries.one(n)
        assert dissect(got, g, 0) == invert(a)


def test_invert_requires_unit_constant():
    for bad in ([0, 1, 2], [2, 0], [-3]):
        with pytest.raises(NonUnitConstantTerm):
            invert(TruncatedSeries(bad))


def test_invert_negative_unit():
    a = TruncatedSeries([-1, 5, 7])
    assert a * invert(a) == TruncatedSeries.one(2)


# --- substitution, shift, dissection -----------------------------------------


def test_substitute_power_spreads_coefficients():
    a = TruncatedSeries([1, 2, 3])
    b = substitute_power(a, 3)
    assert b.order == 6
    assert b.coeffs == (1, 0, 0, 2, 0, 0, 3)
    assert substitute_power(a, 1) == a


def test_shift():
    a = TruncatedSeries([4, 5])
    b = shift(a, 2)
    assert b.order == 3
    assert b.coeffs == (0, 0, 4, 5)
    assert shift(a, 0) == a


def test_dissect_bounds():
    a = TruncatedSeries([1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        dissect(a, 0, 0)
    with pytest.raises(ValueError):
        dissect(a, 3, 3)
    with pytest.raises(ValueError):
        dissect(a, 3, -1)
    with pytest.raises(ValueError):
        dissect(TruncatedSeries([1]), 3, 1)


def test_dissect_examples():
    a = TruncatedSeries(list(range(10)))
    assert dissect(a, 3, 0).coeffs == (0, 3, 6, 9)
    assert dissect(a, 3, 1).coeffs == (1, 4, 7)
    assert dissect(a, 1, 0) == a


def test_dissection_reconstruction_random():
    rng = random.Random(5150)
    for _ in range(CASES):
        k = rng.randint(1, 8)
        a = rand_series(rng, rng.randint(k, 90))
        total = TruncatedSeries.zero(a.order)
        for l in range(k):
            piece = shift(substitute_power(dissect(a, k, l), k), l)
            padded = list(piece.coeffs[: a.order + 1])
            padded += [0] * (a.order + 1 - len(padded))
            total = total + TruncatedSeries(padded)
        assert total == a


def test_substitute_power_composes():
    rng = random.Random(77)
    for _ in range(100):
        a = rand_series(rng, rng.randint(0, 20))
        j, k = rng.randint(1, 4), rng.randint(1, 4)
        assert substitute_power(substitute_power(a, j), k) == substitute_power(a, j * k)


# --- printing and scanning ---------------------------------------------------


def test_coeff_text_writes_any_width():
    # Widths on both sides of the interpreter's int-string digit limit,
    # checked against digit patterns built without str().
    limit = sys.get_int_max_str_digits()
    for digits in (1, 7, limit - 1, limit, limit + 1, 3 * limit + 5):
        nines = 10 ** digits - 1
        assert coeff_text(nines) == "9" * digits
        assert coeff_text(-nines) == "-" + "9" * digits
        assert coeff_text(nines + 1) == "1" + "0" * digits
        assert coeff_text(10 ** (2 * digits) + 7) == "1" + "0" * (2 * digits - 1) + "7"
    assert coeff_text(0) == "0"
    big = TruncatedSeries([10 ** limit, 0])
    assert repr(big) == f"TruncatedSeries([1{'0' * limit}, 0], order=1)"
    assert sys.get_int_max_str_digits() == limit


def test_first_index():
    assert first_index([]) is None
    assert first_index([0, 0, False]) is None
    assert first_index([3, 0]) == 0
    assert first_index(iter([0, 0, -1, 1])) == 2
