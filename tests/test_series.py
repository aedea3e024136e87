"""Exact truncated series arithmetic: unit checks and randomized laws."""

import random
import sys
from array import array
from functools import reduce
from math import gcd, isqrt

import pytest
from conftest import claim_fields

from qdissect.qexpr import cross_multiplied, evaluate_direct, evaluate_text, parse
from qdissect.series import (
    MAX_COEFF_BITS,
    SHIFTED_ADDS,
    SPLIT_ADD_BYTES,
    TWO_POINT_BYTES,
    _mul_lists,
    _mul_terms,
    _shifted_adds,
    _width,
    LimitExceeded,
    NonUnitConstantTerm,
    Profile,
    TruncatedSeries,
    add_product_into,
    coeff_text,
    dissect,
    divide,
    first_index,
    invert,
    power_bits,
    schoolbook_mul,
    shift,
    substitute_power,
)
from qdissect.theta import PochhammerFactor, SignedMonomial, bsum, phi, pochhammer, psi, theta_f

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
    # Kernel results are not checked again, so the public scalars are
    # checked where they enter.
    with pytest.raises(TypeError):
        TruncatedSeries([1, 2]).scale(0.5)
    with pytest.raises(TypeError):
        TruncatedSeries.monomial(2, 4, coeff=1.5)


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
        assert _mul_lists(Profile(xs), Profile(ys), n_out) == list(schoolbook_mul(a, b).coeffs)
    # The accumulator: a product of 0, 1, 2 or 3 factors, sparse, in q^g or
    # dense, shorter or longer than out, added at an offset at or past the
    # end of out too, with signs 0, -1, 1 and 3, into a list already
    # holding terms; and the positions written, for no factor and for one.
    for _ in range(3 * CASES):
        size = rng.randint(1, 60)
        start = [rng.randint(-9, 9) for _ in range(size)]
        factors = []
        for _ in range(rng.randint(0, 3)):
            length = max(1, size + rng.randint(-8, 8))
            k = min(length, rng.randint(0, 3))
            cs = rng.choice((
                lambda: _sparse(rng, length, rng.sample(range(length), k)),
                lambda: _spread(rng, rng.randint(2, 4), length, 2**70),
                lambda: list(rand_series(rng, length - 1).coeffs)))()
            factors.append(TruncatedSeries(cs))
            if rng.random() < 0.5:
                factors[-1].profile
        want = [1]
        if factors:
            want = list(reduce(schoolbook_mul, factors).coeffs)
        inside = rng.randrange(size)
        offset = rng.choice((0, inside, inside, size - 1, size, size + 3))
        sign = rng.choice((0, -1, 1, 3))
        written = None
        if offset >= size or not sign:
            written = []
        elif not factors:
            written = [offset]
        elif len(factors) == 1 and factors[0]._profile is not None \
                and factors[0]._profile.positions is not None:
            written = [offset + i for i in factors[0]._profile.positions if offset + i < size]
        out = list(start)
        assert add_product_into(out, factors, offset, sign) == written
        for i, c in enumerate(want):
            if offset + i < size:
                start[offset + i] += sign * c
        assert out == start, (factors, offset, sign)


@pytest.fixture
def pair_calls(monkeypatch):
    """(kx, ky, n) of every product that takes the term-pair path."""
    import qdissect.series as series

    calls = []

    def counting(xs, ys, ix, iy, n, *into):
        calls.append((len(ix), len(iy), n))
        return _mul_terms(xs, ys, ix, iy, n, *into)

    monkeypatch.setattr(series, "_mul_terms", counting)
    return calls


@pytest.fixture
def mul_calls(monkeypatch):
    """n_out of every _mul_lists call, the split's sub-products included."""
    import qdissect.series as series

    calls = []

    def counting(px, py, n_out, *rest):
        calls.append(n_out)
        return _mul_lists(px, py, n_out, *rest)

    monkeypatch.setattr(series, "_mul_lists", counting)
    return calls


@pytest.fixture
def array_codes(monkeypatch):
    """The typecode of every array the packed path builds: one per narrow
    pack and one per narrow unpack."""
    import qdissect.series as series

    codes = []

    def counting(code, items):
        codes.append(code)
        return array(code, items)

    monkeypatch.setattr(series, "array", counting)
    return codes


@pytest.fixture
def parity_splits(monkeypatch):
    """One entry per operand split into its even and odd digits, as each
    operand of a product taken at two points is: whether it kept its
    positions (a q^2 split's operand is split by residue too)."""
    import qdissect.series as series

    kept = []
    real = series._residue_supports

    def counting(positions, g):
        if g == 2:
            kept.append(positions is not None)
        return real(positions, g)

    monkeypatch.setattr(series, "_residue_supports", counting)
    return kept


@pytest.fixture
def path_calls(monkeypatch):
    """(path, n) of every product taken by shifted adds, the q^g split or
    packing, sub-products included, in the order the paths are entered."""
    import qdissect.series as series

    calls = []
    for name in ("_shifted_adds", "_split", "_packed"):
        def recording(px, py, n, *rest, name=name, real=getattr(series, name)):
            calls.append((name, n))
            return real(px, py, n, *rest)

        monkeypatch.setattr(series, name, recording)
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


def _positions(rng, n, k, coprime):
    """k distinct positions below n; with `coprime` their gcd is 1, so no
    q^g split applies."""
    while True:
        positions = rng.sample(range(n), k)
        if not coprime or gcd(*positions) == 1:
            return positions


def test_mul_paths_match_schoolbook(pair_calls):
    rng = random.Random(5)
    for _ in range(CASES):
        kx, ky = rng.randint(2, 9), rng.randint(2, 9)
        # kx * ky equal to n takes the pairs, kx * ky = n + 1 packs (the
        # packed case's supports have gcd 1, so it does not split)
        for n, pairs in ((kx * ky, True), (kx * ky - 1, False)):
            xs = _sparse(rng, n, _positions(rng, n, kx, coprime=not pairs))
            ys = _sparse(rng, n, _positions(rng, n, ky, coprime=not pairs))
            pair_calls.clear()
            assert _mul_lists(Profile(xs), Profile(ys), n - 1) == _oracle(xs, ys, n - 1)
            assert pair_calls == ([(kx, ky, n)] if pairs else []), (kx, ky, n)
        # an operand shorter than n_out + 1, as in invert's Newton rounds
        n = rng.randint(2, 60)
        xs = _sparse(rng, n, rng.sample(range(n), rng.randint(1, n)))
        m = rng.randint(1, n - 1)
        ys = _sparse(rng, m, rng.sample(range(m), rng.randint(1, m)))
        assert _mul_lists(Profile(xs), Profile(ys), n - 1) == _oracle(xs, ys, n - 1)
        assert _mul_lists(Profile(ys), Profile(xs), n - 1) == _oracle(ys, xs, n - 1)
        # terms near the top, so many pairs have i + j past n_out
        n = rng.randint(8, 60)
        top = range(n // 2, n)
        xs = _sparse(rng, n, rng.sample(top, rng.randint(1, 3)))
        ys = _sparse(rng, n, [0] + rng.sample(top, rng.randint(1, 3)))
        assert _mul_lists(Profile(xs), Profile(ys), n - 1) == _oracle(xs, ys, n - 1)
        # an all-zero operand: no pairs, a zero product of full length
        pair_calls.clear()
        assert _mul_lists(Profile([0] * n), Profile(ys), n - 1) == [0] * n
        assert _mul_lists(Profile(xs), Profile([0] * (n // 2)), n - 1) == [0] * n
        assert len(pair_calls) == 2


def _spread(rng, g, length, bound):
    """`length` random coefficients up to `bound` in size, zero off the
    multiples of g: a series in q^g, spread by substitute_power."""
    cs = list(substitute_power(rand_series(rng, (length - 1) // g, bound), g).coeffs)
    return cs + [0] * (length - len(cs))


def test_split_matches_schoolbook(mul_calls):
    # Products with an operand in q^g, one or both, against the schoolbook
    # oracle, which shares no code with the split.
    rng = random.Random(1010)
    seen = set()
    for _ in range(4 * CASES):
        n_out = rng.randint(4, 150)
        g, h = rng.choice(((2, 1), (3, 1), (6, 1), (5, 5), (4, 6), (2, 3), (3, 7)))
        bound = rng.choice((9, 2**70))  # both signs, past 64 bits
        xs = _spread(rng, g, n_out + 1, bound)
        # the other operand is often shorter than n_out + 1, as in Newton
        ys = _spread(rng, h, rng.choice((n_out + 1, rng.randint(1, n_out))), bound)
        for a, b in ((xs, ys), (ys, xs)):
            mul_calls.clear()
            assert _mul_lists(Profile(a), Profile(b), n_out) == _oracle(a, b, n_out), (g, h, n_out)
        if mul_calls:  # the sub-products; the direct call is not recorded
            seen.add("one in q^g" if h == 1 else "coprime steps" if gcd(g, h) == 1
                     else "shared step")
            seen.add("ragged" if (n_out + 1) % max(g, h) else "even")
            seen.add("short" if len(ys) <= n_out else "full")
    assert len(seen) == 7, seen
    # All ones: each split product's coefficients reach 300, which needs the
    # nonzero count in the width bound, not mx * my = 1 alone.
    xs = [1, 0] * 300
    ys = [1] * 600
    mul_calls.clear()
    assert _mul_lists(Profile(xs), Profile(ys), 599) == _oracle(xs, ys, 599)
    assert mul_calls == [299, 299]


def _exact_ints(s: TruncatedSeries) -> bool:
    return type(s.coeffs) is tuple and all(type(c) is int for c in s.coeffs)


def test_results_are_exact_ints():
    # Kernel results skip the constructor's check; each must still hold a
    # tuple of plain ints.
    rng = random.Random(611)
    for _ in range(CASES // 4):
        a, b = rand_series(rng, rng.randint(5, 40)), rand_series(rng, rng.randint(5, 40), 2**80)
        u = rand_unit(rng, rng.randint(0, 40))
        k = rng.randint(1, 5)
        results = [a + b, a - b, -a, a * b, b * b, a.scale(rng.randint(-9, 9)), invert(u),
                   invert(substitute_power(u, k)), dissect(b, k, rng.randrange(k)),
                   shift(a, k), substitute_power(b, k), u**3, u**-2,
                   TruncatedSeries.monomial(k, 40, -3), TruncatedSeries.zero(k),
                   TruncatedSeries.one(k)]
        for r in results:
            assert _exact_ints(r), r
    # the builders, and columns through qexpr's slices, shifts and signs
    q, mq = SignedMonomial(1, 1), SignedMonomial(-1, 1)
    built = [theta_f(mq, SignedMonomial(-1, 4), 90), theta_f(q, SignedMonomial(1, 2), 90),
             phi(2, 90), psi(1, 90), bsum(2, 1, 90), pochhammer(PochhammerFactor(mq, 5), 90),
             evaluate_text("-q^3*f(-q,-q^4)^2/(q^5;q^5)_inf", 90)]
    parts = [("-q^2*(q;q)_inf^3*f(-q,-q^4)/(q^5;q^5)_inf", 5, 2),
             ("q^7*(q^5;q^5)_inf^2 - 2*phi(q)*psi(q^5)", 5, 2), ("-q^2", 5, 2)]
    columns = cross_multiplied([(parse(t), k, l) for t, k, l in parts], 90)
    for r in built + list(columns):
        assert _exact_ints(r), r


# Widths in bytes of the packed digit on each side of a boundary 2^b: a
# digit bound in [2^(b-1), 2^b) fits 8w = b + 1 bits; array items are 1, 2,
# 4 and 8 bytes, so 3 and 5-7 round up, and 9 bytes and more take the join.
WIDTH_BOUNDARIES = [7, 15, 23, 31, 63, 71]


def _digit_width(bits):
    """Bytes per packed digit of a bound of `bits` bits: 3 and 5-7 round up."""
    width = (bits + 8) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _least_packed(n, width):
    """The least k with k^2 > SHIFTED_ADDS * n * width: a sparser operand of k
    terms or more is not added at shifts."""
    return isqrt(int(SHIFTED_ADDS * n * width)) + 1


def test_packed_widths_match_schoolbook(pair_calls, mul_calls, array_codes, path_calls):
    # One packed product per case (gcd-1 supports, kx * ky > n) whose
    # widest output digit is exactly the width bound mx * my * min(kx, ky),
    # just below and just above each boundary, against the schoolbook oracle.
    rng = random.Random(8)
    for b in WIDTH_BOUNDARIES:
        top = _digit_width(b + 1)  # the wider digit of the two
        k = 1
        while k < _least_packed(2 * k + 1, top):
            k += 1
        for my in (1, 3):
            below = (2**b - 1) // (k * my)
            above = 2**b // (k * my) + 1
            for mx, wide in ((below, b), (above, b + 1)):
                assert (k * mx * my).bit_length() == wide
                width = _digit_width(wide)
                # Right: my at 0..k-1; left: mx at 0..kx-1; so output digit
                # k - 1 sums k products, and k^2 > SHIFTED_ADDS * n * width
                # keeps the product off shifted adds.  Both sparse, or with
                # kx = n the left operand dense and the right one sparse; in
                # the "both" case digit k - 1 reaches the bound and digit
                # 2k - 1 its negative.
                for kx, n in ((k, 2 * k - 1), (k + 1, 2 * k + 1), (2 * k + 1, 2 * k + 1)):
                    signs = [(1, 1), (-1, -1), (-1, 1), (1, -1), None]
                    for sign in signs + ["both"] * (kx == n):
                        if sign is None:
                            xs = [rng.choice((mx, -mx)) for _ in range(kx)]
                            ys = [rng.choice((my, -my)) for _ in range(k)]
                        elif sign == "both":
                            xs, ys = [mx] * k + [-mx] * (kx - k), [my] * k
                        else:
                            xs, ys = [sign[0] * mx] * kx, [sign[1] * my] * k
                        xs, ys = xs + [0] * (n - kx), ys + [0] * (n - k)
                        assert (Profile(xs).positions is None) == (kx == n)
                        assert Profile(ys).positions is not None
                        want = _oracle(xs, ys, n - 1)
                        # operands shorter than n too, as in Newton's rounds:
                        # each packs with an offset of its own length
                        pairs = [(xs, ys), (ys, xs), (xs, ys[:k]), (ys[:k], xs[:kx])]
                        for left, right in pairs:
                            pair_calls.clear()
                            mul_calls.clear()
                            array_codes.clear()
                            path_calls.clear()
                            got = _mul_lists(Profile(left), Profile(right), n - 1)
                            assert got == want, (b, mx, my, kx, sign)
                            assert pair_calls == [] and mul_calls == []
                            assert path_calls == [("_packed", n)]
                            # with aligned signs the digit reaches the
                            # bound; narrow digits pack and unpack through
                            # array, at one point or two, wide ones do not
                            assert sign is None or max(map(abs, got)) == k * mx * my
                            if sign == "both":
                                assert max(got) == k * mx * my == -min(got)
                            arrays = 3 if width * n < TWO_POINT_BYTES else 6
                            assert len(array_codes) == (arrays if wide <= 63 else 0), (b, wide)


def test_two_point_crossover(pair_calls, mul_calls, array_codes, parity_splits):
    # A narrow packed product of width * n bytes below TWO_POINT_BYTES packs
    # each operand once and unpacks once, 3 arrays; from it on, each
    # operand packs its even and odd digits and each half of the product
    # unpacks, 6 arrays.  Sparse operands of 1-byte digits and dense ones
    # of 2 and 4-byte digits, on each side of the crossover.
    rng = random.Random(2302)
    for width in (1, 2, 4):
        for n in (TWO_POINT_BYTES // width - 1, TWO_POINT_BYTES // width):
            # 120 terms, so 120^2 > SHIFTED_ADDS * n and the bound 120 * 1 * 1
            # < 2^7; or n * m * 1 in [2^7, 2^15) and [2^15, 2^31)
            k, m = (120, 1) if width == 1 else (n, 1 if width == 2 else 2**9)
            assert k >= _least_packed(n, width)
            xs = [rng.choice((m, -m)) for _ in range(k)] + [0] * (n - k)
            ys = [rng.choice((1, -1)) for _ in range(k)] + [0] * (n - k)
            two_point = width * n >= TWO_POINT_BYTES
            array_codes.clear()
            parity_splits.clear()
            assert _mul_lists(Profile(xs), Profile(ys), n - 1) == _oracle(ys, xs, n - 1)
            assert pair_calls == [] and mul_calls == []
            assert len(array_codes) == (6 if two_point else 3), (width, n)
            assert {array(code).itemsize for code in array_codes} == {width}
            assert parity_splits == ([k < n] * 2 if two_point else []), (width, n)


def _constant(length, positions, c):
    """c at `positions`, zero elsewhere."""
    cs = [0] * length
    for i in positions:
        cs[i] = c
    return cs


def test_two_point_products_match_schoolbook(pair_calls, mul_calls, parity_splits):
    # Products at two points against the schoolbook oracle, each past
    # TWO_POINT_BYTES at its digit width and no split (gcd-1 supports).
    # First the width bound: the left operand is mx at kx positions, the
    # right my at its first ky, so digit j sums min(kx, ky) products once j
    # passes both supports, and it reaches mx * my * min(kx, ky) exactly,
    # just below and just above each boundary of 1, 2, 4 and 8-byte digits
    # and of wider ones; odd and even n; dense x dense, sparse x dense,
    # sparse x sparse, and a sparse operand at odd positions alone, whose
    # even digits pack all zeros.  n is the least past TWO_POINT_BYTES at
    # which k terms, k^2 > SHIFTED_ADDS * n * width at either width, are
    # still sparse, and fit at odd positions.
    seen = set()
    for b in WIDTH_BOUNDARIES:
        width = _digit_width(b)  # of the digits below the boundary
        top = _digit_width(b + 1)
        start = -(-TWO_POINT_BYTES // width)
        while 2 * _least_packed(start + 1, top) > start:
            start += 1
        for n in (start, start + 1):
            k = _least_packed(n, top)
            shapes = {"dense x dense": (range(n), n), "sparse x dense": (range(k), n),
                      "sparse x sparse": (range(k), k), "odd x dense": (range(1, 2 * k, 2), n)}
            for shape, (support, ky) in shapes.items():
                bound_terms = min(len(support), ky)
                for my, signs in ((1, (1, 1)), (3, (-1, 1)), (5, (-1, -1))):
                    below = (2**b - 1) // (bound_terms * my)
                    above = 2**b // (bound_terms * my) + 1
                    for mx in (below, above) if below else ():
                        bound = mx * my * bound_terms
                        assert bound.bit_length() == (b if mx == below else b + 1)
                        xs = _constant(n, support, signs[0] * mx)
                        ys = _constant(n, range(ky), signs[1] * my)
                        want = _oracle(xs, ys, n - 1)
                        for left, right in ((xs, ys), (ys, xs)):
                            parity_splits.clear()
                            got = _mul_lists(Profile(left), Profile(right), n - 1)
                            assert got == want, (b, n, shape, mx, my)
                            assert max(map(abs, got)) == bound
                            assert len(parity_splits) == 2 and pair_calls == mul_calls == []
                        seen.add((shape, "odd n" if n % 2 else "even n",
                                  "wide" if bound.bit_length() > 63 else "narrow"))
    assert len(seen) == 16, sorted(seen)
    # Then random coefficients: narrow and wide digits, operands up to
    # three times longer than n with terms at n and past it, and products
    # added into a list at an offset with sign -1.  A wide product's n/2-term
    # operand is past SHIFTED_ADDS * n * width from n = 250 on (width 12).
    rng = random.Random(2303)
    for _ in range(CASES // 4):
        wide = rng.random() < 0.5
        n = rng.randint(250, 300) if wide else rng.randint(1100, 1200)
        size = n + rng.randint(0, 2 * n)
        kx = n if wide else rng.choice((n, n // 8))
        xs = _sparse(rng, size, [1, n - 1] + rng.sample(range(size), kx))
        ys = _sparse(rng, size, [0, n - 1, size - 1] + rng.sample(range(size), n // 2))
        bound = 2**40 if wide else 9
        xs = [max(-bound, min(bound, c)) for c in xs]
        ys = [max(-bound, min(bound, c)) for c in ys]
        want = _oracle(ys, xs, n - 1)
        parity_splits.clear()
        assert _mul_lists(Profile(xs), Profile(ys), n - 1) == want
        assert len(parity_splits) == 2
        offset = rng.randint(0, 5)
        out = [rng.randint(-9, 9) for _ in range(rng.randint(1, n + 5))]
        expected = [c - want[i - offset] if 0 <= i - offset < n else c
                    for i, c in enumerate(out)]
        assert _mul_lists(Profile(xs), Profile(ys), n - 1, out, offset, -1) == expected


# --- support profiles ------------------------------------------------------


def _fields(p: Profile) -> tuple:
    return p.count, p.step, p.positions, p.magnitude()


def test_profile_invariants(monkeypatch):
    import qdissect.series as series

    scans = []  # the length of every sequence a profile is found by scanning

    def recording(cs, support=None):
        if support is None:
            scans.append(len(cs))
        return Profile(cs, support)

    monkeypatch.setattr(series, "Profile", recording)
    # A dense series keeps no position list; a theta keeps its positions.
    dense = evaluate_text("(q;q)_inf^-1", 1000)
    assert _fields(dense.profile)[:3] == (1001, 1, None)
    theta = theta_f(SignedMonomial(-1, 1), SignedMonomial(-1, 4), 1000)
    support = [i for i, c in enumerate(theta.coeffs) if c]
    assert _fields(theta.profile) == (len(support), 1, support, 1)
    assert theta.profile is theta.profile  # found once, then kept
    assert theta.profile.cs is theta._coeffs  # a reference, not a copy
    rng = random.Random(1201)
    seen = set()
    for _ in range(CASES):
        n = rng.randint(1, 60)
        shape = rng.choice(("sparse", "dense", "zero", "spread"))
        if shape == "spread":
            cs = _spread(rng, rng.randint(2, 5), n, rng.choice((3, 2**70)))
        else:
            k = {"sparse": rng.randint(1, (n + 1) // 2), "dense": n, "zero": 0}[shape]
            cs = _sparse(rng, n, rng.sample(range(n), k))
        a, b = TruncatedSeries(cs), TruncatedSeries._of(tuple(cs))
        text, key = repr(b), hash(b)  # before either profile exists
        # the public constructor and _of give the same profile, and the
        # profile takes no part in ==, hash or repr
        assert _fields(a.profile) == _fields(b.profile) == _fields(Profile(cs))
        assert a == b and hash(a) == hash(b) == key and repr(a) == repr(b) == text
        k = sum(map(bool, cs))
        assert a.profile.count == k
        assert (a.profile.positions is not None) == (2 * k <= n + 1), cs
        # What a series brings to a product of m terms (_operand) has the
        # fields of a scan of its first m terms.  Before its own profile
        # is found: of exactly m terms, it finds and keeps its own; longer,
        # it scans its first m terms alone and stays unfound.
        m = rng.choice((n, rng.randint(1, n)))
        c = TruncatedSeries._of(tuple(cs))
        scans.clear()
        brought = c._operand(m)
        assert _fields(brought) == _fields(Profile(cs[:m])) and scans == [m]
        assert (brought is c._profile) if m == n else (c._profile is None)
        seen.add("own" if m == n else "unfound")
        # Once its own is found, a longer series brings the profile of its
        # first m terms from it: kept positions are cut by one bisect, with
        # no scan; a dense series' prefix is scanned once.
        if m < n:
            c.profile
            scans.clear()
            brought = c._operand(m)
            assert _fields(brought) == _fields(Profile(cs[:m])) and brought.cs == tuple(cs[:m])
            assert scans == ([] if c.profile.positions is not None else [m])
            seen.add("bisect" if c.profile.positions is not None else "dense cut")
    assert seen == {"own", "unfound", "bisect", "dense cut"}


def test_handed_over_profile_equals_scanned(monkeypatch):
    # Every profile built from a support that a producer hands over has
    # the fields of the profile found by scanning the same coefficients.
    # Each producer is recorded, so each is seen to hand one over.
    import qdissect.series as series
    from qdissect import identities, qexpr, theta

    producers = set()

    def checked(cs, support=None):
        p = Profile(cs, support)
        if support is not None:
            assert support == sorted(set(support)) and all(0 <= i < len(cs) for i in support)
            assert _fields(p) == _fields(Profile(cs)), (cs, support)
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_of":
                caller = caller.f_back
            producers.add(caller.f_code.co_name)
        return p

    monkeypatch.setattr(series, "Profile", checked)
    theta.theta_f.cache_clear()
    qexpr._eval.cache_clear()
    rng = random.Random(1401)
    for order in (0, 1, 2, 7, 30, 61):
        for k in (1, 2, 3, 5):
            # f(-1, q^k) cancels to zero; f(1, q^k) writes each exponent twice
            assert theta_f(SignedMonomial(-1, 0), SignedMonomial(1, k), order).profile.count == 0
            doubled = theta_f(SignedMonomial(1, 0), SignedMonomial(1, k), order)
            assert doubled == theta_f(SignedMonomial(1, k), SignedMonomial(1, 3 * k), order).scale(2)
            for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                theta_f(SignedMonomial(sa, k), SignedMonomial(sb, k + 1), order)
            phi(k, order), psi(k, order), bsum(k + 1, k, order)
        # coefficient 0 and an exponent past the order write nothing
        for e in (0, order, order + 1, rng.randint(0, order)):
            for c in (0, 1, -3):
                TruncatedSeries.monomial(e, order, c)
    # the shift of a product, past the order too, which _sum adds
    for text in ("q^3*f(q,q^2)", "-q^7*phi(q^2)", "q^40*psi(q)", "q^2*f(-1,q)"):
        for order in (0, 5, 39, 60):
            assert evaluate_text(text, order) == evaluate_direct(parse(text), order)
    # n = n_out + 1: operands of n - 1, n and n + 1 terms, nonzero or zero
    # at n - 1, n and n + 1, cut to n; and q^g splits whose other operand
    # has no terms in some residues
    for _ in range(CASES):
        n_out = rng.randint(2, 80)
        size = n_out + 3 + rng.randint(0, 8)
        edge = rng.sample(range(n_out, n_out + 3), rng.randint(0, 3))
        xs = _sparse(rng, size, edge + rng.sample(range(size), rng.randint(1, 6)))
        g = rng.randint(2, 5)
        ys = _spread(rng, g, size, rng.choice((9, 2**70)))
        used = rng.sample(range(g), rng.randint(1, g - 1))
        zs = _sparse(rng, n_out + 1, [i for i in rng.sample(range(n_out + 1), (n_out + 1) // 2)
                                       if i % g in used])
        pairs = [(xs, ys), (ys, zs), (zs, ys), (ys, ys)]
        pairs += [(xs[:length], ys) for length in (n_out, n_out + 1, n_out + 2)]
        for left, right in pairs:
            got = _mul_lists(Profile(left), Profile(right), n_out)
            assert got == _oracle(left, right, n_out), (left, right, n_out)
            a, b = TruncatedSeries(left), TruncatedSeries(right)
            a.profile, b.profile
            assert a * b == schoolbook_mul(a, b)
    # every registry text, and every claim, at order 300
    texts = sorted({value for r in identities.registry()
                    for kind in (r.kind, *r.alternates) for value in claim_fields(kind).values()
                    if isinstance(value, str)})
    assert len(texts) == 155
    for text in texts:
        evaluate_text(text, 300)
    assert all(r.status == "pass" for r in identities.verify_all(order=300))
    assert producers == {"theta_f", "_sum", "_operand", "_split", "product_residue"}, producers


# Digit bounds mx * my * min(kx, ky) of the sparse packings below sit just
# under and just over each of these powers of two: the edges of 1, 2, 4
# and 8-byte digits.
SPARSE_BOUNDARIES = [7, 15, 31, 63]


def test_profiled_kernel_matches_schoolbook(pair_calls, mul_calls, path_calls):
    rng = random.Random(1202)
    # One series multiplied several times: its profile is found once and
    # read by every product, including products with longer operands,
    # with series in q^g, and with itself.
    for _ in range(CASES // 2):
        n = rng.randint(12, 120)
        a = TruncatedSeries(_sparse(rng, n, rng.sample(range(n), rng.randint(1, n // 3))))
        profile = a.profile
        others = [TruncatedSeries(_sparse(rng, n, rng.sample(range(n), rng.randint(1, n)))),
                  TruncatedSeries(_spread(rng, rng.randint(2, 4), n, 2**70)),
                  TruncatedSeries(_sparse(rng, rng.randint(1, n), [0])),
                  TruncatedSeries(_sparse(rng, n + 2 + rng.randint(0, 9), [n - 1, n, n + 1])),
                  TruncatedSeries(rand_series(rng, rng.randint(n, 2 * n)).coeffs),
                  a]
        for b in others:
            b.profile  # a longer operand's profile exists, and is cut with it
            assert a * b == schoolbook_mul(a, b) and b * a == schoolbook_mul(b, a)
        assert a.profile is profile
    # Profiles handed to _mul_lists with operands longer than n_out + 1,
    # nonzero up to and past the cut, and splits whose xs[::g] is longer
    # than some of its residue products.
    for _ in range(CASES):
        n_out = rng.randint(2, 80)
        g = rng.randint(2, 5)
        size = n_out + 1 + rng.randint(1, 9)
        xs = _sparse(rng, size, [0, n_out, n_out + 1] + rng.sample(range(size), rng.randint(1, 6)))
        ys = _spread(rng, g, size, rng.choice((9, 2**70)))
        ys[size - 1 - (size - 1) % g] = rng.choice((1, -1))
        for left, right in ((xs, ys), (ys, xs), (ys, ys[:n_out + 1]), (xs, xs)):
            got = _mul_lists(Profile(left), Profile(right), n_out)
            assert got == _oracle(left, right, n_out), (left, right, n_out)
    # Sparse narrow products: supports 0..k-1, gcd 1, kx * ky > n and
    # k^2 <= SHIFTED_ADDS * n, so one product by shifted adds, the denser
    # operand packed; the widest digit, at q^(min(kx, ky) - 1), reaches
    # the width bound.  Both profiles keep their positions, or (ky = 14 of
    # n = 20) one operand is dense; an xs cut to 2 * kx terms is
    # shorter than n and still sparse.
    for b in SPARSE_BOUNDARIES:
        for kx, ky, n in ((7, 7, 40), (6, 9, 50), (7, 14, 20)):
            k = min(kx, ky)
            for my in (1, 5):
                below = (2**b - 1) // (k * my)
                above = 2**b // (k * my) + 1
                for mx in (below, above):
                    assert (mx * my * k < 2**b) == (mx == below)
                    for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                        xs = [sx * mx] * kx + [0] * (n - kx)
                        ys = [sy * my] * ky + [0] * (n - ky)
                        pairs = [(xs, ys), (ys, xs), (xs[:2 * kx], ys), (ys, xs[:2 * kx])]
                        for left, right in pairs:
                            pl, pr = Profile(left), Profile(right)
                            dense = [p for p in (pl, pr) if p.positions is None]
                            assert len(dense) == (ky == 14)
                            pair_calls.clear()
                            mul_calls.clear()
                            path_calls.clear()
                            got = _mul_lists(pl, pr, n - 1)
                            assert got == _oracle(left, right, n - 1), (b, mx, my, kx)
                            assert pair_calls == [] and mul_calls == []
                            assert path_calls == [("_shifted_adds", n)]
                            assert max(map(abs, got)) == mx * my * k
    # Term-pair products: an outer support (the shorter) with coefficients
    # +-1 and others, against inner terms at n - 1 and, in an operand one
    # longer than n, at n; pairs summing to n - 1 are kept, to n dropped.
    for _ in range(CASES):
        n = rng.randint(8, 80)
        kx = rng.randint(1, 3)
        outer = [0] * n
        for i in [0] + rng.sample(range(1, n), kx - 1):
            outer[i] = rng.choice((1, -1, 1, -1, rng.randint(-9, 9) or 2, -(2**70)))
        inner = _sparse(rng, n + 1, [n - 1, n] + rng.sample(range(n), rng.randint(0, n // kx - 2)))
        for left, right in ((outer, inner), (inner, outer)):
            pair_calls.clear()
            assert _mul_lists(Profile(left), Profile(right), n - 1) == _oracle(left, right, n - 1)
            assert len(pair_calls) == 1
            a, b = TruncatedSeries(left), TruncatedSeries(right)
            assert a * b == schoolbook_mul(a, b)


def _terms(rng, length, positions, top):
    """Zeros except at `positions`: top at the first, then +-1 and +-2."""
    cs = [0] * length
    for i in positions:
        cs[i] = rng.choice((1, -1, 2, -2))
    cs[positions[0]] = top
    return cs


def test_shifted_adds_match_schoolbook(pair_calls, path_calls):
    # Shifted adds against the schoolbook oracle on both sides of each
    # boundary the rule draws around them: kx * ky = n (term pairs below),
    # kx^2 = SHIFTED_ADDS * n * W (packing past it) and, with the denser
    # operand in q^2, kx * W = SPLIT_ADD_BYTES (the split past it).  The
    # sparser operand's coefficients are +-1, +-2 and one of 1 to 71 bits,
    # so digits of 1, 2, 8 and 10 bytes; it holds terms at n and past it, in
    # an operand longer than n.  Each product is also added into a list at
    # an offset and a sign.
    rng = random.Random(2501)
    seen = set()

    def check(xs, ys, n, path):
        want = _oracle(xs, ys, n - 1)
        for left, right in ((xs, ys), (ys, xs)):
            pair_calls.clear()
            path_calls.clear()
            assert _mul_lists(Profile(left), Profile(right), n - 1) == want, path
            assert (path_calls[0] if path_calls else ("_mul_terms", n)) == (path, n)
            offset, sign = rng.randint(0, 3), rng.choice((1, -1, 2))
            out = [rng.randint(-9, 9) for _ in range(rng.randint(1, n + 4))]
            expected = [c + sign * want[i - offset] if 0 <= i - offset < n else c
                        for i, c in enumerate(out)]
            got = _mul_lists(Profile(left), Profile(right), n - 1, out, offset, sign)
            assert got == expected, path
        seen.add(path)

    # kx * ky = n takes term pairs; one more than n, shifted adds
    for kx, ky in ((2, 30), (3, 20), (5, 12)):
        for n, path in ((kx * ky, "_mul_terms"), (kx * ky - 1, "_shifted_adds")):
            xs = _terms(rng, n + 3, [1] + rng.sample(range(2, n), kx - 2) + [n + 1], 1)
            ys = _terms(rng, n, [0, 1] + rng.sample(range(2, n), ky - 2), 1)
            check(xs, ys, n, path)
    # kx^2 <= SHIFTED_ADDS * n * W adds at shifts, one term more packs: a
    # denser operand of 100 terms below n = 200, kept or in a dense prefix
    n = 200
    for mx, my, width in ((2, 1, 1), (2, 50, 2), (2**70, 1, 10)):
        kx = isqrt(int(SHIFTED_ADDS * n * width))
        for extra in (0, 1):
            assert _digit_width((mx * my * (kx + extra)).bit_length()) == width
            positions = [1] + rng.sample(range(2, n), kx + extra - 2) + [n + 2]
            xs = _terms(rng, n + 5, positions, mx)
            ys = _terms(rng, n, [0, 1] + rng.sample(range(2, n), 98), my)
            check(xs, ys, n, "_packed" if extra else "_shifted_adds")
    # With the denser operand in q^2, kx * W <= SPLIT_ADD_BYTES adds at
    # shifts, one term more splits: 8 and 10-byte digits
    for mx, width in ((2**50 * 32, 8), (2**70, 10)):
        kx = SPLIT_ADD_BYTES // width
        for extra in (0, 1):
            assert _digit_width((mx * (kx + extra)).bit_length()) == width
            assert (kx + extra) ** 2 <= SHIFTED_ADDS * n * width
            xs = _terms(rng, n + 5, [1] + rng.sample(range(2, n), kx + extra - 2) + [n + 1], mx)
            ys = _terms(rng, n, list(range(0, n, 2)), 1)
            check(xs, ys, n, "_split" if extra else "_shifted_adds")
    assert seen == {"_mul_terms", "_shifted_adds", "_packed", "_split"}
    # Called directly, at the 10-byte width of the one below: an all-zero
    # sparser operand (which _mul_lists sends to term pairs), or one whose
    # terms all sit at n and past it, adds nothing: n zero digits.
    ys = _terms(rng, n, rng.sample(range(n), 150), 2**70)
    for xs in ([0] * n, _terms(rng, n + 9, [n, n + 4, n + 8], 1)):
        assert _shifted_adds(Profile(xs), Profile(ys), n, 10) == [0] * n == _oracle(xs, ys, n - 1)
    assert _width(Profile(xs), Profile(ys)) == 10
    assert _mul_lists(Profile(xs), Profile(ys), n - 1) == [0] * n


# (left, right, order, kx, ky, pairs, path, calls): `pairs` is whether the
# product takes the term-pair path, `path` the path of the product itself,
# `calls` the n_out of every _mul_lists call it makes, its sub-products
# included.
M1 = "(f(q^18,q^22)^2 - q^8*f(q^2,q^38)^2)"  # the registry's L3.MN, in q^2
DISPATCH = [
    ("phi(q^5)", "psi(q^10)", 6000, 35, 35, True, "_mul_terms", [6000]),
    # both supports have gcd 1 and 98^2 <= SHIFTED_ADDS * 6001 * 1 byte:
    # the 127-term operand added at 98 shifts
    ("f(q,q^2)", "f(q^2,q^3)", 6000, 127, 98, False, "_shifted_adds", [6000]),
    # the denser operand in q^2, and 78 * 2 bytes <= SPLIT_ADD_BYTES
    ("phi(q)", M1, 6000, 78, 791, False, "_shifted_adds", [6000]),
    # right is in q^2: two packed products of 501 digits, residue 0's,
    # the last digit of residue 1 past the order and dropped
    ("(q;q)_inf^-1", "(q^2;q^2)_inf^-1", 1000, 1001, 501, False, "_split", [1000, 500, 500]),
    # left, the sparser, is in q^8: its split would not cut the adds, and
    # 126^2 <= SHIFTED_ADDS * 1001 * 16 bytes
    ("(q^8;q^8)_inf^7", "(q;q)_inf^-1", 1000, 126, 1001, False, "_shifted_adds", [1000]),
    # left, the denser, is in q^8 and 51 * 12 bytes passes SPLIT_ADD_BYTES:
    # eight products of 126 digits
    ("(q^8;q^8)_inf^-7", "f(q,q^2)", 1000, 126, 51, False, "_split", [1000] + [125] * 8),
    # right is in q^3, the larger step: residues 0 and 2 of left are
    # again in q^2 and split once more, residue 1 packs
    ("(q^2;q^2)_inf^-1", "(q^3;q^3)_inf^-1", 1000, 501, 334, False, "_split",
     [1000, 333, 166, 166, 333, 333, 166, 166]),
]


@pytest.mark.parametrize("left, right, order, kx, ky, pairs, path, calls", DISPATCH,
                         ids=["-".join(map(str, row[:6])) for row in DISPATCH])
def test_mul_path_dispatch(pair_calls, mul_calls, path_calls, left, right, order, kx, ky,
                           pairs, path, calls):
    # The term-pair path runs exactly when kx * ky <= n = order + 1; past
    # it the rule picks shifted adds, the q^g split into g sub-products by
    # residue, each dispatched by the same rule, or packing.
    a, b = evaluate_text(left, order), evaluate_text(right, order)
    assert (sum(map(bool, a.coeffs)), sum(map(bool, b.coeffs))) == (kx, ky)
    pair_calls.clear()
    mul_calls.clear()
    path_calls.clear()
    product = a * b
    assert mul_calls == calls
    assert pair_calls == ([(kx, ky, order + 1)] if pairs else [])
    assert (path_calls[0] if path_calls else ("_mul_terms", order + 1)) == (path, order + 1)
    assert product == schoolbook_mul(b, a)


def test_longer_operands_give_the_exact_product(pair_calls, mul_calls, path_calls):
    # "At most n_out + 1 terms" is a cost contract, not a cut: operands up
    # to three times longer, nonzero at n_out, n_out + 1 and past them,
    # give the exact product on every path, returned or added into a list.
    rng = random.Random(2202)
    seen = set()
    for _ in range(CASES):
        n_out = rng.randint(9, 60)
        n = n_out + 1
        size = n + rng.randint(6, 2 * n)
        path = rng.choice(("pairs", "x in q^g", "y in q^g", "shifted", "narrow", "wide"))
        if path == "pairs":  # 3 * 3 <= n nonzero terms, the last ones past n
            xs = _sparse(rng, size, [0, n_out, n])
            ys = _sparse(rng, size, [n_out, n, size - 1])
        elif path == "wide":  # dense, 3n terms: (3n)^2 > SHIFTED_ADDS * n * 12 bytes
            xs = [rng.choice((-1, 1)) * rng.randint(1, 2**40) for _ in range(3 * n)]
            ys = [rng.choice((-1, 1)) * rng.randint(1, 2**40) for _ in range(3 * n)]
        else:
            bound = rng.choice((9, 2**70)) if path == "shifted" else 9
            xs = [0, 1, n_out, n] + rng.sample(range(size), 2 if path == "shifted" else n // 2)
            xs = _sparse(rng, size, xs)
            ys = _sparse(rng, size, [0, 1, n_out, n] + rng.sample(range(size), n // 2))
            xs = [max(-bound, min(bound, c)) for c in xs]
            ys = [max(-bound, min(bound, c)) for c in ys]
            if path.endswith("q^g"):
                g = rng.randint(2, 5)
                spread = _spread(rng, g, size, rng.choice((9, 2**70)))
                spread[0] = spread[g * (n // g + 1)] = 1  # past n too
                xs, ys = (spread, ys) if path == "x in q^g" else (xs, spread)
        px, py = Profile(xs), Profile(ys)
        pair_calls.clear()
        mul_calls.clear()
        path_calls.clear()
        product = _oracle(xs, ys, n_out)
        assert _mul_lists(px, py, n_out) == product, (path, xs, ys)
        bits = (px.magnitude() * py.magnitude() * min(px.count, py.count)).bit_length()
        if pair_calls and not path_calls:
            seen.add("pairs")
        elif path_calls[0][0] == "_split":
            seen.add("x in q^g" if px.step > 1 else "y in q^g")
        else:
            seen.add((path_calls[0][0], "narrow" if bits < 64 else "wide"))
        offset, sign = rng.randint(0, 5), rng.choice((1, -1, 3))
        out = [rng.randint(-9, 9) for _ in range(rng.randint(1, n + 5))]
        want = [c + sign * product[i - offset] if 0 <= i - offset < n else c
                for i, c in enumerate(out)]
        assert _mul_lists(px, py, n_out, out, offset, sign) == want, path
    assert seen == {"pairs", "x in q^g", "y in q^g", ("_shifted_adds", "narrow"),
                    ("_shifted_adds", "wide"), ("_packed", "narrow"), ("_packed", "wide")}, seen


def test_mismatched_orders_cut_each_operand_once(monkeypatch):
    # A product of an order-10000 series and an order-10 one: the long
    # operand is cut to 11 terms where it enters the product, whether its
    # profile is found or not and whatever its shape, and every _mul_lists
    # call below that gets operands of at most n_out + 1 terms.
    import qdissect.series as series

    too_long = []

    def checking(px, py, n_out, *rest):
        if max(len(px.cs), len(py.cs)) > n_out + 1:
            too_long.append((len(px.cs), len(py.cs), n_out))
        return _mul_lists(px, py, n_out, *rest)

    monkeypatch.setattr(series, "_mul_lists", checking)
    rng = random.Random(2203)
    longs = [lambda: theta_f(SignedMonomial(-1, 1), SignedMonomial(-1, 2), 10000),
             lambda: substitute_power(rand_series(rng, 2000, 2**70), 5),
             lambda: rand_series(rng, 10000)]
    shorts = [rand_series(rng, 10), substitute_power(rand_series(rng, 5), 2),
              TruncatedSeries([1, 0, 0, -1] + [0] * 7)]
    for make in longs:
        for short in shorts:
            for found in (False, True):
                big = make()
                if found:
                    big.profile
                want = schoolbook_mul(big, short)
                assert big * short == want and short * big == want
                out = [0] * 11
                add_product_into(out, [short, big, short], 0, -1)
                assert out == [-c for c in (want * short).coeffs]
    assert too_long == []


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

    def counting(px, py, n_out, *rest):
        calls.append(n_out)
        return _mul_lists(px, py, n_out, *rest)

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
    # also past MAX_COEFF_BITS: (1+q)^70000 to order 5
    assert power_bits(TruncatedSeries([1, 1, 0, 0, 0, 0]), 70000) == 5 * (1 + 3 + 17) + 3
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
    with pytest.raises(LimitExceeded, match="17 powering steps of up to 8109-bit"):
        TruncatedSeries([1, 1] + [0] * 299) ** 70000  # 8109 bits fit, 17 * 8109 do not
    wide = TruncatedSeries([1, 2**6600] + [0] * 9)  # 9 * 6605 bits fit, 10 * 6605 do not
    with pytest.raises(LimitExceeded):
        wide**10
    monkeypatch.undo()
    assert (wide**9)[9] == 2 ** (6600 * 9)


# --- inversion ---------------------------------------------------------------


def test_invert_random():
    # a * invert(a) == 1, checked by the schoolbook oracle.  Newton doubles
    # its precision each round, so orders at and next to powers of two
    # end on a full or a one-term round.
    rng = random.Random(1234)
    one = TruncatedSeries.one
    for _ in range(CASES):
        a = rand_unit(rng, rng.randint(0, 80))
        assert schoolbook_mul(a, invert(a)) == one(a.order)
    widest = 0
    for order in (0, 1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025):
        for c0 in (1, -1):
            if order < 100:
                cs = [rng.randint(-50, 50) for _ in range(order + 1)]
            else:
                # sparse, so the oracle's loop over a's nonzero terms is short
                cs = [0] * (order + 1)
                for i in rng.sample(range(2, order + 1), 8):
                    cs[i] = rng.choice((-1, 1))
            cs[0] = c0
            if order:
                cs[1] = 1  # gcd 1, so Newton runs at the full order
            a = TruncatedSeries(cs)
            inv = invert(a)
            assert schoolbook_mul(a, inv) == one(order), (order, c0)
            widest = max(widest, max(map(abs, inv.coeffs)).bit_length())
    assert widest > 64


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


def test_inversion_ladder_has_no_cliff_at_powers_of_two(mul_calls):
    # The precision halves from the top, so N + 1 = 2^k and 2^k + 1 terms
    # take as many Newton levels above the long-division base, and as many
    # multiplies; a doubling ladder took one more round, at full width, for
    # the one extra term.
    rng = random.Random(1023)
    for k in (5, 6, 8, 10):
        counts = []
        for order in (2**k - 1, 2**k):
            cs = [0] * (order + 1)
            cs[0], cs[1] = 1, 3
            for i in rng.sample(range(2, order + 1), 8):
                cs[i] = rng.choice((-1, 1))
            mul_calls.clear()
            inv = invert(TruncatedSeries(cs))
            counts.append(len(mul_calls))
            assert schoolbook_mul(TruncatedSeries(cs), inv) == TruncatedSeries.one(order)
        assert counts[0] == counts[1] > 0, (k, counts)


# --- division ----------------------------------------------------------------


def _divisor(rng, n, dense, bits, g=1):
    """A unit series of n terms in q^g: +-1, then every g-th digit (dense)
    or 6 of them (sparse) of up to `bits` bits."""
    cs = [0] * n
    spots = range(g, n, g)
    for i in spots if dense else rng.sample(spots, min(6, len(spots))):
        cs[i] = rng.randint(-(2**bits), 2**bits)
    cs[0] = rng.choice((1, -1))
    return TruncatedSeries(cs)


def test_divide_matches_schoolbook():
    # divide(a, d) * d == a by the schoolbook oracle, and divide(a, d) ==
    # a * invert(d): d sparse and dense, digits narrow and past 8 bytes, d
    # in q^g, on both sides of the long-division base and at lengths next
    # to powers of two, where the Newton ladder ends on a short level.
    rng = random.Random(2424)
    cases = 0
    for n in (1, 2, 3, 15, 16, 17, 24, 25, 63, 64, 65, 127, 128, 129, 1001):
        for dense, bits, g in ((True, 3, 1), (False, 3, 1), (True, 80, 1), (False, 80, 1),
                               (True, 5, 3), (False, 90, 7)):
            if n == 1001 and (dense or bits > 8):
                continue  # keeps the oracle's O(n^2) loop short
            d = _divisor(rng, n, dense, bits, g)
            a = TruncatedSeries([rng.randint(-(2**bits), 2**bits) for _ in range(n)])
            got = divide(a, d)
            assert got.order == n - 1
            assert schoolbook_mul(got, d) == a, (n, dense, bits, g)
            assert got == a * invert(d), (n, dense, bits, g)
            cases += 1
    assert cases > 80


def test_divide_truncates_and_refuses_like_invert():
    # The smaller order, as every binary operation; a zero numerator; a
    # non-unit divisor refused with invert's message.
    a = TruncatedSeries([3, 1, 4, 1, 5])
    d = TruncatedSeries([-1, 2, 7])
    assert divide(a, d) == divide(TruncatedSeries([3, 1, 4]), d)
    assert schoolbook_mul(divide(a, d), d) == TruncatedSeries([3, 1, 4])
    assert divide(TruncatedSeries.zero(40), _divisor(random.Random(1), 41, True, 9)).is_zero()
    for bad in ([0, 1, 2], [2, 0], [-3]):
        with pytest.raises(NonUnitConstantTerm) as divided:
            divide(TruncatedSeries([1] * len(bad)), TruncatedSeries(bad))
        with pytest.raises(NonUnitConstantTerm) as inverted:
            invert(TruncatedSeries(bad))
        assert str(divided.value) == str(inverted.value)


def test_divide_checks_the_half_inverse_and_the_quotient():
    # 1/d, d = 1 - 2^2000 q, has a 2000i-bit digit at q^i, so MAX_COEFF_BITS
    # is passed from i = 33 on.  At 80 terms the half inverse y, 40 terms,
    # passes it, and divide refuses at y's order; at 50 terms y does not,
    # and 1/d refuses at the quotient's order.  d/d is 1: the full inverse,
    # which invert(d) ** 1 refuses, is never built, so it is not checked.
    d = TruncatedSeries([1, -(2**2000)] + [0] * 78)
    with pytest.raises(LimitExceeded, match="a power 1 of a series at order 39 "):
        divide(TruncatedSeries.one(79), d)
    short = TruncatedSeries(d.coeffs[:50])
    with pytest.raises(LimitExceeded, match="a power 1 of a series at order 49 "):
        divide(TruncatedSeries.one(49), short)
    assert divide(short, short) == TruncatedSeries.one(49)
    with pytest.raises(LimitExceeded, match="a power 1 of a series at order 49 "):
        invert(short) ** 1


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


def _pairs_at(rng, kx, ky, n, last):
    """x and y of n terms with kx and ky nonzero terms of +-1, +-2 or up to
    100 bits; with `last`, both hold a term at n - 1, the order."""
    def operand(k):
        if not k:
            return [0] * n
        positions = rng.sample(range(n - 1), k - 1) + [n - 1] if last else rng.sample(range(n), k)
        cs = _terms(rng, n, sorted(positions), 1)
        for i in rng.sample(positions, rng.randint(0, k)):
            cs[i] = rng.choice((-1, 1)) * rng.randint(1, rng.choice((2, 2**70, 2**100)))
        return cs
    return TruncatedSeries(operand(kx)), TruncatedSeries(operand(ky))


def test_product_residue_matches_dissect(monkeypatch):
    # The residue kernel against dissect(x * y, k, l) and against
    # schoolbook_mul then dissect, for k = 1, 2, 5, 7, 11 and every residue
    # l, whole and cut short: at kx * ky = n the product takes term pairs
    # and the kernel gives its residue; at n + 1 it does not, and None
    # sends the caller to the whole product.  Operands hold terms at the
    # order, coefficients +-1, +-2 and past 64 bits, or no terms at all.
    # Each result's handed-over profile equals a scan's.
    import qdissect.series as series
    from qdissect.series import product_residue

    handed = []

    def recording(cs, support=None):
        if support is not None:
            handed.append((cs, support))
        return Profile(cs, support)

    monkeypatch.setattr(series, "Profile", recording)
    rng = random.Random(2601)
    seen = set()
    for k in (1, 2, 5, 7, 11):
        for _ in range(12):
            kx, ky = rng.randint(1, 9), rng.randint(1, 9)
            for n in (kx * ky, kx * ky - 1):
                if n < max(kx, ky):
                    continue
                x, y = _pairs_at(rng, kx, ky, n, rng.random() < 0.5)
                if rng.random() < 0.1:
                    x = TruncatedSeries.zero(n - 1)  # an empty support: 0 pairs
                takes = x.profile.count * y.profile.count <= n
                for l in range(min(k, n)):
                    whole = dissect(x * y, k, l)
                    assert whole == dissect(schoolbook_mul(x, y), k, l)
                    for size in {whole.order + 1, rng.randint(1, whole.order + 1)}:
                        handed.clear()
                        got = product_residue(x, y, k, l, size)
                        if not takes:
                            assert got is None
                            seen.add("whole")
                            continue
                        assert got.coeffs == whole.coeffs[:size], (k, l, size)
                        assert [cs for cs, _ in handed] == [got._coeffs]
                        assert _fields(got.profile) == _fields(Profile(got.coeffs))
                        seen.add(("pairs", x.is_zero(), size == whole.order + 1))
    assert seen == {"whole", ("pairs", False, True), ("pairs", False, False),
                    ("pairs", True, True), ("pairs", True, False)}


def test_columns_read_a_residue_of_the_product(monkeypatch):
    # A column's A part of two thetas whose product takes term pairs is
    # read in its residue alone: with no shift, with a shift past l, whose
    # first n0 > 0 entries are 0, and with an empty support (f(-1, q) is 0).
    # A shift past the column, and a product that does not take pairs, are
    # read whole.  Every column equals the dissected expression.
    from qdissect import qexpr

    real, seen = qexpr.product_residue, set()

    def recording(x, y, k, l, size):
        got = real(x, y, k, l, size)
        seen.add("whole" if got is None else "n0 > 0" if size < (60 - l) // k + 1 else "n0 = 0")
        return got

    monkeypatch.setattr(qexpr, "product_residue", recording)
    for text in ("f(q,q^4)*bsum(40,22)", "q^7*f(q,q^4)*bsum(40,38)", "q^23*f(-q,q^2)*bsum(30,7)",
                 "q^2*f(q,q^4)*f(-1,q)", "q^90*f(q,q^4)*bsum(40,22)", "f(q,q^4)*f(q^2,q^3)"):
        for k in (2, 5, 7):
            for l in range(k):
                (column,) = cross_multiplied([(parse(text), k, l)], 60, exact=True)
                assert column == dissect(evaluate_text(text, 60), k, l), (text, k, l)
    assert seen == {"whole", "n0 > 0", "n0 = 0"}


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
