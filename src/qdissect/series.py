"""Truncated formal power series in q with exact integer coefficients.

A series is a dense coefficient vector c[0..N] representing
c[0] + c[1] q + ... + c[N] q^N; N is the order (highest retained
exponent).  All arithmetic is exact.  Binary operations truncate the
result to the smaller of the two input orders, so a coefficient is
never reported unless it is fully determined.  Multiplication takes
one of two exact paths, chosen by the operands' nonzero counts kx and
ky against the output length n: when kx * ky <= n it sums the products
of nonzero term pairs, otherwise it is one signed Kronecker
substitution, both operands packed into big integers and multiplied
once.

A power refuses, before any multiply, to build coefficients past
MAX_COEFF_BITS bits (LimitExceeded); inversion of a series supported on
multiples of g runs at order N // g.
"""

from __future__ import annotations

import operator
import sys
from itertools import compress, count, repeat
from math import gcd
from typing import Iterable, Sequence


class NonUnitConstantTerm(ValueError):
    """Raised when inverting a series whose constant term is not +1 or -1."""


class LimitExceeded(ValueError):
    """A power whose coefficients could pass MAX_COEFF_BITS bits."""


# Widest coefficient, in bits, a power may build: power_bits must not pass
# it.  The widest coefficient the registry builds is 167 bits at order 1000
# and 242 at order 2000, the benchmark's 167, so the cap sits more than 250
# times above them.  It keeps a power like (1+q)^(10^300), whose coefficients
# near order 300 have 300k bits, from running for minutes.
MAX_COEFF_BITS = 1 << 16


def _mul_terms(xs: Sequence[int], ys: Sequence[int], ix: Sequence[int],
               iy: Sequence[int], n: int) -> list[int]:
    """out[i + j] += xs[i] * ys[j] over the nonzero positions i in ix and j
    in iy (both ascending) with i + j < n."""
    out = [0] * n
    xt = [(i, xs[i]) for i in ix]
    for j in iy:
        b = ys[j]
        for i, a in xt:
            if i + j >= n:
                break
            out[i + j] += a * b
    return out


def _mul_lists(xs: Sequence[int], ys: Sequence[int], n_out: int) -> list[int]:
    """Exact truncated convolution of two integer sequences.

    With kx and ky nonzero terms and n = n_out + 1 output digits, the
    product takes one of two paths:

    - kx * ky <= n: the products of nonzero term pairs are summed
      directly (`_mul_terms`).  That loop takes no more Python steps than
      there are output digits, while the packing below takes several per
      digit, so the rule needs no tuning constant.  An all-zero operand
      has kx * ky = 0 and lands here.
    - otherwise, signed Kronecker substitution: each operand is packed
      into one big integer with `width` bytes per coefficient, the two
      are multiplied once, and the product's first n digits are read
      back as balanced digits in (-half, half).  The width bounds every
      product coefficient by half, so no digit overflows into its
      neighbour.

    Both equal schoolbook convolution coefficient by coefficient (that
    equality is a tested property).
    """
    n = n_out + 1
    xs = xs[:n]
    ys = ys[:n]
    ix = list(compress(range(len(xs)), xs))
    iy = list(compress(range(len(ys)), ys))
    if len(ix) * len(iy) <= n:
        return _mul_terms(xs, ys, ix, iy, n)
    mx = max(max(xs), -min(xs))
    my = max(max(ys), -min(ys))
    bound = mx * my * min(len(xs), len(ys))
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    offset = half.to_bytes(width, "little")

    def pack(cs: Sequence[int]) -> int:
        # Digits c + half are nonnegative; subtracting half per digit
        # leaves sum(c_i * 2^(8*width*i)).
        digits = map(operator.add, cs, repeat(half))
        raw = b"".join(map(int.to_bytes, digits, repeat(width), repeat("little")))
        return int.from_bytes(raw, "little") - int.from_bytes(offset * len(cs), "little")

    # Adding half per digit and keeping n digits turns the low digits of
    # the product, each in (-half, half), into plain bytes.  The digits
    # are kept with a mask: CPython's % by a power of two is a general
    # long division, quadratic in the operand size.
    size = width * n
    low = pack(xs) * pack(ys) + int.from_bytes(offset * n, "little")
    raw = (low & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    chunks = map(raw.__getitem__, map(slice, range(0, size, width), range(width, size + 1, width)))
    return list(map(operator.sub, map(int.from_bytes, chunks, repeat("little")), repeat(half)))


class TruncatedSeries:
    """Immutable dense series truncated at a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(map(operator.index, coeffs))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self._coeffs = cs

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient q^{n} outside truncation order {self.order}")
        return self._coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(map(coeff_text, self._coeffs[:8]))
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "TruncatedSeries":
        """c * q^e truncated at `order`; zero series if e exceeds the order."""
        cs = [0] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = coeff
        return cls(cs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[i] + b[i] for i in range(n + 1)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[i] - b[i] for i in range(n + 1)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(_mul_lists(self._coeffs, other._coeffs, n))

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries([c * x for x in self._coeffs])

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        """self^k by left-to-right binary powering: bit_length(k) - 1
        squarings and popcount(k) - 1 products by self, with no unit seed.
        A negative k powers the inverse.  Raises LimitExceeded, before the
        first multiply, when power_bits(self, k) passes MAX_COEFF_BITS."""
        if exponent < 0:
            return invert(self) ** -exponent
        if exponent == 0:
            return TruncatedSeries.one(self.order)
        bits = power_bits(self, exponent)
        if bits > MAX_COEFF_BITS:
            raise LimitExceeded(
                f"a power {coeff_text(exponent)} of a series at order {self.order} "
                f"could need {coeff_text(bits)}-bit coefficients; the limit is "
                f"{MAX_COEFF_BITS} bits"
            )
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def is_zero(self) -> bool:
        return not any(self._coeffs)


def power_bits(a: TruncatedSeries, k: int) -> int:
    """Bound on the coefficient width, in bits, of a**k for k >= 1, read
    from a alone: k * (B + log2(n + 1)), with B the bit length of a's widest
    coefficient and n its order, since no coefficient of a**k exceeds the
    k-th power of the sum of |a_i|.  It is 0 when the power cannot grow:
    when a**k vanishes to order n (k times a's lowest exponent passes n),
    or when a is +-q^v.

    For n < k <= MAX_COEFF_BITS, with constant term c != 0, the truncation
    bounds it too: a**k takes at most n factors of a - c, so no coefficient
    exceeds |c|^k (n + 1) (k * sum of |a_i|)^n.  Past MAX_COEFF_BITS the
    first bound alone keeps binary powering to a few squarings."""
    cs = a.coeffs
    n = a.order
    low = first_index(cs)
    if low is None or low * k > n or (cs.count(0) == n and abs(cs[low]) == 1):
        return 0
    width = max(max(cs), -min(cs)).bit_length() + (n + 1).bit_length()
    if low == 0 and n < k <= MAX_COEFF_BITS:
        truncated = (abs(cs[0]) - 1).bit_length() * k + (width + k.bit_length()) * n
        return min(k * width, truncated + (n + 1).bit_length())
    return k * width


def schoolbook_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Reference O(N^2) convolution; the oracle that `*` must match."""
    n = min(a.order, b.order)
    bc = b.coeffs
    out = [0] * (n + 1)
    for i, ca in enumerate(a.coeffs[: n + 1]):
        if ca == 0:
            continue
        for j in range(n - i + 1):
            out[i + j] += ca * bc[j]
    return TruncatedSeries(out)


def _newton_inverse(cs: Sequence[int]) -> list[int]:
    # Newton iteration doubling the correct prefix each round, so every
    # retained coefficient is exact; cs[0] is +1 or -1.
    n = len(cs) - 1
    inv = [cs[0]]
    prec = 1
    while prec <= n:
        prec = min(2 * prec, n + 1)
        # inv <- inv*(2 - a*inv) computed modulo q^prec
        t = _mul_lists(cs[:prec], inv, prec - 1)
        t[0] = 2 - t[0]
        for i in range(1, prec):
            t[i] = -t[i]
        inv = _mul_lists(inv, t, prec - 1)
    return inv


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires constant term +1 or -1.

    When every exponent of a nonzero term is a multiple of some g > 1,
    a(q) = b(q^g), and 1/a is 1/b, found at order N // g, spread back to
    every g-th coefficient.
    """
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise NonUnitConstantTerm(
            f"cannot invert series with constant term {coeff_text(c0)}; need +1 or -1"
        )
    g = gcd(*compress(range(a.order + 1), a.coeffs))
    if g < 2:
        return TruncatedSeries(_newton_inverse(a.coeffs))
    out = [0] * (a.order + 1)
    out[::g] = _newton_inverse(a.coeffs[::g])
    return TruncatedSeries(out)


def substitute_power(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """a(q^k): coefficient of q^(k*i) is a(i), all others 0.

    The result keeps every input coefficient, so its order is k*a.order.
    """
    if k < 1:
        raise ValueError("substitution power must be a positive integer")
    out = [0] * (k * a.order + 1)
    for i, c in enumerate(a.coeffs):
        out[k * i] = c
    return TruncatedSeries(out)


def shift(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """q^e * a(q); order grows to a.order + e."""
    if e < 0:
        raise ValueError("shift exponent must be nonnegative")
    return TruncatedSeries((0,) * e + a.coeffs)


def first_index(flags: Iterable[object]) -> int | None:
    """Position of the first truthy flag, or None; the scan runs at C speed."""
    return next(compress(count(), flags), None)


def coeff_text(c: int) -> str:
    """c in decimal, in full.  str() stops at the interpreter's int-string
    digit limit; past it the digits are split in two by one divmod and each
    half is written the same way, so the limit itself is left as it is."""
    limit = sys.get_int_max_str_digits()
    bits = c.bit_length()
    if not limit or bits < 3 * limit:  # at most 0.302 * bits + 1 digits
        return str(c)
    k = bits * 3 // 20  # about half the digits
    high, low = divmod(abs(c), 10 ** k)
    return ("-" if c < 0 else "") + coeff_text(high) + coeff_text(low).zfill(k)


def check_progression(k: int, l: int) -> None:
    """Raise ValueError unless k*n + l is a progression dissect accepts."""
    if k < 1 or not 0 <= l < k:
        raise ValueError(f"dissection needs 0 <= l < k, got k={k}, l={l}")


def dissect(a: TruncatedSeries, k: int, l: int) -> TruncatedSeries:
    """Arithmetic-progression extract: result(n) = a(k*n + l), compressed.

    The result order is floor((a.order - l) / k).
    """
    check_progression(k, l)
    if l > a.order:
        raise ValueError(f"residue {l} exceeds series order {a.order}")
    return TruncatedSeries(a.coeffs[l::k])
