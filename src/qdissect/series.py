"""Truncated formal power series in q with exact integer coefficients.

A series is a dense coefficient vector c[0..N] representing
c[0] + c[1] q + ... + c[N] q^N; N is the order (highest retained
exponent), stored (_coeffs) as a tuple of ints or a signed array that its
producer knows fits (theta_f's bytes); .coeffs is a tuple, == and hash
compare values.  All arithmetic is exact.  Binary operations truncate the
result to the smaller of the two input orders, so a coefficient is never
reported unless it is fully determined.  Multiplication takes one of four
exact paths, chosen by one measured cost rule (see _mul_lists): few nonzero
term pairs are summed directly; a sparse operand adds the other, packed
into a big integer, at its shifts; an operand in q^g splits the product
into g products by residue; the rest is a signed Kronecker substitution,
multiplied once or, from TWO_POINT_BYTES bytes on, at two points +-2^s
(Harvey 2009).  A digit of at most 8 bytes packs and unpacks in two's
complement through a signed array, in C.

Division a/d, d's constant term +-1, is one exact kernel, _quotient (Karp and
Markstein 1997): 1/d to half the terms, the multiply by a folded into Newton's
last round; invert is its case a = 1, at order N // g for a series in q^g.

Every series keeps a support profile (Profile: nonzero count, step g,
the nonzero positions of a sparse series, largest |c|), read again
without a scan.  A kernel that knows where it wrote hands those positions
to _of, and the profile is built from them: theta_f, a qexpr sum whose
every term was added over known positions, a series' first n terms, the
slices of a q^g split, and product_residue.  A series entering a product
of n terms is cut to them once, there (TruncatedSeries._operand); the
multiply cuts nothing.  A sparse operand packs in time proportional to its
nonzero terms.  The profile is not part of a series' value.

A sum of shifted, signed products is built in one list of ints, in place,
by one accumulator, add_product_into.  A lone factor is added over its
known positions or by one slice map; the last product of several is added
by _mul_lists, which takes the list, an offset and a sign and alone
chooses the path: term pairs are written straight into the list.

The public constructor checks every coefficient with operator.index.
Kernel results (+, -, *, scale, invert, divide, dissect, shift,
substitute_power, theta_f, pochhammer, product_residue, qexpr's slices)
come from checked series and checked scalars, and are stored through
TruncatedSeries._of without that check.  The oracles keep the public one.

A power refuses, before any multiply, to build coefficients past
MAX_COEFF_BITS bits (LimitExceeded).
"""

from __future__ import annotations

import operator
import sys
from array import array
from bisect import bisect_left
from functools import reduce
from itertools import compress, count, repeat
from math import gcd
from typing import Iterable, Sequence


class EvaluationError(ValueError):
    """An input that parses but has no value as a truncated series, or
    whose value is too large to build: the command line's exit 1."""


class NonUnitConstantTerm(EvaluationError):
    """Raised when inverting a series whose constant term is not +1 or -1."""


class LimitExceeded(EvaluationError):
    """A power whose coefficients could pass MAX_COEFF_BITS bits."""


# Widest coefficient, in bits, a power may build: power_bits must not pass
# it.  The widest coefficient the registry builds is 167 bits at order 1000
# and 242 at order 2000, the benchmark's 167, so the cap sits more than 250
# times above them.  It keeps a power like (1+q)^(10^300), whose coefficients
# near order 300 have 300k bits, from running for minutes.
MAX_COEFF_BITS = 1 << 16

# Packed size, width * n bytes, from which a packed product is evaluated at
# two points, +-2^s, on half-width integers (see _mul_lists).  Time at two
# points over time at one, _mul_lists on the same profiles (timeit, best of
# 7, CPU time, CPython 3.11, 2-vCPU Xeon guest); operands dense, or for
# 1-byte digits, whose bound keeps an operand below 128 terms, 63 terms:
#
#   width \ bytes  512   768  1024  1536  2048  4096  8192
#   1             1.67  1.49  1.30  1.18  1.09  1.05  0.98
#   2             1.38  1.01  0.91  0.93  0.91  0.83  0.79
#   4             1.10  0.92  0.88  0.85  0.83  0.78  0.75
#   8             1.00  0.90  0.89  0.87  0.79  0.77  0.85
#   16            1.09  1.00  0.91  0.89  0.89  0.73  0.76
#   32            1.09  0.95  0.94  0.86  0.89  0.89  0.76
#
# Every width of 2 bytes and more gains from 1024 bytes on.  A 1-byte
# product, sparse, pays for its extra packs up to 8 KB; such products take
# shifted adds (SHIFTED_ADDS), as theta-lemmas' two at 6001 digits do.
TWO_POINT_BYTES = 1024

# _mul_lists adds the denser operand, packed, at the kx shifts of the other
# when kx^2 <= SHIFTED_ADDS * n * W (n digits of W bytes), unless the denser
# one is in q^g, g > 1, and kx * W passes SPLIT_ADD_BYTES: its split cuts the
# adds by g.  Shifted adds over the path taken otherwise cross 1 at k* terms
# (tools/mul_crossover.txt: k terms of +-1 by a dense operand in q or q^2;
# timeit, best of 7, CPU time, CPython 3.11, 2-vCPU Xeon guest; ranges over
# both supports and seeds, ">" where still below 1 at the largest k):
#
#   W bytes:              1         2        8        16
#   k*^2/(nW), g=1, 1001  2.5->4.1  3.7-9.2  3.6-4.1  >4.1
#                   6001  >0.7      3.8-5.0  >1.4     >0.7
#   k*W, g=2,       1001  >64       302-339  350-417  375-447
#                   6001  >64       166-242  294-593  151-290
#
# Each constant is the median of its crossovers, rounded (3.8 of 15, 308 of 24).
SHIFTED_ADDS = 4
SPLIT_ADD_BYTES = 300

# Quotients of at most this many terms are long division (_quotient): one
# Newton level took 1.06-1.79 times as long at 24 terms, 0.92-1.37 at 32
# (timeit, 1/d and a/d; d three products of thetas, of 16-bit digits).
LONG_DIVISION_TERMS = 24

# The signed array typecode of each item size in bytes, read from array
# itself: the packed multiply's digits of 1, 2, 4 and 8 bytes.
_ARRAY_CODES = {array(code).itemsize: code for code in "bhilq"}
_BIG_ENDIAN = sys.byteorder == "big"


def _mul_terms(xs: Sequence[int], ys: Sequence[int], ix: Sequence[int],
               iy: Sequence[int], n: int, out: list[int] | None = None,
               offset: int = 0, sign: int = 1) -> list[int]:
    """out[offset + i + j] += sign * xs[i] * ys[j] over the nonzero
    positions i in ix and j in iy (both ascending) with i + j < n, and out;
    out is a fresh list of n zeros when not given.

    The outer loop runs over the shorter support.  The offset and the sign
    go into the inner terms once, before the loop.  For each outer term j
    the inner terms are cut once, at the first i with i + j >= n, so no
    pair tests a bound; an outer coefficient of +-1, every theta's, adds
    or subtracts the inner ones without a multiply."""
    if out is None:
        out = [0] * n
    if len(iy) > len(ix):
        xs, ys, ix, iy = ys, xs, iy, ix
    cs = map(xs.__getitem__, ix)
    if sign != 1:
        cs = map(operator.mul, cs, repeat(sign))
    inner = list(zip(map(operator.add, ix, repeat(offset)) if offset else ix, cs))
    for j in iy:
        b = ys[j]
        terms = inner[:bisect_left(ix, n - j)]
        if b == 1:
            for i, a in terms:
                out[i + j] += a
        elif b == -1:
            for i, a in terms:
                out[i + j] -= a
        else:
            for i, a in terms:
                out[i + j] += a * b
    return out


def product_residue(x: TruncatedSeries, y: TruncatedSeries, k: int, l: int,
                    size: int) -> TruncatedSeries | None:
    """dissect(x * y, k, l), 0 <= l < k, to size terms if the product takes
    term pairs (_takes_pairs), else None: pairs i = k*u + r and j = k*v + s land
    iff r = (l - s) mod k, at u + v, +1 if s > l; a bit marks each entry written."""
    n = min(len(x._coeffs), len(y._coeffs))
    px, py = sorted((x._operand(n), y._operand(n)), key=lambda p: -p.count)
    if not _takes_pairs(px, py, n):
        return None
    xs, ys, iy, keys = px.cs, py.cs, py.support(), _residue_supports(px.support(), k)
    inner = [list(zip(us, map(xs.__getitem__, map(range(r, n, k).__getitem__, us))))
             for r, us in enumerate(keys)]
    bits = [sum(map((1).__lshift__, us)) for us in keys]
    out, written = [0] * size, 0
    for j in iy:
        v, s = divmod(j, k)
        r, e = (l - s) % k, v + (s > l)
        cut = bisect_left(keys[r], size - e)
        written |= bits[r] << e
        b, terms = ys[j], inner[r][:cut]
        if b == 1:
            for u, a in terms:
                out[u + e] += a
        elif b == -1:
            for u, a in terms:
                out[u + e] -= a
        else:
            for u, a in terms:
                out[u + e] += a * b
    flags = f"{written:b}".encode()[::-1].translate(bytes.maketrans(b"01", b"\0\1"))
    return TruncatedSeries._of(tuple(out), list(compress(range(size), flags)))


class Profile:
    """What the multiply reads of a coefficient sequence `cs`, kept beside
    a reference to it: `count`, its number of nonzero terms; `step`, the
    largest g dividing every nonzero position, so the sequence is b(q^g)
    (0 when no nonzero position is positive); `positions`, the ascending
    nonzero positions; and the largest |c|, found when first asked for
    (`magnitude`).

    A producer that knows where it wrote hands that over as `support`, an
    ascending list holding every nonzero position of cs (and perhaps some
    zero ones): the profile keeps those of its positions where cs is
    nonzero and reads count and step from them, with no scan of cs.
    Without a support, cs is scanned once.  Either way every field is the
    same.

    The positions are kept only when 2 * count <= len + 1.  A denser
    sequence has two adjacent nonzero terms, so its step is 1 and no list
    is stored: a dense series costs no more memory than its coefficients.
    """

    __slots__ = ("cs", "count", "step", "positions", "peak")

    def __init__(self, cs: Sequence[int], support: list[int] | None = None):
        size = len(cs)
        self.cs = cs
        self.peak = None
        if support is None:
            self.count = size - cs.count(0)
        else:
            support = list(compress(support, map(cs.__getitem__, support)))
            self.count = len(support)
        if 2 * self.count <= size + 1:
            self.positions = list(compress(range(size), cs)) if support is None else support
            self.step = gcd(*self.positions)
        else:
            self.positions = None
            self.step = 1

    def support(self) -> list[int]:
        """The nonzero positions of cs."""
        if self.positions is None:
            return list(compress(range(len(self.cs)), self.cs))
        return self.positions

    def magnitude(self) -> int:
        """max |c| over cs; 0 if all zero."""
        if self.peak is None:
            cs = self.cs
            if self.positions is None:
                self.peak = max(max(cs), -min(cs))
            else:
                self.peak = max(map(abs, map(cs.__getitem__, self.positions)), default=0)
        return self.peak


def _mul_lists(px: Profile, py: Profile, n_out: int, out: list[int] | None = None,
               offset: int = 0, sign: int = 1) -> list[int]:
    """Exact truncated convolution of two profiled integer sequences, n =
    n_out + 1 terms, returned, or added into out when it is given:
    out[offset + i] += sign * product[i] wherever offset + i < len(out),
    and out returned: the one place where a product's path is chosen.

    A caller hands over at most n terms (TruncatedSeries._operand cuts a
    series to them), a cost contract alone: every path keeps only the first
    n digits, and the width bound holds for every digit.  With kx <= ky
    nonzero terms (the operands swapped if need be) and W bytes per packed
    digit (`_width`), one rule takes the first of four exact paths that
    applies:

    1. kx * ky <= n: term pairs (`_mul_terms`, `_takes_pairs`), into out.
       That loop takes no more Python steps than there are output digits;
       the paths below take several per digit.  An all-zero operand has
       kx * ky = 0 and lands here.
    2. kx^2 <= SHIFTED_ADDS * n * W, and kx * W <= SPLIT_ADD_BYTES if the
       denser operand is in q^g, g > 1: shifted adds (`_shifted_adds`).
    3. an operand in q^g, g > 1: g products by residue (`_split`).
    4. packing (`_packed`), at two points from TWO_POINT_BYTES bytes on,
       W * n, else at one.

    Any other path's product is built, then added to out by one slice map.
    Every path equals schoolbook convolution (a tested property).
    """
    n = n_out + 1
    kx, ky = px.count, py.count
    if _takes_pairs(px, py, n):
        bound = n if out is None else min(n, len(out) - offset)
        return _mul_terms(px.cs, py.cs, px.support(), py.support(), bound, out, offset, sign)
    if out is not None:
        _add_coeffs(out, _mul_lists(px, py, n_out), offset, sign, None)
        return out
    if kx > ky:
        px, py, kx = py, px, ky
    width = _width(px, py)
    if kx * kx <= SHIFTED_ADDS * n * width and (py.step == 1 or kx * width <= SPLIT_ADD_BYTES):
        return _shifted_adds(px, py, n, width)
    if px.step > 1 or py.step > 1:
        return _split(px, py, n)
    return _packed(px, py, n, width, width * n >= TWO_POINT_BYTES)


def _takes_pairs(px: Profile, py: Profile, n: int) -> bool:
    """_mul_lists' first rule, stated once: at most n nonzero term pairs."""
    return px.count * py.count <= n


def _width(px: Profile, py: Profile) -> int:
    """Bytes per packed digit of the product: a digit sums at most min(kx,
    ky) nonzero products, so it stays below mx * my * min(kx, ky) < half =
    2^(8 * width - 1).  3 and 5-7 bytes round up to 4 or 8, the item size
    of a signed array typecode, in which digits pack (see `_pack`)."""
    width = ((px.magnitude() * py.magnitude() * min(px.count, py.count)).bit_length() + 8) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _shifted_adds(px: Profile, py: Profile, n: int, width: int) -> list[int]:
    """The first n digits of X * Y, X and Y px's and py's sequences packed
    at width bytes, X never built: x_i * (Y << 8 * width * i) is added over
    px's nonzero positions i < n, an x_i of +-1 as a plain add or subtract.
    The sum is X cut below n times Y, so every digit keeps the width bound."""
    y = _pack(py.cs, py.positions, width)
    xs, positions, bits = px.cs, px.support(), 8 * width
    total, minus = 0, -y
    for i in positions[:bisect_left(positions, n)]:
        c = xs[i]
        total += (y if c == 1 else minus if c == -1 else c * y) << bits * i
    return _unpack(total, n, width)


def _split(px: Profile, py: Profile, n: int) -> list[int]:
    """The n digits as g products by residue, xs the operand of the larger
    step g > 1: out[r::g] = xs[::g] * ys[r::g], each by _mul_lists.  xs[::g]
    is profiled once, from xs's positions, and each residue is taken whole
    at residue 0's order (n - 1) // g, the digits past n dropped; ys's kept
    positions are sorted into the residues' supports in one pass."""
    if py.step > px.step:
        px, py = py, px
    g = px.step
    m = (n - 1) // g
    out = [0] * ((m + 1) * g)
    psub = Profile(px.cs[::g], list(map(operator.floordiv, px.positions, repeat(g))))
    for r, support in enumerate(_residue_supports(py.positions, g)):
        out[r::g] = _mul_lists(psub, Profile(py.cs[r::g], support), m)
    del out[n:]
    return out


def _packed(px: Profile, py: Profile, n: int, width: int, two_points: bool) -> list[int]:
    """Signed Kronecker substitution: each operand packed into one big
    integer at `width` bytes per coefficient (kept positions set in a zeroed
    array), the two multiplied, and the first n digits read back as
    balanced digits in (-half, half).  With two_points (D. Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution", J.
    Symbolic Comput. 44 (2009)), s = 4 * width bits: each operand packs its
    even and odd digits apart, E and O, and is E +- (O << s) at t = +-2^s.
    Two half-size multiplies give the product's values P+ and P-, and
    (P+ + P-) / 2 and (P+ - P-) / 2^(s + 1), exact shifts, hold its even
    and odd digits under the same bound: about half of a one-point digit
    is padding for the bound, and it is not multiplied."""
    if not two_points:
        return _unpack(_pack(px.cs, px.positions, width) * _pack(py.cs, py.positions, width),
                       n, width)
    (xp, xm), (yp, ym) = _at_two_points(px, width), _at_two_points(py, width)
    plus, minus = xp * yp, xm * ym
    out = [0] * n
    out[0::2] = _unpack((plus + minus) >> 1, (n + 1) // 2, width)
    out[1::2] = _unpack((plus - minus) >> (4 * width + 1), n // 2, width)
    return out


def _residue_supports(positions: list[int] | None, g: int) -> list[list[int] | None]:
    """The supports of cs[r::g], r = 0..g-1, found in one pass over the
    ascending nonzero positions of cs, or g Nones when they are not kept."""
    if positions is None:
        return [None] * g
    supports = [[] for _ in range(g)]
    for i, r in map(divmod, positions, repeat(g)):
        supports[r].append(i)
    return supports


def _at_two_points(p: Profile, width: int) -> tuple[int, int]:
    """p's sequence at t = +2^s and -2^s, s = 4 * width bits: E +- (O << s),
    E and O its even and odd digits packed at width bytes."""
    even, odd = _residue_supports(p.positions, 2)
    e, o = _pack(p.cs, even, width, 2, 0), _pack(p.cs, odd, width, 2, 1) << 4 * width
    return e + o, e - o


def _pack(cs: Sequence[int], positions: list[int] | None, width: int, step: int = 1,
          start: int = 0) -> int:
    """sum(c_i * 2^(8*width*i)) over the digits c_i of cs[start::step], each
    |c_i| < half = 2^(8*width - 1); positions, if given, holds their nonzero ones."""
    # The offset digits c + half are nonnegative, so their bytes are the
    # plain base-256 digits of sum((c_i + half) * 2^(8*width*i)), and
    # subtracting off, which has half in every digit, leaves the packed
    # value.  A narrow digit is an item of a signed array, its bytes c's
    # two's complement: that differs from the offset digit c + half in the
    # top bit alone, so one XOR with off, in C, turns every digit into its
    # offset form.
    half = 1 << (8 * width - 1)
    m = len(range(start, len(cs), step))
    off = int.from_bytes(half.to_bytes(width, "little") * m, "little")
    code = _ARRAY_CODES.get(width)
    if step > 1 and (positions is None or not code):
        cs = cs[start::step]
    if not code:
        digits = map(operator.add, cs, repeat(half))
        raw = b"".join(map(int.to_bytes, digits, repeat(width), repeat("little")))
        return int.from_bytes(raw, "little") - off
    # At n = 1001 and 6001 and every narrow width, setting the k items of a
    # zeroed array took 0.16-0.65 of the time of converting all n digits
    # for k up to n/4, and 0.97-1.09 of it at k = n/2, where positions stop
    # being kept (timeit, best of 7).
    if positions is None:
        items = array(code, cs)
    else:
        items = array(code, bytes(width * m))
        for i in positions:
            items[i] = cs[step * i + start]
    if _BIG_ENDIAN:
        items.byteswap()
    return (int.from_bytes(items.tobytes(), "little") ^ off) - off


def _unpack(value: int, m: int, width: int) -> list[int]:
    """The low m digits of value written in balanced base 2^(8*width)
    digits, each in (-half, half)."""
    # Adding off, half per digit, and keeping m digits turns them into
    # offset digits c + half, plain bytes.  The digits are kept with a
    # mask: CPython's % by a power of two is a general long division,
    # quadratic in the operand size.  A narrow digit goes back to two's
    # complement through the same XOR and is read as a signed array item,
    # so packing and unpacking run in C; a wider one takes one int.to_bytes
    # or int.from_bytes call each.  The rounded-up width makes a longer
    # multiply, yet on the benchmark's products of 3 and 5-7 byte digits it
    # measured faster than the calls.
    half = 1 << (8 * width - 1)
    size = width * m
    off = int.from_bytes(half.to_bytes(width, "little") * m, "little")
    low = (value + off) & ((1 << (8 * size)) - 1)
    code = _ARRAY_CODES.get(width)
    if code:
        digits = array(code, (low ^ off).to_bytes(size, "little"))
        if _BIG_ENDIAN:
            digits.byteswap()
        return digits.tolist()
    raw = low.to_bytes(size, "little")
    chunks = map(raw.__getitem__, map(slice, range(0, size, width), range(width, size + 1, width)))
    return list(map(operator.sub, map(int.from_bytes, chunks, repeat("little")), repeat(half)))


class TruncatedSeries:
    """Immutable dense series truncated at a fixed order."""

    __slots__ = ("_coeffs", "_profile")

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(map(operator.index, coeffs))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self._coeffs = cs
        self._profile = None

    @classmethod
    def _of(cls, cs: Sequence[int], support: list[int] | None = None) -> "TruncatedSeries":
        """A kernel's result, stored as it is: a nonempty tuple of exact
        ints or a signed array that fits them, built from checked series and
        checked scalars alone, so it is not checked again.  A kernel that knows
        where it wrote passes `support` (see Profile), and the profile is
        built from it at once; otherwise it is found on first use."""
        series = object.__new__(cls)
        series._coeffs = cs
        series._profile = None if support is None else Profile(cs, support)
        return series

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._coeffs)  # a tuple as it is, an array copied

    @property
    def profile(self) -> Profile:
        """The support profile of the coefficients, found on first use and
        kept; it takes no part in ==, hash or repr."""
        if self._profile is None:
            self._profile = Profile(self._coeffs)
        return self._profile

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
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(map(coeff_text, self._coeffs[:8]))
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order, 0)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "TruncatedSeries":
        """c * q^e truncated at `order`; zero series if e exceeds the order."""
        coeff = operator.index(coeff)
        if order < 0:
            raise ValueError("a series needs at least its constant term")
        cs = [0] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = coeff
        return cls._of(tuple(cs))

    # Sums and differences stop at the shorter operand, as map does.
    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of(tuple(map(operator.add, self._coeffs, other._coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of(tuple(map(operator.sub, self._coeffs, other._coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(tuple(map(operator.neg, self._coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self._coeffs), len(other._coeffs))
        return TruncatedSeries._of(tuple(_mul_lists(self._operand(n), other._operand(n), n - 1)))

    def _operand(self, n: int) -> Profile:
        """The profile this series brings to a product of n <= order + 1
        terms, the one place an operand is cut: its own, found now, if it
        has n terms; else that of its first n terms, from its own kept
        positions by one bisect once found, else by a scan, its own unfound."""
        if len(self._coeffs) == n:
            return self.profile
        kept = None if self._profile is None else self._profile.positions
        return Profile(self._coeffs[:n], None if kept is None else kept[:bisect_left(kept, n)])

    def scale(self, c: int) -> "TruncatedSeries":
        c = operator.index(c)
        return TruncatedSeries._of(tuple(map(operator.mul, self._coeffs, repeat(c))))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        """self^k by left-to-right binary powering: bit_length(k) - 1
        squarings and popcount(k) - 1 products by self, with no unit seed.
        Raises LimitExceeded, before the first multiply, as check_power
        does.  A negative k inverts self^-k, bounded as (a^k)^-1 is."""
        if exponent < 0:  # a non-unit goes to invert as it is, which refuses it
            unit = self._coeffs[0] in (1, -1)
            return invert(self ** -exponent if unit else self) ** 1
        if exponent == 0:
            return TruncatedSeries.one(self.order)
        check_power(self, exponent)
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def is_zero(self) -> bool:
        return not any(self._coeffs)


def check_power(a: TruncatedSeries, k: int) -> None:
    """Raise LimitExceeded when power_bits(a, k), k >= 1, passes
    MAX_COEFF_BITS, or, for k past MAX_COEFF_BITS, when power_bits(a, k)
    times bit_length(k), a bound on the work of the powering steps, does."""
    bits = power_bits(a, k)
    steps = k.bit_length()
    need = None
    if bits > MAX_COEFF_BITS:
        need = f"{coeff_text(bits)}-bit coefficients; the limit is {MAX_COEFF_BITS} bits"
    elif k > MAX_COEFF_BITS and bits * steps > MAX_COEFF_BITS:
        need = (f"{steps} powering steps of up to {bits}-bit coefficients "
                f"({bits * steps} bits in all); past exponent {MAX_COEFF_BITS} "
                f"the limit is {MAX_COEFF_BITS} bits in all")
    if need:
        raise LimitExceeded(
            f"a power {coeff_text(k)} of a series at order {a.order} could need {need}")


def power_bits(a: TruncatedSeries, k: int) -> int:
    """Bound on the coefficient width, in bits, of a**k for k >= 1, read
    from a alone: k * (B + log2(n + 1)), with B the bit length of a's widest
    coefficient and n its order, since no coefficient of a**k exceeds the
    k-th power of the sum of |a_i|.  It is 0 when the power cannot grow:
    when a**k vanishes to order n (k times a's lowest exponent passes n),
    or when a is +-q^v.

    For k > n, with constant term c != 0, the truncation bounds it too:
    a**k takes at most n factors of a - c, so no coefficient exceeds
    |c|^k (n + 1) (k * sum of |a_i|)^n.  For |c| = 1 its width grows with
    log2(k), not k, so it can stay small for a huge k; __pow__ then also
    bounds the number of powering steps."""
    cs = a._coeffs
    n = a.order
    p = a.profile
    low = first_index(cs)
    if low is None or low * k > n or (p.count == 1 and abs(cs[low]) == 1):
        return 0
    width = p.magnitude().bit_length() + (n + 1).bit_length()
    if low == 0 and k > n:
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


def _quotient(a: Sequence[int] | None, d: Sequence[int], n: int,
              y: list[int] | None = None) -> list[int]:
    """a/d to n terms (1/d for a None), exactly, d[0] = +-1, a and d of n terms
    or more: with y = 1/d to h = ceil(n/2) terms (found here if not given), q0
    = a*y and e = (d*q0 - a)[h:n], a/d is q0 then -(y*e)[:n - h]; q0 = y for a = 1."""
    if n <= LONG_DIVISION_TERMS:  # q_i = d_0 (a_i - sum of d_j q_(i-j), j >= 1)
        q: list[int] = []
        for ai in [1] + [0] * (n - 1) if a is None else a[:n]:
            q.append(d[0] * (ai - sum(map(operator.mul, d[1:len(q) + 1], reversed(q)))))
        return q
    h = (n + 1) // 2
    y = y or _quotient(None, d, h)
    py = Profile(y)
    q = y if a is None else _mul_lists(Profile(a[:h]), py, h - 1)
    e = _mul_lists(Profile(d[:n]), py if a is None else Profile(q), n - 1)[h:]
    if a is not None:
        e = list(map(operator.sub, e, a[h:n]))
    head = py if n == 2 * h else Profile(y[:n - h])
    q += map(operator.neg, _mul_lists(head, Profile(e), n - h - 1))
    return q


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """1/a, by _quotient with a = 1; requires constant term +1 or -1.

    When every exponent of a nonzero term is a multiple of some g > 1,
    a(q) = b(q^g), and 1/a is 1/b, found at order N // g, spread back to
    every g-th coefficient.
    """
    c0 = a._coeffs[0]
    if c0 not in (1, -1):
        raise NonUnitConstantTerm(
            f"cannot invert series with constant term {coeff_text(c0)}; need +1 or -1")
    g = a.profile.step
    if g < 2:
        return TruncatedSeries._of(tuple(_quotient(None, a._coeffs, len(a._coeffs))))
    out = [0] * (a.order + 1)
    out[::g] = _quotient(None, a._coeffs[::g], a.order // g + 1)
    return TruncatedSeries._of(tuple(out))


def divide(a: TruncatedSeries, d: TruncatedSeries) -> TruncatedSeries:
    """a / d to the smaller order, exactly, by _quotient (A. H. Karp and P.
    Markstein, "High-precision division and square root", ACM TOMS 23
    (1997)); a d that invert refuses is refused with its message.  The power
    limit is checked on the half inverse and on the quotient, each as a
    power 1, as invert(d) ** 1 checks 1/d; the full 1/d is never built."""
    if d._coeffs[0] not in (1, -1):
        invert(d)  # raises NonUnitConstantTerm
    n = min(len(a._coeffs), len(d._coeffs))
    y = _quotient(None, d._coeffs, (n + 1) // 2)
    check_power(TruncatedSeries._of(tuple(y)), 1)
    return TruncatedSeries._of(tuple(_quotient(a._coeffs, d._coeffs, n, y))) ** 1


def substitute_power(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """a(q^k): coefficient of q^(k*i) is a(i), all others 0.

    The result keeps every input coefficient, so its order is k*a.order.
    """
    if k < 1:
        raise ValueError("substitution power must be a positive integer")
    out = [0] * (k * a.order + 1)
    out[::k] = a._coeffs
    return TruncatedSeries._of(tuple(out))


def shift(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """q^e * a(q); order grows to a.order + e."""
    if e < 0:
        raise ValueError("shift exponent must be nonnegative")
    return TruncatedSeries._of((0,) * e + a.coeffs)


def _sparse_first(factors: Sequence[TruncatedSeries]) -> Sequence[TruncatedSeries]:
    """Three or more factors sparsest first, so products of thetas keep to
    term pairs as long as they can; two are not profiled to be sorted."""
    return sorted(factors, key=lambda s: s.profile.count) if len(factors) > 2 else factors


def product(factors: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """The product of a nonempty list of series, sparse factors first."""
    return reduce(operator.mul, _sparse_first(factors))


_ONE = TruncatedSeries._of((1,), [0])  # the product of no factors, with its position


def add_product_into(out: list[int], factors: Sequence[TruncatedSeries], offset: int = 0,
                     sign: int = 1) -> list[int] | None:
    """out[offset + i] += sign * P[i] wherever offset + i < len(out), P the
    product of the factors (1 for none); returns the positions written, or
    None where they are not known.  One factor is added over its positions
    if its profile has been found and keeps them, else by one slice map;
    the last product of several is added by _mul_lists, its operands not
    cut to fit out (a cut copies them: it doubled the time of a shifted
    product of two thetas at order 6000)."""
    if len(out) <= offset or not sign:
        return []
    if len(factors) < 2:
        a = factors[0] if factors else _ONE
        p = a._profile
        return _add_coeffs(out, a._coeffs, offset, sign, None if p is None else p.positions)
    *head, last = _sparse_first(factors)
    a = reduce(operator.mul, head)
    n = min(len(a._coeffs), len(last._coeffs))
    _mul_lists(a._operand(n), last._operand(n), n - 1, out, offset, sign)
    return None


def _add_coeffs(out: list[int], cs: Sequence[int], offset: int, sign: int,
                positions: list[int] | None) -> list[int] | None:
    """out[offset + i] += sign * cs[i] wherever offset + i < len(out), over
    positions, the ascending nonzero positions of cs, when given; returns
    the positions of out written, or None if positions is None."""
    n = len(out) - offset
    if positions is not None:
        positions = positions[:bisect_left(positions, n)]
        values = map(cs.__getitem__, positions)
        if sign != 1:
            values = map(operator.mul, values, repeat(sign))
        if offset:
            positions = list(map(operator.add, positions, repeat(offset)))
        for i, c in zip(positions, values):
            out[i] += c
        return positions
    end = offset + min(n, len(cs))
    op, values = operator.add, cs
    if sign == -1:
        op = operator.sub
    elif sign != 1:
        values = map(operator.mul, cs, repeat(sign))
    out[offset:end] = map(op, out[offset:end], values)
    return None


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


def read_int(text: str, expected: str, error: type[ValueError] = ValueError) -> int:
    """text as an optional sign and ASCII digits alone, or an error
    "{expected}, got {text!r}"; past the int-string limit the digits are
    counted, as the expression parser counts them, not echoed."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise error(f"{expected}, got {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise error(f"{expected} of at most {limit} digits, got {len(digits)} digits")
    return int(text)


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
    return TruncatedSeries._of(a._coeffs[l::k])
