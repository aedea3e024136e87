"""Theta functions, q-Pochhammer products, and bilateral quadratic sums.

Everything here evaluates to an exact TruncatedSeries.  The two-variable
theta function is

    f(a, b) = sum over all integers n of a^(n(n+1)/2) * b^(n(n-1)/2),

taken at signed monomial arguments a = +-q^r, b = +-q^s with r + s >= 1.
Its product form (the triple product) is f(a, b) = (-a; ab) (-b; ab) (ab; ab),
each factor an infinite product expanded lazily to the truncation order.
phi, psi and the bilateral sums bsum are special values of f and are
built by theta_f.

The expression evaluator (qexpr) uses four consequences to replace
Pochhammer products by sparse theta series:

    (s q^r, s q^(m-r); q^m) = f(-s q^r, -s q^(m-r)) / (q^m; q^m),  0 < r < m
    (q^m; q^m)              = f(-q^m, -q^(2m))   (the pentagonal theorem)
    (q^(m/2); q^m)          = (q^(m/2); q^(m/2)) / (q^m; q^m)
    phi(q^k), psi(q^k), bsum(A, B) = f(q^k, q^k), f(q^k, q^(3k)),
                                     f(q^(A+B), q^(A-B))

Each f with r, s >= 1 has constant term 1, so it may be inverted;
pochhammer stays for the factors no rule covers, and as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .series import TruncatedSeries


class ZeroProduct(ValueError):
    """A Pochhammer factor (q^0; q^m) vanishes identically."""


class InvalidThetaArgument(ValueError):
    """Theta arguments must satisfy exponent(a) + exponent(b) >= 1."""


class NegativeExponent(ValueError):
    """An operation produced a term with a negative q-exponent."""


class InvalidParameters(ValueError):
    """Parameters outside the documented domain."""


@dataclass(frozen=True)
class SignedMonomial:
    """+-q^e with e >= 0; sign is +1 or -1."""

    sign: int
    exponent: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise InvalidParameters(f"sign must be +1 or -1, got {self.sign}")
        if self.exponent < 0:
            raise NegativeExponent(f"monomial exponent {self.exponent} is negative")

    def times(self, other: "SignedMonomial") -> "SignedMonomial":
        return SignedMonomial(self.sign * other.sign, self.exponent + other.exponent)

    def over(self, other: "SignedMonomial") -> "SignedMonomial":
        e = self.exponent - other.exponent
        if e < 0:
            raise NegativeExponent(f"quotient exponent {e} is negative")
        return SignedMonomial(self.sign * other.sign, e)

    def negated(self) -> "SignedMonomial":
        return SignedMonomial(-self.sign, self.exponent)


@dataclass(frozen=True)
class PochhammerFactor:
    """One factor (+-q^r; q^m)_inf of an infinite product."""

    arg: SignedMonomial
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise InvalidParameters(f"modulus must be positive, got {self.modulus}")
        if self.arg.sign == 1 and self.arg.exponent == 0:
            raise ZeroProduct("(q^0; q^m)_inf is identically zero")


def _apply_factor(cs: list[int], sign: int, e: int) -> None:
    # Multiply the coefficient vector in place by (1 - sign*q^e).
    # Descending index order keeps the update exact; e == 0 with sign -1
    # doubles every coefficient, which is the correct (1 + 1) factor.
    n = len(cs) - 1
    if sign > 0:
        for i in range(n, e - 1, -1):
            cs[i] -= cs[i - e]
    else:
        for i in range(n, e - 1, -1):
            cs[i] += cs[i - e]


@lru_cache(maxsize=None)
def pochhammer(factor: PochhammerFactor, order: int) -> TruncatedSeries:
    """Expand (+-q^r; q^m)_inf to the given order.

    The factors (1 -+ q^(r+nm)) are multiplied in place by
    _product_signed_base, the loop jtp_product uses, so the whole
    expansion costs O(order^2 / m) integer operations.
    """
    cs = [0] * (order + 1)
    cs[0] = 1
    _product_signed_base(cs, factor.arg, SignedMonomial(1, factor.modulus), order)
    return TruncatedSeries(cs)


def _theta_validate(a: SignedMonomial, b: SignedMonomial) -> None:
    if a.exponent + b.exponent < 1:
        raise InvalidThetaArgument(
            "theta arguments need exponent(a) + exponent(b) >= 1"
        )


@lru_cache(maxsize=None)
def theta_f(a: SignedMonomial, b: SignedMonomial, order: int) -> TruncatedSeries:
    """Bilateral theta sum f(a, b) truncated at `order`.

    A zero-exponent argument with positive sign is allowed: f(1, b) is the
    documented doubling case f(1, b) = 2 f(b, b^3).  The term exponent
    r*n(n+1)/2 + s*n(n-1)/2 grows in both directions once |n| >= 1, which
    bounds the summation range.
    """
    _theta_validate(a, b)
    cs = [0] * (order + 1)

    def accumulate(n: int) -> bool:
        t1 = n * (n + 1) // 2
        t2 = n * (n - 1) // 2
        e = a.exponent * t1 + b.exponent * t2
        if e > order:
            return False
        s = 1
        if a.sign < 0 and t1 & 1:
            s = -s
        if b.sign < 0 and t2 & 1:
            s = -s
        cs[e] += s
        return True

    n = 0
    while accumulate(n) or n < 1:
        n += 1
    n = -1
    while accumulate(n) or n > -1:
        n -= 1
    return TruncatedSeries(cs)


def _product_signed_base(
    cs: list[int], first: SignedMonomial, base: SignedMonomial, order: int
) -> bool:
    # Multiply cs in place by prod_{n>=0} (1 - first*base^n).  Returns False
    # when some factor is (1 - q^0), i.e. the whole product vanishes.
    e = first.exponent
    s = first.sign
    while e <= order:
        if e == 0 and s == 1:
            return False
        _apply_factor(cs, s, e)
        e += base.exponent
        s *= base.sign
    return True


def jtp_product(a: SignedMonomial, b: SignedMonomial, order: int) -> TruncatedSeries:
    """Product form (-a; ab)(-b; ab)(ab; ab) of f(a, b).

    Handles every sign combination; a mixed-sign pair makes the base ab
    negative, so the factor signs alternate.  When a factor (1 - q^0)
    appears (the f(-1, b) case) the product is the zero series, matching
    the cancelling bilateral sum.
    """
    _theta_validate(a, b)
    base = a.times(b)
    cs = [0] * (order + 1)
    cs[0] = 1
    for first in (a.negated(), b.negated(), base):
        if not _product_signed_base(cs, first, base, order):
            return TruncatedSeries.zero(order)
    return TruncatedSeries(cs)


def phi(scale: int, order: int) -> TruncatedSeries:
    """phi(q^k) = sum over all integers n of q^(k n^2), the theta value
    f(q^k, q^k)."""
    if scale < 1:
        raise InvalidParameters(f"phi needs a positive power of q, got {scale}")
    q_k = SignedMonomial(1, scale)
    return theta_f(q_k, q_k, order)


def psi(scale: int, order: int) -> TruncatedSeries:
    """psi(q^k) = sum_{n>=0} q^(k n(n+1)/2), the theta value f(q^k, q^(3k))."""
    if scale < 1:
        raise InvalidParameters(f"psi needs a positive power of q, got {scale}")
    return theta_f(SignedMonomial(1, scale), SignedMonomial(1, 3 * scale), order)


def bsum(quad: int, lin: int, order: int) -> TruncatedSeries:
    """Bilateral sum over all integers n of q^(A n^2 + B n), the theta
    value f(q^(A+B), q^(A-B)).

    Requires |B| < 2A so the exponent tends to +infinity both ways, and
    A >= |B| so no term has a negative exponent.  Coefficients are 0, 1,
    or 2 (two lattice points can share an exponent).
    """
    if quad < 1 or abs(lin) >= 2 * quad:
        raise InvalidParameters(
            f"need A >= 1 and |B| < 2A, got A={quad}, B={lin}"
        )
    if quad - abs(lin) < 0:
        raise NegativeExponent(
            f"term at n = -sign(B) has exponent {quad - abs(lin)} < 0"
        )
    return theta_f(SignedMonomial(1, quad + lin), SignedMonomial(1, quad - lin), order)
