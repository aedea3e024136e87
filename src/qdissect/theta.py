"""Theta functions, q-Pochhammer products, and bilateral quadratic sums.

Everything here evaluates to an exact TruncatedSeries.  The two-variable
theta function is

    f(a, b) = sum over all integers n of a^(n(n+1)/2) * b^(n(n-1)/2),

taken at signed monomial arguments a = +-q^r, b = +-q^s with r + s >= 1.
Its product form (the triple product) is f(a, b) = (-a; ab) (-b; ab) (ab; ab),
each factor an infinite product expanded lazily to the truncation order.
phi, psi and the bilateral sums bsum are special values of f and are
built by theta_f, in signed bytes: every coefficient lies in [-2, 2].

The expression evaluator replaces Pochhammer products by these sparse
series through four consequences of the triple product, stated in the
"Theta normal form" section of qexpr.  Each f with r, s >= 1 has
constant term 1, so it may be inverted; pochhammer stays for the factors
no rule covers, and as the oracle.

qexpr's AST nodes, SignedMonomial, PochhammerFactor and combinatorics'
PartClassSpec are Values: immutable, their fields the class's __slots__
in order, and interned, so equal values are one object, == and hash are
identity (O(1) however deep a tree is), and _check runs once per value.
The claim kinds, records and reports of identities and combinatorics are
Records: immutable too, their fields declared as annotations, but not
interned, so == and hash compare the fields.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import add, sub

from .series import EvaluationError, TruncatedSeries


class InvalidThetaArgument(EvaluationError):
    """Theta arguments must satisfy exponent(a) + exponent(b) >= 1."""


class NegativeExponent(EvaluationError):
    """An operation produced a term with a negative q-exponent."""


class InvalidParameters(EvaluationError):
    """Parameters outside the documented domain."""


class InvalidFactor(EvaluationError):
    """A Pochhammer factor or a phi/psi argument outside its domain: a
    modulus below 1, the vanishing factor (q^0; q^m), or a scale below 1."""


class _Frozen:
    """Fields named by the class's __slots__, in order, that refuse
    assignment, and the repr Cls(field=value, ...)."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


_INTERNED: dict[tuple, "Value"] = {}


class Value(_Frozen):
    """An interned immutable value (see the module docstring)."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _INTERNED.get(key)
        if self is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes the fields {cls.__slots__}")
            self = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(self, name, value)
            self._check()
            self = _INTERNED.setdefault(key, self)
        return self

    def _check(self) -> None:
        """Raise if the fields are outside the class's domain."""


_REQUIRED = object()  # the default of a Record field that has none


class _RecordType(type):
    """Makes a Record class's annotated names its __slots__, in order, and
    their values in the class body its _defaults, _REQUIRED where none."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = tuple(namespace.pop(f, _REQUIRED) for f in fields)
        namespace["__slots__"] = fields
        cls = super().__new__(mcls, name, bases, namespace)
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        return cls


class Record(_Frozen, metaclass=_RecordType):
    """An immutable record, declared like a dataclass: each annotated
    name is a field, a value given in the class body its default.  It is
    built from positional and keyword fields, and == and hash compare the
    fields of two records of one class (see the module docstring).  No
    method is generated, so defining the class compiles nothing."""

    def __new__(cls, *args, **kw):
        tail = cls._defaults[len(args):]
        if kw or _REQUIRED in tail or len(args) > len(cls._defaults):
            return cls._make(cls._bind(args, kw))
        return cls._make(args + tail)

    @classmethod
    def _make(cls, fields):
        """The record of a sequence of all its fields in order, built with
        no binding: the fast path of the constructor."""
        self = object.__new__(cls)
        for set_field, value in zip(cls._setters, fields):
            set_field(self, value)
        return self

    @classmethod
    def _bind(cls, args: tuple, kw: dict) -> list:
        """The fields in order: args, then each keyword in its place, then
        the defaults."""
        names = cls.__slots__
        values = [*args, *cls._defaults[len(args):]]
        if kw.keys() <= set(names[len(args):]):
            for name, value in kw.items():
                values[names.index(name)] = value
            if len(values) == len(names) and _REQUIRED not in values[len(args):]:
                return values
        optional = tuple(n for n, d in zip(names, cls._defaults) if d is not _REQUIRED)
        raise TypeError(f"{cls.__name__} takes the fields {names}, optional {optional}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class SignedMonomial(Value):
    """+-q^e with e >= 0; sign is +1 or -1."""

    __slots__ = ("sign", "exponent")

    def _check(self) -> None:
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


def check_order(order: int) -> None:
    """The domain of every truncation order: order >= 0."""
    if order < 0:
        raise InvalidParameters(f"order must be nonnegative, got {order}")


def check_scale(name: str, scale: int) -> None:
    """The domain of phi(q^k) and psi(q^k), named by `name`: k >= 1."""
    if scale < 1:
        raise InvalidFactor(f"{name} needs a positive power of q")


class PochhammerFactor(Value):
    """One factor (+-q^r; q^m)_inf of an infinite product.  Its domain: the
    modulus is positive and the factor is not (q^0; q^m), which vanishes
    identically."""

    __slots__ = ("arg", "modulus")

    def _check(self) -> None:
        if self.modulus < 1:
            raise InvalidFactor(f"modulus must be positive, got {self.modulus}")
        if self.arg.sign == 1 and self.arg.exponent == 0:
            raise InvalidFactor("(q^0; q^m)_inf is identically zero")


@lru_cache(maxsize=None)
def pochhammer(factor: PochhammerFactor, order: int) -> TruncatedSeries:
    """Expand (+-q^r; q^m)_inf to the given order.

    The factors (1 -+ q^(r+nm)) are multiplied in by
    _product_signed_base, one slice map each, as jtp_product does, so the
    whole expansion costs O(order^2 / m) integer operations.
    """
    check_order(order)
    cs = [0] * (order + 1)
    cs[0] = 1
    _product_signed_base(cs, factor.arg, SignedMonomial(1, factor.modulus), order)
    return TruncatedSeries._of(tuple(cs))


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
    r*n(n+1)/2 + s*n(n-1)/2 grows in both directions once |n| >= 1, so
    the sum walks n = 0, 1, 2, ... and n = -1, -2, ... until it passes
    the order; it takes each value at most twice, so bytes hold the sum.
    """
    check_order(order)
    _theta_validate(a, b)
    cs = array("b", bytes(order + 1))
    written = set()
    for n, step in ((0, 1), (-1, -1)):
        while True:
            t1, t2 = n * (n + 1) // 2, n * (n - 1) // 2
            e = a.exponent * t1 + b.exponent * t2
            if e > order:
                break
            cs[e] += a.sign ** (t1 & 1) * b.sign ** (t2 & 1)
            written.add(e)
            n += step
    return TruncatedSeries._of(cs, sorted(written))


def _product_signed_base(
    cs: list[int], first: SignedMonomial, base: SignedMonomial, order: int
) -> bool:
    # Multiply cs in place by prod_{n>=0} (1 - first*base^n).  Returns False
    # when some factor is (1 - q^0), i.e. the whole product vanishes.  Each
    # factor (1 - s*q^e) is one slice map: every new coefficient reads only
    # old ones, and e == 0 with s == -1 doubles them all, the (1 + 1) factor.
    e = first.exponent
    s = first.sign
    while e <= order:
        if e == 0 and s == 1:
            return False
        cs[e:] = map(sub if s > 0 else add, cs[e:], cs[:len(cs) - e])
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
    check_order(order)
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
    check_scale("phi", scale)
    q_k = SignedMonomial(1, scale)
    return theta_f(q_k, q_k, order)


def psi(scale: int, order: int) -> TruncatedSeries:
    """psi(q^k) = sum_{n>=0} q^(k n(n+1)/2), the theta value f(q^k, q^(3k))."""
    check_scale("psi", scale)
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
