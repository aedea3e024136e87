"""Expression language for q-series: AST, parser, renderer, evaluator.

Grammar (whitespace-insensitive):

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-" factor | atom ("^" int)?
    atom     := int | monomial | poch | theta
              | "phi(" monomial ")" | "psi(" monomial ")"
              | "bsum(" int "," int ")" | "(" expr ")"
    poch     := "(" smono ("," smono)* ";" monomial ")_inf"
    theta    := "f(" smono "," smono ")"
    smono    := ("-")? (monomial | "1")
    monomial := "q" ("^" uint)?

A smono written as "1" or "-1" is the zero-exponent monomial, so theta
arguments like f(1, q^40) are expressible.  Rendering is canonical and
reparses to a structurally equal tree.

evaluate() lowers each product to a theta normal form (see the section of
that name below) and cross_multiplied() checks an equality as lhs * D ==
rhs * D, D the common denominator, whose constant term is +-1 because
only bases with constant term +-1 take negative powers.  evaluate_direct()
evaluates node by node, every Pochhammer factor expanded and every
quotient inverted: the oracle for both.
"""

from __future__ import annotations

import operator
import string
import sys
from dataclasses import dataclass, field
from functools import lru_cache, reduce

from .series import TruncatedSeries
from .theta import (
    InvalidParameters,
    NegativeExponent,
    SignedMonomial,
    PochhammerFactor,
    bsum,
    phi,
    pochhammer,
    psi,
    theta_f,
)


class ParseError(ValueError):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at position {position}: expected {expected}, found {found}")


class InvalidFactor(ValueError):
    """A Pochhammer argument that makes the product meaningless, e.g. q^0."""


class InvalidFamilyParameters(ValueError):
    """Family parameters outside 0 < r < t, 0 < s < 2t, s != t."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Monomial:
    coefficient: int
    exponent: int


@dataclass(frozen=True)
class Poch:
    args: tuple[SignedMonomial, ...]
    modulus: int

    def __post_init__(self) -> None:
        if not self.args:
            raise InvalidFactor("empty Pochhammer argument list")
        if self.modulus < 1:
            raise InvalidFactor(f"modulus must be positive, got {self.modulus}")
        for a in self.args:
            if a.sign == 1 and a.exponent == 0:
                raise InvalidFactor("(q^0; q^m)_inf is identically zero")


@dataclass(frozen=True)
class ThetaF:
    a: SignedMonomial
    b: SignedMonomial


@dataclass(frozen=True)
class Phi:
    scale: int


@dataclass(frozen=True)
class Psi:
    scale: int


@dataclass(frozen=True)
class BSum:
    quad: int
    lin: int


@dataclass(frozen=True)
class Add:
    left: "QExpr"
    right: "QExpr"


@dataclass(frozen=True)
class Sub:
    left: "QExpr"
    right: "QExpr"


@dataclass(frozen=True)
class Mul:
    left: "QExpr"
    right: "QExpr"


@dataclass(frozen=True)
class Div:
    left: "QExpr"
    right: "QExpr"


@dataclass(frozen=True)
class Neg:
    operand: "QExpr"


@dataclass(frozen=True)
class Pow:
    base: "QExpr"
    exponent: int


QExpr = (
    IntLit | Monomial | Poch | ThetaF | Phi | Psi | BSum
    | Add | Sub | Mul | Div | Neg | Pow
)


# ---------------------------------------------------------------------------
# Lexer

_SYMBOLS = "+-*/^(),;"


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "sym", "inf", "end"
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in string.digits:
            j = i
            while j < n and text[j] in string.digits:
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c == "_":
            if text[i : i + 4] == "_inf":
                tokens.append(_Token("inf", "_inf", i))
                i += 4
                continue
            raise ParseError(i, "'_inf'", repr(text[i : i + 4]))
        if c in string.ascii_letters:
            j = i
            while j < n and text[j] in string.ascii_letters:
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            tokens.append(_Token("sym", c, i))
            i += 1
            continue
        raise ParseError(i, "a token", repr(c))
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent with backtracking at the poch/group fork)

# Deepest expression parse() accepts.  Each binary operator, unary minus,
# power and parenthesised group adds one level above the atoms.  The
# evaluator, the renderer and node hashing recurse once per level, so the
# bound keeps them, and the parser itself, inside Python's recursion
# limit.  The deepest registry expression has depth 12.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.groups = 0  # parenthesised groups open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, expected: str) -> ParseError:
        t = self.peek()
        found = repr(t.text) if t.kind != "end" else "end of input"
        return ParseError(t.pos, expected, found)

    def eat_sym(self, s: str) -> None:
        t = self.peek()
        if t.kind == "sym" and t.text == s:
            self.advance()
            return
        raise self.fail(f"'{s}'")

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def nest(self, pos: int, *depths: int) -> int:
        """Depth of a node one level above `depths`, at most MAX_DEPTH."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(pos, f"nesting depth at most {MAX_DEPTH}", f"depth {depth}")
        return depth

    # expr, term, factor and atom return (node, depth).

    def expr(self) -> tuple[QExpr, int]:
        node, depth = self.term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance()
            rhs, rhs_depth = self.term()
            node = Add(node, rhs) if op.text == "+" else Sub(node, rhs)
            depth = self.nest(op.pos, depth, rhs_depth)
        return node, depth

    def term(self) -> tuple[QExpr, int]:
        node, depth = self.factor()
        while self.at_sym("*") or self.at_sym("/"):
            op = self.advance()
            rhs, rhs_depth = self.factor()
            node = Mul(node, rhs) if op.text == "*" else Div(node, rhs)
            depth = self.nest(op.pos, depth, rhs_depth)
        return node, depth

    def factor(self) -> tuple[QExpr, int]:
        # Leading minus signs are collected in a loop, not by recursion,
        # and applied outermost: -q^2 is -(q^2).
        minus = []
        while self.at_sym("-"):
            minus.append(self.advance().pos)
        node, depth = self.atom()
        if self.at_sym("^"):
            pos = self.advance().pos
            node, depth = Pow(node, self.signed_int()), self.nest(pos, depth)
        for pos in reversed(minus):
            node, depth = Neg(node), self.nest(pos, depth)
        return node, depth

    def integer(self, t: _Token) -> int:
        """The value of int token t.  A token longer than the interpreter's
        int-string conversion limit is a ParseError at its position."""
        try:
            return int(t.text)
        except ValueError:
            raise ParseError(
                t.pos,
                f"an integer of at most {sys.get_int_max_str_digits()} digits",
                f"{len(t.text)} digits",
            ) from None

    def signed_int(self) -> int:
        neg = False
        if self.at_sym("-"):
            self.advance()
            neg = True
        t = self.peek()
        if t.kind != "int":
            raise self.fail("an integer")
        self.advance()
        v = self.integer(t)
        return -v if neg else v

    def uint(self) -> int:
        t = self.peek()
        if t.kind != "int":
            raise self.fail("an unsigned integer")
        self.advance()
        return self.integer(t)

    def monomial_exponent(self) -> int:
        t = self.peek()
        if not (t.kind == "name" and t.text == "q"):
            raise self.fail("'q'")
        self.advance()
        if self.at_sym("^"):
            self.advance()
            return self.uint()
        return 1

    def smono(self) -> SignedMonomial:
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        t = self.peek()
        if t.kind == "int" and t.text == "1":
            self.advance()
            return SignedMonomial(sign, 0)
        return SignedMonomial(sign, self.monomial_exponent())

    def atom(self) -> tuple[QExpr, int]:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return IntLit(self.integer(t)), 1
        if t.kind == "name":
            if t.text == "q":
                return Monomial(1, self.monomial_exponent()), 1
            if t.text == "f":
                self.advance()
                self.eat_sym("(")
                a = self.smono()
                self.eat_sym(",")
                b = self.smono()
                self.eat_sym(")")
                return ThetaF(a, b), 1
            if t.text in ("phi", "psi"):
                self.advance()
                self.eat_sym("(")
                scale = self.monomial_exponent()
                self.eat_sym(")")
                if scale < 1:
                    raise InvalidFactor(f"{t.text} needs a positive power of q")
                return (Phi(scale) if t.text == "phi" else Psi(scale)), 1
            if t.text == "bsum":
                self.advance()
                self.eat_sym("(")
                a = self.signed_int()
                self.eat_sym(",")
                b = self.signed_int()
                self.eat_sym(")")
                return BSum(a, b), 1
            raise self.fail("'q', 'f', 'phi', 'psi', or 'bsum'")
        if self.at_sym("("):
            mark = self.i
            try:
                return self.poch(), 1
            except ParseError:
                self.i = mark
            pos = self.advance().pos
            self.groups = self.nest(pos, self.groups)
            node, depth = self.expr()
            self.groups -= 1
            self.eat_sym(")")
            return node, self.nest(pos, depth)
        raise self.fail("an integer, 'q', 'f(', 'phi(', 'psi(', 'bsum(', or '('")

    def poch(self) -> Poch:
        self.eat_sym("(")
        args = [self.smono()]
        while self.at_sym(","):
            self.advance()
            args.append(self.smono())
        self.eat_sym(";")
        modulus = self.monomial_exponent()
        self.eat_sym(")")
        t = self.peek()
        if t.kind != "inf":
            raise self.fail("'_inf'")
        self.advance()
        return Poch(tuple(args), modulus)


def parse(text: str) -> QExpr:
    """Parse expression text into an AST; raises ParseError with position,
    also for nesting deeper than MAX_DEPTH."""
    p = _Parser(_lex(text))
    node, _ = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(t.pos, "end of input", repr(t.text))
    return node


# ---------------------------------------------------------------------------
# Renderer

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _mono_text(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def _smono_text(m: SignedMonomial) -> str:
    head = "-" if m.sign < 0 else ""
    return head + ("1" if m.exponent == 0 else _mono_text(m.exponent))


def _prec(e: QExpr) -> int:
    """Precedence of a node's rendered text, judged by the text's
    outermost operator: a scaled monomial prints as a product and a
    negative literal prints with a leading minus, whatever the node is."""
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Monomial) and e.coefficient != 1:
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, IntLit) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e: QExpr, minimum: int) -> str:
    text = render(e)
    return f"({text})" if _prec(e) < minimum else text


def render(e: QExpr) -> str:
    """Canonical text form; parse(render(e)) is structurally equal to e
    for any tree the parser itself can produce."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Monomial):
        body = _mono_text(e.exponent)
        if e.coefficient == 1:
            return body
        return f"{e.coefficient}*{body}"
    if isinstance(e, Poch):
        args = ",".join(_smono_text(a) for a in e.args)
        return f"({args};{_mono_text(e.modulus)})_inf"
    if isinstance(e, ThetaF):
        return f"f({_smono_text(e.a)},{_smono_text(e.b)})"
    if isinstance(e, Phi):
        return f"phi({_mono_text(e.scale)})"
    if isinstance(e, Psi):
        return f"psi({_mono_text(e.scale)})"
    if isinstance(e, BSum):
        return f"bsum({e.quad},{e.lin})"
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, _PREC_NEG)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    raise TypeError(f"not a QExpr node: {e!r}")


# ---------------------------------------------------------------------------
# Theta normal form
#
# A product-shaped node (Mul, Div, Pow, Neg, Poch) lowers to an exponent
# vector: sign * q^shift * product of base^power over integer powers.  A
# base is a theta f(a, b) (a canonical ThetaF node), a Pochhammer factor
# (+-q^r; q^m) that no rule below lowers (a one-argument Poch node), an
# integer literal other than +-1, or an opaque node (a sum, or a power the
# vector may not take), evaluated term by term.  The rules, by the triple
# product f(a, b) = (-a; ab)(-b; ab)(ab; ab):
#
#   (s q^r, s q^(m-r); q^m) = f(-s q^r, -s q^(m-r)) / (q^m; q^m), 0 < r < m
#   (q^m; q^m)              = f(-q^m, -q^(2m))   (the pentagonal theorem)
#   (q^(m/2); q^m)          = (q^(m/2); q^(m/2)) / (q^m; q^m)
#   phi(q^k), psi(q^k), bsum(A, B) = f(q^k, q^k), f(q^k, q^(3k)),
#                                    f(q^(A+B), q^(A-B))
#
# A negative power is taken only of a vector whose every base has constant
# term +-1, with no shift, so its series is a unit and the term-by-term path
# could invert it too; otherwise the power stays an opaque node and raises
# there exactly as the term-by-term path does.  Thetas are sparse, so a
# vector is evaluated sparse factors first, with one inverse for all its
# negative powers.


def _theta(a: SignedMonomial, b: SignedMonomial) -> ThetaF:
    # f(a, b) = f(b, a): one key for both orders.
    return ThetaF(a, b) if (a.exponent, a.sign) <= (b.exponent, b.sign) else ThetaF(b, a)


def _eta(m: int) -> ThetaF:
    """(q^m; q^m)_inf as the theta f(-q^m, -q^(2m))."""
    return ThetaF(SignedMonomial(-1, m), SignedMonomial(-1, 2 * m))


def _unit_base(base: QExpr) -> bool:
    """Whether a base's series has constant term +-1.  A theta or a
    Pochhammer factor none of whose arguments is +-1 has constant term 1;
    an argument 1 or -1 makes it 2 or 0.  Literals and opaque bases are
    not taken to be units."""
    if isinstance(base, ThetaF):
        return min(base.a.exponent, base.b.exponent) > 0
    return isinstance(base, Poch) and base.args[0].exponent > 0


class _Product:
    """sign * q^shift * product of base^power; powers keep first-occurrence
    order, so opaque bases are evaluated, and raise, left to right."""

    __slots__ = ("sign", "shift", "powers")

    def __init__(self, sign: int = 1, shift: int = 0, powers: dict[QExpr, int] | None = None):
        self.sign = sign
        self.shift = shift
        self.powers = {} if powers is None else powers

    def add(self, base: QExpr, k: int) -> None:
        self.powers[base] = self.powers.get(base, 0) + k

    def times(self, other: "_Product") -> "_Product":
        out = _Product(self.sign * other.sign, self.shift + other.shift, dict(self.powers))
        for base, k in other.powers.items():
            out.add(base, k)
        return out

    def power(self, k: int) -> "_Product":
        sign = -1 if self.sign < 0 and k & 1 else 1
        return _Product(sign, self.shift * k, {b: p * k for b, p in self.powers.items()})

    def is_unit(self) -> bool:
        return self.shift == 0 and all(map(_unit_base, self.powers))

    def series(self, order: int) -> TruncatedSeries:
        num: list[TruncatedSeries] = []
        den: list[TruncatedSeries] = []
        for base, k in self.powers.items():
            if k:
                s = _eval(base if abs(k) == 1 else Pow(base, abs(k)), order)
                (num if k > 0 else den).append(s)
        if den:
            num.append(_sparse_first_product(den) ** -1)
        result = _sparse_first_product(num) if num else TruncatedSeries.one(order)
        if self.shift:
            cs = result.coeffs
            result = TruncatedSeries(((0,) * min(self.shift, order + 1) + cs)[: order + 1])
        return -result if self.sign < 0 else result


def _sparse_first_product(factors: list[TruncatedSeries]) -> TruncatedSeries:
    # Sparse operands first, so that products of thetas stay on the
    # term-pair path of the multiply as long as they can.
    factors.sort(key=lambda s: s.order + 1 - s.coeffs.count(0))
    return reduce(operator.mul, factors)


def _collect(e: QExpr) -> _Product:
    """The exponent vector of a node, before the Pochhammer rules."""
    if isinstance(e, IntLit):
        return _Product(e.value) if e.value in (1, -1) else _Product(powers={e: 1})
    if isinstance(e, Monomial):
        return _Product(shift=e.exponent).times(_collect(IntLit(e.coefficient)))
    if isinstance(e, Poch):
        out = _Product()
        for a in e.args:
            out.add(Poch((a,), e.modulus), 1)
        return out
    if isinstance(e, ThetaF) and e.a.exponent + e.b.exponent >= 1:
        return _Product(powers={_theta(e.a, e.b): 1})
    if isinstance(e, (Phi, Psi)) and e.scale >= 1:
        q_k = SignedMonomial(1, e.scale)
        other = q_k if isinstance(e, Phi) else SignedMonomial(1, 3 * e.scale)
        return _Product(powers={_theta(q_k, other): 1})
    if isinstance(e, BSum) and e.quad >= max(1, abs(e.lin)):
        a, b = SignedMonomial(1, e.quad + e.lin), SignedMonomial(1, e.quad - e.lin)
        return _Product(powers={_theta(a, b): 1})
    if isinstance(e, Mul):
        return _collect(e.left).times(_collect(e.right))
    if isinstance(e, Div):
        return _collect(e.left).times(_collect(Pow(e.right, -1)))
    if isinstance(e, Neg):
        return _Product(-1).times(_collect(e.operand))
    if isinstance(e, Pow) and e.exponent != 0:
        base = _collect(e.base)
        if e.exponent > 0 or base.is_unit():
            return base.power(e.exponent)
    return _Product(powers={e: 1})


def _lower(e: QExpr) -> _Product:
    """The theta normal form of a node: its exponent vector with every
    Pochhammer rule applied."""
    p = _collect(e)
    poch: dict[tuple[int, int, int], int] = {}
    out = _Product(p.sign, p.shift)
    for base, k in p.powers.items():
        if isinstance(base, Poch):
            poch[(base.args[0].sign, base.args[0].exponent, base.modulus)] = k
        else:
            out.add(base, k)
    for (s, r, m), k in poch.items():
        if not k:
            continue
        if s == 1 and (r == m or 2 * r == m):  # (q^m; q^m), or the lone q^(m/2)
            out.add(_eta(r), k)
            if r < m:
                out.add(_eta(m), -k)
            poch[(s, r, m)] = 0
        elif 0 < r < m:  # a complementary pair, or (-q^(m/2); q^m)^2
            partner = (s, m - r, m)
            j = poch[partner] if partner in poch else 0
            c = min(abs(k), abs(j)) if k * j > 0 else 0
            if 2 * r == m:
                c = abs(k) // 2
            if c:
                c = c if k > 0 else -c
                out.add(_theta(SignedMonomial(-s, r), SignedMonomial(-s, m - r)), c)
                out.add(_eta(m), -c)
                poch[(s, r, m)] -= c
                poch[partner] -= c
    for (s, r, m), k in poch.items():
        if k:
            out.add(Poch((SignedMonomial(s, r),), m), k)
    return out


def _terms(e: QExpr) -> list[_Product]:
    """e as a sum of theta normal forms."""
    if isinstance(e, (Add, Sub)):
        right = _terms(e.right)
        if isinstance(e, Sub):
            right = [_Product(-1).times(t) for t in right]
        return _terms(e.left) + right
    return [_lower(e)]


def cross_multiplied(lhs: QExpr, rhs: QExpr, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """lhs * D and rhs * D, D the common denominator of every term of both
    sides (each base to the largest negative power any term gives it).

    Every term times D has only nonnegative powers, so neither side is
    inverted.  Only bases with constant term +-1 take negative powers, so
    D's constant term is +-1: D is a unit, and lhs * D == rhs * D to the
    order exactly when lhs == rhs to the order.  With no negative power
    anywhere, D = 1 and the sides are evaluated whole, through the cache.
    """
    sides = _terms(lhs), _terms(rhs)
    d = _Product()
    for term in sides[0] + sides[1]:
        for base, k in term.powers.items():
            if k < 0 and -k > d.powers.get(base, 0):
                d.powers[base] = -k
    if not d.powers:
        return _eval(lhs, order), _eval(rhs, order)
    return tuple(
        reduce(operator.add, (t.times(d).series(order) for t in side)) for side in sides
    )


# ---------------------------------------------------------------------------
# Evaluator


def _power(base: TruncatedSeries, k: int) -> TruncatedSeries:
    if k < 0 and base.coeffs[0] == 0:
        raise NegativeExponent(
            "a negative power of a series with zero constant term needs q^-1 terms"
        )
    return base ** k


def _direct(e: QExpr, order: int, sub) -> TruncatedSeries:
    """One node by the term-by-term rules, its children through sub:
    Pochhammer factors expanded, quotients and negative powers inverted."""
    if isinstance(e, IntLit):
        return TruncatedSeries.monomial(0, order, e.value)
    if isinstance(e, Monomial):
        return TruncatedSeries.monomial(e.exponent, order, e.coefficient)
    if isinstance(e, Poch):
        factors = [pochhammer(PochhammerFactor(a, e.modulus), order) for a in e.args]
        return reduce(operator.mul, factors)
    if isinstance(e, ThetaF):
        return theta_f(e.a, e.b, order)
    if isinstance(e, Phi):
        return phi(e.scale, order)
    if isinstance(e, Psi):
        return psi(e.scale, order)
    if isinstance(e, BSum):
        return bsum(e.quad, e.lin, order)
    if isinstance(e, Add):
        return sub(e.left, order) + sub(e.right, order)
    if isinstance(e, Sub):
        return sub(e.left, order) - sub(e.right, order)
    if isinstance(e, Mul):
        return sub(e.left, order) * sub(e.right, order)
    if isinstance(e, Div):
        return sub(e.left, order) * _power(sub(e.right, order), -1)
    if isinstance(e, Neg):
        return -sub(e.operand, order)
    if isinstance(e, Pow):
        return _power(sub(e.base, order), e.exponent)
    raise TypeError(f"not a QExpr node: {e!r}")


_PRODUCT_NODES = (Mul, Div, Pow, Neg, Poch)


@lru_cache(maxsize=4096)
def _eval(e: QExpr, order: int) -> TruncatedSeries:
    """Series of a node, memoized per (node, order).  A product-shaped node
    is evaluated from its theta normal form, unless that form is the node
    itself (an opaque node, or one base to one power, which the normal
    form's series asks for); every other node by _direct."""
    if isinstance(e, _PRODUCT_NODES):
        product = _lower(e)
        own = [{e: 1}, {e.base: e.exponent}] if isinstance(e, Pow) else [{e: 1}]
        if product.sign != 1 or product.shift or product.powers not in own:
            return product.series(order)
    return _direct(e, order, _eval)


def evaluate(e: QExpr, order: int) -> TruncatedSeries:
    """Lower an expression to an exact TruncatedSeries at the given order."""
    if order < 0:
        raise InvalidParameters(f"order must be nonnegative, got {order}")
    return _eval(e, order)


def evaluate_direct(e: QExpr, order: int) -> TruncatedSeries:
    """e by the term-by-term rules alone, no normal form and no cache: the
    oracle the theta normal form is tested against."""
    return _direct(e, order, evaluate_direct)


def evaluate_text(text: str, order: int) -> TruncatedSeries:
    return evaluate(parse(text), order)


# ---------------------------------------------------------------------------
# Two-parameter product families


def _family_validate(r: int, s: int, t: int) -> None:
    if not (0 < r < t and 0 < s < 2 * t and s != t):
        raise InvalidFamilyParameters(
            f"need 0 < r < t, 0 < s < 2t, s != t; got r={r}, s={s}, t={t}"
        )


def family_g(r: int, s: int, t: int) -> QExpr:
    """(-q^r, -q^(t-r); q^t)^3 (q^s, q^(2t-s); q^(2t))."""
    _family_validate(r, s, t)
    cubed = Poch((SignedMonomial(-1, r), SignedMonomial(-1, t - r)), t)
    single = Poch((SignedMonomial(1, s), SignedMonomial(1, 2 * t - s)), 2 * t)
    return Mul(Pow(cubed, 3), single)


def family_h(r: int, s: int, t: int) -> QExpr:
    """(-q^r, -q^(t-r); q^t) (q^s, q^(2t-s); q^(2t))^3."""
    _family_validate(r, s, t)
    single = Poch((SignedMonomial(-1, r), SignedMonomial(-1, t - r)), t)
    cubed = Poch((SignedMonomial(1, s), SignedMonomial(1, 2 * t - s)), 2 * t)
    return Mul(single, Pow(cubed, 3))
