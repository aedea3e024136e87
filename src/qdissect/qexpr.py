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
reparses to the same tree, one object, since nodes are interned.

evaluate() lowers each product to a theta normal form (see the section of
that name below), and adds the terms of a sum into one list (see "Sums"
below).  cross_multiplied() takes the columns dissect(e, k, l) that every
claim compares, inverting no side (see "Columns" below).
evaluate_direct() evaluates node by node, every Pochhammer factor
expanded and every quotient inverted, and adds series by + and -: the
oracle for all of them.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from functools import lru_cache, reduce

from .series import TruncatedSeries, add_product_into, check_power, divide, product, product_residue
from .theta import (
    InvalidFactor,
    NegativeExponent,
    PochhammerFactor,
    SignedMonomial,
    Value,
    bsum,
    check_order,
    check_scale,
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


class InvalidFamilyParameters(ValueError):
    """Family parameters outside 0 < r < t, 0 < s < 2t, s != t."""


# ---------------------------------------------------------------------------
# AST: every node is an interned theta.Value, so equal trees are one
# object and hashing or comparing a node never descends into it.


class IntLit(Value):
    __slots__ = ("value",)


class Monomial(Value):
    __slots__ = ("coefficient", "exponent")


class Poch(Value):
    __slots__ = ("args", "modulus")  # a tuple of SignedMonomials, an int

    def _check(self) -> None:
        if not self.args:
            raise InvalidFactor("empty Pochhammer argument list")
        for a in self.args:
            PochhammerFactor(a, self.modulus)  # checks the factor's domain


class ThetaF(Value):
    __slots__ = ("a", "b")  # SignedMonomials


class Phi(Value):
    __slots__ = ("scale",)


class Psi(Value):
    __slots__ = ("scale",)


class BSum(Value):
    __slots__ = ("quad", "lin")


class Add(Value):
    __slots__ = ("left", "right")


class Sub(Value):
    __slots__ = ("left", "right")


class Mul(Value):
    __slots__ = ("left", "right")


class Div(Value):
    __slots__ = ("left", "right")


class Neg(Value):
    __slots__ = ("operand",)


class Pow(Value):
    __slots__ = ("base", "exponent")


QExpr = (
    IntLit | Monomial | Poch | ThetaF | Phi | Psi | BSum
    | Add | Sub | Mul | Div | Neg | Pow
)


# ---------------------------------------------------------------------------
# Lexer.  A token is its text alone: no text of one kind of token equals
# a text of another, so the parser tells tokens apart by their texts.

_SYMBOLS = "+-*/^(),;"
_DIGITS = "0123456789"
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The tokens of text, and the position where each starts.  A token is
    a run of ASCII digits, a run of ASCII letters, "_inf", or one of
    _SYMBOLS; whitespace only separates tokens, and "" ends the list."""
    tokens: list[str] = []
    starts: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        j = i + 1
        if c == "_":
            if text[i : i + 4] != "_inf":
                raise ParseError(i, "'_inf'", repr(text[i : i + 4]))
            j = i + 4
        elif c not in _SYMBOLS:
            run = _DIGITS if c in _DIGITS else _LETTERS if c in _LETTERS else None
            if run is None:
                raise ParseError(i, "a token", repr(c))
            while j < n and text[j] in run:
                j += 1
        tokens.append(text[i:j])
        starts.append(i)
        i = j
    tokens.append("")
    starts.append(n)
    return tokens, starts


# ---------------------------------------------------------------------------
# Parser (recursive descent with backtracking at the poch/group fork)

# Binary operators: node class and precedence.  A higher precedence binds
# tighter; every operator is left-associative.
_BINARY = {"+": (Add, 1), "-": (Sub, 1), "*": (Mul, 2), "/": (Div, 2)}
_TIGHTEST = max(prec for _, prec in _BINARY.values())

# Deepest expression parse() accepts.  Each binary operator, unary minus,
# power and parenthesised group adds one level above the atoms.  The
# evaluator and the renderer recurse once per level (node hashing does
# not: nodes are interned), so the bound keeps them, and the parser
# itself, inside Python's recursion limit.  The deepest registry expression has depth 12.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the token texts and start positions of _lex:
    an int is known by its first character, a digit, and a name by a
    letter; every other token is matched by its text."""

    def __init__(self, tokens: list[str], starts: list[int]):
        self.tokens = tokens
        self.starts = starts
        self.i = 0
        self.groups = 0  # parenthesised groups open at the current token

    def peek(self) -> str:
        return self.tokens[self.i]

    def advance(self) -> int:
        """Consume the token at the cursor and return where it starts."""
        self.i += 1
        return self.starts[self.i - 1]

    def fail(self, expected: str) -> ParseError:
        t = self.peek()
        return ParseError(self.starts[self.i], expected, repr(t) if t else "end of input")

    def accept(self, s: str) -> bool:
        """Consume the token s (a symbol, 'q', '1' or '_inf') if it is next."""
        if self.tokens[self.i] == s:
            self.i += 1
            return True
        return False

    def eat(self, s: str) -> None:
        if not self.accept(s):
            raise self.fail(f"'{s}'")

    def nest(self, pos: int, *depths: int) -> int:
        """Depth of a node one level above `depths`, at most MAX_DEPTH."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(pos, f"nesting depth at most {MAX_DEPTH}", f"depth {depth}")
        return depth

    # expr, factor and atom return (node, depth).

    def expr(self, level: int = 1) -> tuple[QExpr, int]:
        """Factors joined by binary operators of precedence level or
        tighter."""
        node, depth = self.factor()
        while True:
            cls, prec = _BINARY.get(self.peek(), (None, 0))
            if prec < level:
                return node, depth
            pos = self.advance()
            rhs, rhs_depth = self.factor() if prec == _TIGHTEST else self.expr(prec + 1)
            node, depth = cls(node, rhs), self.nest(pos, depth, rhs_depth)

    def factor(self) -> tuple[QExpr, int]:
        # Leading minus signs are collected in a loop, not by recursion,
        # and applied outermost: -q^2 is -(q^2).
        minus = []
        while self.peek() == "-":
            minus.append(self.advance())
        node, depth = self.atom()
        if self.peek() == "^":
            pos = self.advance()
            node, depth = Pow(node, self.signed_int()), self.nest(pos, depth)
        for pos in reversed(minus):
            node, depth = Neg(node), self.nest(pos, depth)
        return node, depth

    def integer(self, expected: str = "an integer") -> int:
        """The value of the int token at the cursor, consumed.  A token
        longer than the interpreter's int-string conversion limit is a
        ParseError at its position."""
        t = self.peek()
        if not t[:1].isdigit():
            raise self.fail(expected)
        pos = self.advance()
        try:
            return int(t)
        except ValueError:
            raise ParseError(
                pos,
                f"an integer of at most {sys.get_int_max_str_digits()} digits",
                f"{len(t)} digits",
            ) from None

    def signed_int(self) -> int:
        return -self.integer() if self.accept("-") else self.integer()

    def monomial_exponent(self) -> int:
        self.eat("q")
        return self.integer("an unsigned integer") if self.accept("^") else 1

    def smono(self) -> SignedMonomial:
        sign = -1 if self.accept("-") else 1
        return SignedMonomial(sign, 0 if self.accept("1") else self.monomial_exponent())

    # Call atoms: name -> (node class, argument reader, two arguments?).
    CALLS = {
        "f": (ThetaF, smono, True),
        "phi": (Phi, monomial_exponent, False),
        "psi": (Psi, monomial_exponent, False),
        "bsum": (BSum, signed_int, True),
    }

    def atom(self) -> tuple[QExpr, int]:
        t = self.peek()
        if t[:1].isdigit():
            return IntLit(self.integer()), 1
        if t == "q":
            return Monomial(1, self.monomial_exponent()), 1
        if t[:1].isalpha():
            call = self.CALLS.get(t)
            if call is None:
                raise self.fail("'q', 'f', 'phi', 'psi', or 'bsum'")
            cls, read, pair = call
            self.advance()
            self.eat("(")
            args = [read(self)]
            if pair:
                self.eat(",")
                args.append(read(self))
            self.eat(")")
            # Checked after the ")", so a missing ")" stays a ParseError.
            if cls in (Phi, Psi):
                check_scale(t, args[0])
            return cls(*args), 1
        if t == "(":
            mark = self.i
            try:
                return self.poch(), 1
            except ParseError:
                self.i = mark
            pos = self.advance()
            self.groups = self.nest(pos, self.groups)
            node, depth = self.expr()
            self.groups -= 1
            self.eat(")")
            return node, self.nest(pos, depth)
        raise self.fail("an integer, 'q', 'f(', 'phi(', 'psi(', 'bsum(', or '('")

    def poch(self) -> Poch:
        self.eat("(")
        args = [self.smono()]
        while self.accept(","):
            args.append(self.smono())
        self.eat(";")
        modulus = self.monomial_exponent()
        self.eat(")")
        self.eat("_inf")
        return Poch(tuple(args), modulus)


@lru_cache(maxsize=4096)
def parse(text: str) -> QExpr:
    """Parse expression text into an AST, each text once; raises ParseError
    with position, also for nesting deeper than MAX_DEPTH."""
    p = _Parser(*_lex(text))
    node, _ = p.expr()
    if p.peek():
        raise p.fail("end of input")
    return node


# ---------------------------------------------------------------------------
# Renderer

_PREC = {cls: prec for cls, prec in _BINARY.values()} | {Neg: 3, Pow: 4}
_PREC_ATOM = 5
_SYMBOL = {cls: sym for sym, (cls, _) in _BINARY.items()}


def _mono_text(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def _smono_text(m: SignedMonomial) -> str:
    head = "-" if m.sign < 0 else ""
    return head + ("1" if m.exponent == 0 else _mono_text(m.exponent))


def _prec(e: QExpr) -> int:
    """Precedence of a node's rendered text, judged by the text's
    outermost operator: a scaled monomial prints as a product and a
    negative literal prints with a leading minus, whatever the node is."""
    if isinstance(e, Monomial) and e.coefficient != 1:
        return _PREC[Mul]
    if isinstance(e, IntLit) and e.value < 0:
        return _PREC[Neg]
    return _PREC.get(type(e), _PREC_ATOM)


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
    if type(e) in _SYMBOL:
        sym, prec = _SYMBOL[type(e)], _PREC[type(e)]
        if prec < _TIGHTEST:  # sums and differences print spaced
            sym = f" {sym} "
        return f"{_wrap(e.left, prec)}{sym}{_wrap(e.right, prec + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, _PREC[Neg])}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    raise TypeError(f"not a QExpr node: {e!r}")


# ---------------------------------------------------------------------------
# Theta normal form
#
# A product-shaped node (Mul, Div, Pow, Neg, Poch) lowers to an exponent
# vector: c * q^shift * product of base^power over nonzero integer powers,
# c an integer into which lowering folds each literal to the first power.
# Lowering fills one form in place (_collect); only a negative power's
# base is collected apart, to test that its series is a unit.
# A base is a theta f(a, b) (a canonical ThetaF node), a Pochhammer factor
# (+-q^r; q^m) that no rule below lowers (a one-argument Poch node), a
# literal other than +-1 to another power (so it meets the power limit),
# or an opaque node (a sum, or a power the vector may not take), evaluated
# term by term.  The rules, by the triple product
# f(a, b) = (-a; ab)(-b; ab)(ab; ab):
#
#   (s q^r, s q^(m-r); q^m) = f(-s q^r, -s q^(m-r)) / (q^m; q^m), 0 < r < m
#   (q^m; q^m)              = f(-q^m, -q^(2m))   (the pentagonal theorem)
#   (q^(m/2); q^m)          = (q^(m/2); q^(m/2)) / (q^m; q^m)
#   phi(q^k), psi(q^k), bsum(A, B) = f(q^k, q^k), f(q^k, q^(3k)),
#                                    f(q^(A+B), q^(A-B))
#
# A negative power is taken only of a vector whose every base has constant
# term +-1, with no shift, so its series is a unit and the term-by-term path
# could invert it too; else the power stays an opaque node, which raises as
# that path does.  base^k, |k| > 1, is keyed by its pair (base, |k|); thetas
# are sparse, so powers are multiplied sparse first, one quotient (_factors).
#
# Columns.  A claim read on the progression k*n + l needs dissect(e, k, l)
# only to order m = (N - l) // k.  Each term of e splits as A * B(q^k),
# where B holds every theta whose two exponents, and every Pochhammer base
# whose exponent and modulus, are multiples of k (for k = 1, every base).
# Then dissect(A * B(q^k), k, l) = dissect(A, k, l) * B(q).  An A of two
# bases to the first power that takes term pairs sums only its pairs in
# residue l (series.product_residue); any other A (a power or a third base
# is dense in the registry) is evaluated at the claim's order through the
# cache, shared by every residue and claim, and B(q) at order N // k, k
# the largest of the claim's moduli, so every residue shares it too.  When
# A is c*q^s the column is c*B(q) shifted, with no product; either way one
# call adds it, as it adds a sum's terms (see "Sums").  A and B are cached
# under their flat pairs (base, power, base, ...), one tuple: a tuple per
# pair would keep more young objects for the collector to traverse.  The
# columns of a claim are multiplied by the common denominator D of all B
# parts, each base to the largest negative power any term gives it, so no
# side is inverted; D's constant term is +-1, since only bases with
# constant term +-1 take negative powers, so D is a unit with integer
# coefficients and changes neither "=", "= 0" nor "= 0 mod m".  A part
# with k = 1 and D = 1 is evaluated whole, through the cache.  A sign
# pattern needs the exact column, so it keeps B's inverse, at order
# N // k.  Every power a B part holds, also inside a sum, is checked
# against the power limit at N first, as the plain path would check it,
# so a power limit does not depend on the path.  identities falls back to
# the plain path, every text expanded at N and then dissected, whenever
# this check does not hold, so every failure and error is reported from
# the claim's own coefficients.
#
# Sums.  A sum is the list of its terms' normal forms (_terms), and its
# series is one list of order + 1 ints that each term is added into, at its
# shift and times its coefficient, the one place where either is applied: a
# product with a coefficient or a shift is a sum of one term.  Every term
# is added by one call with its _factors (series.add_product_into), and the
# multiply alone chooses how a product of several enters the list.  Terms
# are evaluated left to right, so the leftmost error is the one raised.
# When every term was added over known positions, their union is handed to
# the sum's profile.  The columns of cross_multiplied are summed the same
# way, one list per column.


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
    """coeff * q^shift * product of base^power, coeff an integer (+-1 until
    _lower folds the literals in); powers keep first-occurrence order, so
    opaque bases are evaluated, and raise, left to right."""

    __slots__ = ("coeff", "shift", "powers")

    def __init__(self, coeff: int = 1, shift: int = 0):
        self.coeff = coeff
        self.shift = shift
        self.powers: dict[QExpr, int] = {}

    def add(self, base: QExpr, k: int) -> None:
        self.powers[base] = self.powers.get(base, 0) + k

    def is_unit(self) -> bool:
        return self.shift == 0 and all(map(_unit_base, self.powers))


def _factors(powers: dict[QExpr, int], order: int) -> list[TruncatedSeries]:
    """The series of base^power at the order: the positive powers, divided as
    one quotient by the negative ones' product; coefficient and shift are _sum's."""
    num: list[TruncatedSeries] = []
    den: list[TruncatedSeries] = []
    for base, k in powers.items():
        (num if k > 0 else den).append(_eval(base if abs(k) == 1 else (base, abs(k)), order))
    if den:
        return [divide(product(num), product(den))] if num else [product(den) ** -1]
    return num


def _product(powers: dict[QExpr, int], order: int) -> TruncatedSeries:
    """The product of the _factors (series.product), or 1."""
    return product(_factors(powers, order) or [TruncatedSeries.one(order)])


def _collect(e: QExpr, k: int = 1, out: _Product | None = None) -> _Product:
    """out times e^k, filled in place (a new form when out is not given):
    the exponent vector of a node, before the Pochhammer rules."""
    if out is None:
        out = _Product()
    if isinstance(e, IntLit) and e.value in (1, -1):
        out.coeff *= e.value ** (k & 1)
    elif isinstance(e, Monomial):
        out.shift += e.exponent * k
        _collect(IntLit(e.coefficient), k, out)
    elif isinstance(e, Poch):
        for a in e.args:
            out.add(Poch((a,), e.modulus), k)
    elif isinstance(e, ThetaF) and e.a.exponent + e.b.exponent >= 1:
        out.add(_theta(e.a, e.b), k)
    elif isinstance(e, (Phi, Psi)) and e.scale >= 1:
        q_k = SignedMonomial(1, e.scale)
        other = q_k if isinstance(e, Phi) else SignedMonomial(1, 3 * e.scale)
        out.add(_theta(q_k, other), k)
    elif isinstance(e, BSum) and e.quad >= max(1, abs(e.lin)):
        out.add(_theta(SignedMonomial(1, e.quad + e.lin), SignedMonomial(1, e.quad - e.lin)), k)
    elif isinstance(e, (Mul, Div)):
        _collect(e.left, k, out)
        _collect(e.right if isinstance(e, Mul) else Pow(e.right, -1), k, out)
    elif isinstance(e, Neg):
        out.coeff *= (-1) ** (k & 1)
        _collect(e.operand, k, out)
    elif isinstance(e, Pow) and (e.exponent > 0 or e.exponent < 0 and _collect(e.base).is_unit()):
        _collect(e.base, e.exponent * k, out)
    else:
        out.add(e, k)
    return out


def _lower(e: QExpr) -> _Product:
    """The theta normal form of a node: its exponent vector with every
    Pochhammer rule applied, each literal to the first power folded into
    the coefficient, and no power 0."""
    p = _collect(e)
    poch: dict[tuple[int, int, int], int] = {}
    out = _Product(p.coeff, p.shift)
    for base, k in p.powers.items():
        if isinstance(base, Poch):
            poch[(base.args[0].sign, base.args[0].exponent, base.modulus)] = k
        elif isinstance(base, IntLit) and k == 1:
            out.coeff *= base.value
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
        out.add(Poch((SignedMonomial(s, r),), m), k)
    out.powers = {base: k for base, k in out.powers.items() if k}
    return out


def _terms(e: QExpr) -> list[_Product]:
    """e as a sum of theta normal forms."""
    if isinstance(e, (Add, Sub)):
        right = _terms(e.right)
        if isinstance(e, Sub):
            for t in right:
                t.coeff = -t.coeff
        return _terms(e.left) + right
    return [_lower(e)]


def _reduced(base: QExpr, k: int) -> QExpr | None:
    """The base B with base(q) = B(q^k), or None.  For k = 1 every base is
    its own B.  For k > 1 only a theta whose two exponents, or a Pochhammer
    factor whose exponent and modulus, are multiples of k has one: the
    same base with those exponents divided by k."""
    if k == 1:
        return base
    if isinstance(base, ThetaF):
        a, b = base.a, base.b
        if a.exponent % k == 0 == b.exponent % k:
            return _theta(SignedMonomial(a.sign, a.exponent // k),
                          SignedMonomial(b.sign, b.exponent // k))
    elif isinstance(base, Poch):
        (a,) = base.args
        if a.exponent % k == 0 == base.modulus % k:
            return Poch((SignedMonomial(a.sign, a.exponent // k),), base.modulus // k)
    return None


def _split(term: _Product, k: int) -> tuple[_Product, _Product]:
    """term = A * B(q^k): A keeps the coefficient, shift and every base that
    is not a series in q^k; B(q) holds the others, as _reduced gives them."""
    a, b = _Product(term.coeff, term.shift), _Product()
    for base, p in term.powers.items():
        reduced = _reduced(base, k)
        if reduced is None:
            a.add(base, p)
        else:
            b.add(reduced, p)
    return a, b


def _check_powers(powers: dict[QExpr, int], order: int) -> None:
    """Raise LimitExceeded where evaluating these powers at the order
    would: at each base to a power other than +-1, and at the powers
    inside a sum or an opaque power; a quotient's inverse is not bounded."""
    for base, p in powers.items():
        if abs(p) > 1 or isinstance(base, Pow) and base.exponent < -1:
            s = _eval(base, order)
            if abs(p) > 1:
                check_power(s, abs(p))
        elif isinstance(base, (Add, Sub, Pow)):
            for term in _terms(base.base if isinstance(base, Pow) else base):
                _check_powers(term.powers, order)


def _add_column(out: list[int], a: _Product, b: dict[QExpr, int], k: int, l: int,
                order: int, m_b: int) -> None:
    """out += dissect(A, k, l) * B(q), out being the column to order m =
    len(out) - 1; A's residue is read at the claim's order and B at m_b >= m, one
    order for every residue, so they share B's series."""
    b_key = tuple(v for pair in b.items() if pair[1] for v in pair)
    factors = [_eval(b_key, m_b)] if b_key else []
    # Entry n is A's coefficient at k*n + l: that of A's powers at
    # k*n + l - shift, so the entries below n0 are 0; n0's is at start < k.
    n0 = max(0, -((l - a.shift) // k))
    start, size = l + k * n0 - a.shift, len(out) - n0
    if a.powers:
        two = size > 0 and list(a.powers.values()) == [1, 1]
        x = product_residue(*_factors(a.powers, order), k, start, size) if two else None
        if x is None:
            x = _eval(tuple(v for pair in a.powers.items() for v in pair), order)._coeffs
            if size <= 0:
                return
            x = TruncatedSeries._of(x[start:start + k * size:k])
        factors.append(x)
    elif (a.shift - l) % k:  # A = c*q^s with s not k*n0 + l: nothing in the column
        return
    add_product_into(out, factors, n0, a.coeff)


def cross_multiplied(
    parts: list[tuple[QExpr, int, int]], order: int, exact: bool = False
) -> tuple[TruncatedSeries, ...]:
    """The columns dissect(e, k, l) of the parts (e, k, l) at the order,
    cut to the common order m = min((order - l) // k), all times one unit
    U with integer coefficients, so no side is inverted; U = 1 when exact.
    Raises LimitExceeded where evaluating a part whole at the order would
    raise it for a power.  How a column is built is in "Columns" above.
    """
    m = min((order - l) // k for _, k, l in parts)
    m_b = order // max(k for _, k, _ in parts)
    lowered = [_terms(e) for e, _, _ in parts]
    split = [[_split(t, k) for t in terms] for terms, (_, k, _) in zip(lowered, parts)]
    d: Counter[QExpr] = Counter()
    if not exact:
        for terms in split:
            for _, b in terms:
                for base, p in b.powers.items():
                    if -p > d[base]:
                        d[base] = -p
    out = []
    for (e, k, l), terms, halves in zip(parts, lowered, split):
        whole = k == 1 and not d
        if not whole or m < order:  # not the plain evaluation at the order
            for t, (a, _) in zip(terms, halves):
                _check_powers({x: p for x, p in t.powers.items() if x not in a.powers}, order)
        if whole:
            out.append(_eval(e, m))
        else:
            column = [0] * (m + 1)
            for a, b in halves:
                bd = Counter(d)  # D's bases first: one key, whatever order B's text has
                bd.update(b.powers)
                _add_column(column, a, bd, k, l, order, m_b)
            out.append(TruncatedSeries._of(tuple(column)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Evaluator


def _power(base: TruncatedSeries, k: int) -> TruncatedSeries:
    if k < 0 and base._coeffs[0] == 0:
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


def _sum(terms: list[_Product], order: int) -> TruncatedSeries:
    """The sum of theta normal forms at the order, each term added in place
    into one list at its shift, times its coefficient (see "Sums" above)."""
    out = [0] * (order + 1)
    support: set[int] | None = set()
    for term in terms:
        written = add_product_into(out, _factors(term.powers, order), term.shift, term.coeff)
        support = None if support is None or written is None else support.union(written)
    return TruncatedSeries._of(tuple(out), None if support is None else sorted(support))


_PRODUCT_NODES = (Mul, Div, Pow, Neg, Poch)


@lru_cache(maxsize=4096)
def _eval(e: QExpr | tuple[QExpr | int, ...], order: int) -> TruncatedSeries:
    """Series of a node, or of flat pairs, memoized: one pair (base, k > 1)
    is base's series to the k-th power, other pairs their _product.  A sum,
    or a product-shaped node whose form has a coefficient or a shift, is
    added up by _sum; any other product-shaped node is its form's _product,
    unless that form is the node itself (opaque); any other, _direct's."""
    if isinstance(e, tuple):
        if len(e) == 2 and e[1] > 1:
            return _eval(e[0], order) ** e[1]
        return _product(dict(zip(e[::2], e[1::2])), order)
    if isinstance(e, (Add, Sub)):
        return _sum(_terms(e), order)
    if isinstance(e, _PRODUCT_NODES):
        product = _lower(e)
        if product.coeff != 1 or product.shift:
            return _sum([product], order)
        if product.powers != {e: 1}:
            return _product(product.powers, order)
    return _direct(e, order, _eval)


def evaluate(e: QExpr, order: int) -> TruncatedSeries:
    """Lower an expression to an exact TruncatedSeries at the given order."""
    check_order(order)
    return _eval(e, order)


def evaluate_direct(e: QExpr, order: int) -> TruncatedSeries:
    """e by the term-by-term rules alone, no normal form and no cache: the
    oracle the theta normal form is tested against."""
    check_order(order)
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
