"""Expression language: lexer, parser, renderer, evaluator, families."""

import random

import pytest

from qdissect.identities import (
    Congruence,
    DissectionRelation,
    SeriesEquality,
    SignPattern,
    VanishingProgression,
    registry,
)
from qdissect.qexpr import (
    MAX_DEPTH,
    Add,
    BSum,
    IntLit,
    InvalidFactor,
    InvalidFamilyParameters,
    Monomial,
    Mul,
    Neg,
    ParseError,
    Phi,
    Poch,
    Pow,
    Psi,
    Sub,
    ThetaF,
    evaluate,
    evaluate_text,
    family_g,
    family_h,
    parse,
    render,
)
from qdissect.theta import NegativeExponent, SignedMonomial


def sm(sign: int, e: int) -> SignedMonomial:
    return SignedMonomial(sign, e)


# --- parsing shapes -----------------------------------------------------------


def test_parse_pochhammer():
    e = parse("(q;q)_inf")
    assert e == Poch((sm(1, 1),), 1)


def test_parse_multi_argument_pochhammer():
    e = parse("(-q,-q^4;q^5)_inf")
    assert e == Poch((sm(-1, 1), sm(-1, 4)), 5)


def test_parse_pochhammer_power_is_pow_node():
    e = parse("(q,q^4;q^5)_inf^-2")
    assert e == Pow(Poch((sm(1, 1), sm(1, 4)), 5), -2)


def test_parse_unit_arguments():
    assert parse("f(1,q^40)") == ThetaF(sm(1, 0), sm(1, 40))
    assert parse("f(-1,q^3)") == ThetaF(sm(-1, 0), sm(1, 3))


def test_parse_precedence():
    e = parse("1 + 2*q^3")
    assert e == Add(IntLit(1), Mul(IntLit(2), Monomial(1, 3)))
    e = parse("q - q*q")
    assert e == Sub(Monomial(1, 1), Mul(Monomial(1, 1), Monomial(1, 1)))


def test_parse_negation_and_subtraction():
    # unary minus binds to the factor, so the product is outermost
    e = parse("-q*f(q,q^9)")
    assert e == Mul(Neg(Monomial(1, 1)), ThetaF(sm(1, 1), sm(1, 9)))
    assert parse("-3") == Neg(IntLit(3))


def test_parse_grouping_vs_pochhammer():
    # "(" opens either a group or a Pochhammer list; the ";" decides
    assert parse("(q + q^2)") == Add(Monomial(1, 1), Monomial(1, 2))
    assert isinstance(parse("(q;q^2)_inf"), Poch)


def test_parse_special_functions():
    assert parse("phi(q^5)") == Phi(5)
    assert parse("psi(q^10)") == Psi(10)
    assert parse("bsum(20,2)") == BSum(20, 2)
    assert parse("f(q^18,q^22)^2") == Pow(ThetaF(sm(1, 18), sm(1, 22)), 2)


def test_parse_errors_carry_position():
    for text in ("(q;q_inf", "f(q)", "q^", "", "1 +", "(q;q)_inf^", "2 3"):
        with pytest.raises(ParseError):
            parse(text)
    try:
        parse("(q;q_inf")
    except ParseError as exc:
        assert exc.position >= 0
        assert "expected" in str(exc)


def test_lexer_accepts_ascii_digits_and_letters_only():
    # str.isdigit is wider than int(): it accepts '\u00b2', which int()
    # rejects, and Arabic-Indic digits, which int() reads as decimal.
    for text in ("q^\u00b2", "q^\u0661\u0662", "\u03c6(q)", "q\u00e9"):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == text.index(next(c for c in text if not c.isascii()))


# One shape per way of nesting: a left-leaning sum, parentheses, and
# leading minus signs.  At MAX_DEPTH each parses, renders and evaluates;
# one level deeper each is a ParseError, not a RecursionError.
DEPTH_SHAPES = {
    "sum": lambda d: "+".join(["q"] * d),
    "parens": lambda d: "(" * (d - 1) + "q" + ")" * (d - 1),
    "minus": lambda d: "-" * (d - 1) + "q",
}


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_nesting_depth_bound(shape):
    deepest = parse(DEPTH_SHAPES[shape](MAX_DEPTH))
    assert parse(render(deepest)) == deepest
    assert evaluate(deepest, 3).order == 3
    for depth in (MAX_DEPTH + 1, 600):
        with pytest.raises(ParseError, match=f"nesting depth at most {MAX_DEPTH}"):
            parse(DEPTH_SHAPES[shape](depth))


def test_invalid_factor_is_not_a_parse_error():
    # a structurally valid Pochhammer with a vanishing factor is rejected
    # by the AST validation, not by backtracking into a group parse
    with pytest.raises(InvalidFactor):
        parse("(1;q^5)_inf")


# --- rendering ----------------------------------------------------------------


def test_render_round_trip_registry():
    seen = set()
    for record in registry():
        kind = record.kind
        if isinstance(kind, SeriesEquality):
            texts = (kind.lhs, kind.rhs)
        elif isinstance(kind, DissectionRelation):
            texts = (kind.lhs, kind.rhs)
        elif isinstance(kind, (VanishingProgression, Congruence, SignPattern)):
            texts = (kind.expr,)
        else:
            raise AssertionError(f"unhandled kind {kind!r}")
        seen.update(texts)
    assert len(seen) > 60
    for text in sorted(seen):
        e = parse(text)
        assert parse(render(e)) == e, text


def random_expr(rng: random.Random, depth: int):
    if depth == 0:
        leaf = rng.randrange(6)
        if leaf == 0:
            return IntLit(rng.randint(1, 9))
        if leaf == 1:
            return Monomial(rng.randint(1, 5), rng.randint(0, 9))
        if leaf == 2:
            args = tuple(
                sm(rng.choice((1, -1)), rng.randint(1, 6))
                for _ in range(rng.randint(1, 3))
            )
            return Poch(args, rng.randint(7, 12))
        if leaf == 3:
            return ThetaF(sm(rng.choice((1, -1)), rng.randint(1, 4)),
                          sm(rng.choice((1, -1)), rng.randint(1, 4)))
        if leaf == 4:
            return Phi(rng.randint(1, 5)) if rng.random() < 0.5 else Psi(rng.randint(1, 5))
        return BSum(20, rng.choice((2, 8, 12, 18)))
    a = random_expr(rng, depth - 1)
    b = random_expr(rng, depth - 1)
    node = rng.randrange(6)
    if node == 0:
        return Add(a, b)
    if node == 1:
        return Sub(a, b)
    if node == 2:
        return Mul(a, b)
    if node == 3:
        from qdissect.qexpr import Div

        return Div(a, b)
    if node == 4:
        return Neg(a)
    return Pow(a, rng.choice((-3, -2, -1, 2, 3)))


def test_render_round_trip_random():
    # random trees include shapes the parser itself would never build
    # (e.g. negations in positions the grammar folds), so the invariant
    # is stability of the rendered text, not node-for-node identity
    rng = random.Random(8812)
    for _ in range(150):
        e = random_expr(rng, rng.randint(1, 4))
        text = render(e)
        again = parse(text)
        assert render(again) == text
        assert parse(render(again)) == again


# --- evaluation ----------------------------------------------------------------


def test_evaluate_partition_numbers():
    got = evaluate_text("1/(q;q)_inf", 10)
    assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert evaluate_text("(q;q)_inf^-1", 10) == got


def test_evaluate_arithmetic():
    assert evaluate_text("2*q + 3*q", 3).coeffs == (0, 5, 0, 0)
    assert evaluate_text("(1 - q)*(1 + q)", 4).coeffs == (1, 0, -1, 0, 0)
    assert evaluate_text("-(q - q^2)", 3).coeffs == (0, -1, 1, 0)
    # q^2 is one monomial atom, the ^3 is a factor power: (q^2)^3
    assert evaluate_text("q^2^3", 10).coeffs[6] == 1


def test_evaluate_division_needs_unit():
    with pytest.raises(NegativeExponent):
        evaluate_text("1/(1 - 1)", 5)
    with pytest.raises(NegativeExponent):
        evaluate_text("1/q", 5)
    with pytest.raises(NegativeExponent):
        evaluate_text("(q;q)_inf/psi(q^2)^-1/q", 5)


def test_evaluate_pow_negative_zero_constant():
    with pytest.raises(NegativeExponent):
        evaluate_text("(q + q^2)^-1", 5)
    # monomial exponents are unsigned by grammar, so q^-1 cannot parse
    with pytest.raises(ParseError):
        parse("q^-1")


def test_pochhammer_list_multiply_count(monkeypatch):
    # A j-argument list the theta normal form leaves alone (no two of
    # q..q^5 pair modulo 13) multiplies its j factor series together: j - 1
    # products, none with a unit seed.  Order 97 is fresh to the cache.
    import qdissect.series as series

    calls = []
    real = series._mul_lists

    def counting(xs, ys, n_out):
        calls.append(n_out)
        return real(xs, ys, n_out)

    monkeypatch.setattr(series, "_mul_lists", counting)
    for j in range(1, 6):
        calls.clear()
        args = ",".join(f"q^{r}" for r in range(1, j + 1))
        evaluate(parse(f"({args};q^13)_inf"), 97)
        assert len(calls) == j - 1, j


def test_evaluation_is_cached_and_consistent():
    e = parse("(q;q)_inf^-1*(q^2;q^2)_inf^-1")
    a = evaluate(e, 50)
    b = evaluate(e, 50)
    assert a is b  # same cached object
    assert evaluate(e, 20) == evaluate(e, 20)


# --- product families -----------------------------------------------------------


def test_family_shapes():
    g = family_g(1, 2, 5)
    h = family_h(1, 2, 5)
    assert render(g) == "(-q,-q^4;q^5)_inf^3*(q^2,q^8;q^10)_inf"
    assert render(h) == "(-q,-q^4;q^5)_inf*(q^2,q^8;q^10)_inf^3"
    assert parse(render(g)) == g
    assert parse(render(h)) == h


def test_family_validation():
    for bad in ((0, 2, 5), (5, 2, 5), (1, 0, 5), (1, 5, 5), (1, 10, 5), (-1, 2, 5)):
        with pytest.raises(InvalidFamilyParameters):
            family_g(*bad)
        with pytest.raises(InvalidFamilyParameters):
            family_h(*bad)


def test_family_evaluates_like_text():
    got = evaluate(family_g(2, 4, 5), 30)
    want = evaluate_text("(-q^2,-q^3;q^5)_inf^3*(q^4,q^6;q^10)_inf", 30)
    assert got == want
