"""Theta normal form against the term-by-term path.

evaluate() lowers products to theta/eta exponent vectors and identities
checks equalities cross-multiplied by their common denominator;
evaluate_direct() expands every Pochhammer factor and inverts every
quotient.  The direct path is the oracle: both must give the same series,
or raise the same error with the same message.
"""

import dataclasses
import random

import pytest

import qdissect.qexpr as qexpr
import qdissect.series as series
from qdissect.identities import IdentityRecord, SeriesEquality, registry, verify
from qdissect.qexpr import cross_multiplied, evaluate, evaluate_direct, parse
from qdissect.series import TruncatedSeries


def outcome(evaluator, text, order):
    """The series, or the error's type and message."""
    try:
        return evaluator(parse(text), order)
    except ValueError as exc:
        return type(exc), str(exc)


def claim_texts(record):
    for kind in (record.kind, *record.alternates):
        for f in dataclasses.fields(kind):
            value = getattr(kind, f.name)
            if isinstance(value, str):
                yield value


def test_registry_texts_match_direct_path():
    texts = sorted({t for r in registry() for t in claim_texts(r)})
    assert len(texts) == 155
    for text in texts:
        assert evaluate(parse(text), 120) == evaluate_direct(parse(text), 120), text


def _mono(e):
    return "1" if e == 0 else "q" if e == 1 else f"q^{e}"


def _factor(rng, m):
    """One Pochhammer list of a shape the normal form has a rule for, or a
    shape it leaves alone."""
    s = rng.choice(("", "-"))
    r = rng.randint(1, m - 1) if m > 1 else 1
    shape = rng.choice(("pair", "split", "triple", "eta", "residues", "half", "lone", "mixed"))
    if shape == "pair":
        args = [s + _mono(r), s + _mono(m - r)]
    elif shape == "split":  # the pair as two atoms, as partition products write it
        k = rng.randint(-3, 3)
        return f"({s}{_mono(r)};{_mono(m)})_inf^{k}*({s}{_mono(m - r)};{_mono(m)})_inf^{k}"
    elif shape == "triple":
        args = [s + _mono(r), s + _mono(m - r), _mono(m)]
    elif shape == "eta":
        args = [_mono(m)]
    elif shape == "residues":
        args = [_mono(i) for i in range(1, m + 1) if rng.random() < 0.9 or i == m]
    elif shape == "half":
        args = [s + _mono(m // 2 or 1)]
    elif shape == "lone":
        args = [s + _mono(r + m * rng.randint(0, 1))]
    else:
        args = [_mono(r), "-" + _mono(m - r)]
    return f"({','.join(args)};{_mono(m)})_inf"


def _product(rng, atoms):
    parts = []
    for _ in range(rng.randint(1, 4)):
        atom = atoms(rng)
        k = rng.randint(-3, 3)
        parts.append(rng.choice(("*", "/")) + (f"({atom})^{k}" if k != 1 else atom))
    return "1" + "".join(parts)


def test_random_products_match_direct_path():
    rng = random.Random(4207)
    for _ in range(300):
        text = _product(rng, lambda rng: _factor(rng, rng.randint(1, 12)))
        order = rng.randint(0, 70)
        assert outcome(evaluate, text, order) == outcome(evaluate_direct, text, order), text


def _awkward(rng):
    """Factors the normal form must not invert: non-unit constant terms,
    monomials, zero, plus the thetas and sums around them."""
    k = rng.randint(0, 3)
    return rng.choice((
        f"f(1,{_mono(k + 1)})",
        f"f(-1,{_mono(k + 1)})",
        f"f({_mono(k)},-{_mono(k + 1)})",
        f"(-1,{_mono(k + 1)};{_mono(k + 2)})_inf",
        f"(-1;{_mono(k + 1)})_inf",
        _mono(k),
        "0",
        str(rng.choice((-2, -1, 1, 2, 3))),
        f"(1 + {_mono(k + 1)})",
        f"phi({_mono(k + 1)})",
        f"psi({_mono(k + 1)})",
        f"bsum({k + 1},{rng.randint(-k - 2, k + 2)})",
        f"f({_mono(k)},{_mono(k)})",
        _factor(rng, rng.randint(1, 6)),
    ))


def test_errors_match_direct_path():
    example = "(q;q)_inf/(q^2,q^3;q^5)_inf*f(1,q)/f(1,q)"
    assert outcome(evaluate, example, 8) == (
        series.NonUnitConstantTerm, "cannot invert series with constant term 2; need +1 or -1")
    rng = random.Random(9931)
    kinds = set()
    for _ in range(400):
        text = _product(rng, _awkward)
        order = rng.randint(0, 30)
        got = outcome(evaluate, text, order)
        assert got == outcome(evaluate_direct, text, order), text
        kinds.add(got[0].__name__ if isinstance(got, tuple) else "series")
    assert kinds >= {"series", "NonUnitConstantTerm", "NegativeExponent", "InvalidParameters",
                     "InvalidThetaArgument"}


# --- cross-multiplied equalities --------------------------------------------------


def _direct_check(kind, order):
    """status and first failure of an equality by the direct path."""
    try:
        a = evaluate_direct(parse(kind.lhs), order).coeffs
        b = evaluate_direct(parse(kind.rhs), order).coeffs
    except ValueError as exc:
        return "error", None, f"{type(exc).__name__}: {exc}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return "fail", (i, x, y), ""
    return "pass", None, ""


def _planted(rng, kind, order):
    """The equality with a fault planted on one side: an extra term, or one
    power in a denominator moved by one."""
    side = rng.choice(("lhs", "rhs"))
    text = getattr(kind, side)
    if rng.random() < 0.5 and "^-" in text:
        i = text.index("^-") + 2
        digit = int(text[i])
        text = text[:i] + str(digit + rng.choice((-1, 1)) or 3) + text[i + 1:]
    else:
        text = f"{text} + {rng.randint(-3, 3) or 1}*q^{rng.randint(0, order)}"
    return dataclasses.replace(kind, **{side: text})


def test_cross_multiplied_verify_matches_direct():
    rng = random.Random(2718)
    equalities = [r.kind for r in registry() if isinstance(r.kind, SeriesEquality)]
    with_denominators = [k for k in equalities if "/" in k.lhs + k.rhs or "^-" in k.lhs + k.rhs]
    assert len(with_denominators) >= 15
    cases = [(k, 60) for k in equalities]
    cases += [(_planted(rng, k, 60), 60) for k in with_denominators for _ in range(3)]
    cases += [(SeriesEquality("f(1,q)/f(1,q)", "1"), 20), (SeriesEquality("1/(q;q)_inf", "1/q"), 20)]
    statuses = set()
    for n, (kind, order) in enumerate(cases):
        report = verify(IdentityRecord(f"x.{n}", "test", kind, order))
        want = _direct_check(kind, order)
        assert (report.status, report.first_failure, report.detail) == want, kind
        statuses.add(report.status)
    assert statuses == {"pass", "fail", "error"}


@pytest.mark.parametrize("lhs, rhs, d", [
    ("f(q,q^4)*f(q^2,q^3)",
     "(q^2;q^2)_inf*(q^5;q^5)_inf^3/((q;q)_inf*(q^10;q^10)_inf)",
     "(q;q)_inf*(q^10;q^10)_inf"),
    ("(-q,-q^4;q^5)_inf*(q^4,q^6;q^10)_inf^3 + q*(-q^2,-q^3;q^5)_inf*(q^2,q^8;q^10)_inf^3",
     "(q^2;q^2)_inf^2*(q^5;q^5)_inf^4/((q;q)_inf^2*(q^10;q^10)_inf^4)"
     "*(q^2,q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf",
     "(q^5;q^5)_inf*(q^10;q^10)_inf^5*(q;q)_inf^2"),
    ("(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1",
     "(phi(q^5)*f(q,q) + q*psi(q^10))/((q;q)_inf^2*(q^2;q^2)_inf)",
     "f(-q,-q^4)^2*f(-q^2,-q^8)*(q;q)_inf^2*(q^2;q^2)_inf"),
])
def test_common_denominator(lhs, rhs, d):
    # D is each base to the largest negative power any term gives it, no
    # more and no less.
    order = 80
    want = tuple(evaluate_direct(parse(f"({side})*{d}"), order) for side in (lhs, rhs))
    assert cross_multiplied(parse(lhs), parse(rhs), order) == want


def test_cross_multiplied_equalities_invert_nothing(monkeypatch):
    calls = []
    real = series.invert
    monkeypatch.setattr(series, "invert", lambda a: calls.append(a) or real(a))
    qexpr._eval.cache_clear()
    for rid in ("T4.i1", "T4.i4", "CT.i1", "L3.A0", "L4.u2", "L2.lem23a"):
        record = next(r for r in registry() if r.id == rid)
        assert verify(record, 97).status == "pass"
    assert calls == []


def test_paired_list_multiply_count(monkeypatch):
    # (q,q^4;q^5) lowers to f(-q,-q^4)/(q^5;q^5): no Pochhammer expansion,
    # one inverse, one product.
    qexpr._eval.cache_clear()
    mul_calls = []
    real_mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__",
                        lambda a, b: mul_calls.append(1) or real_mul(a, b))
    inverted = []
    real_invert = series.invert
    monkeypatch.setattr(series, "invert", lambda a: inverted.append(1) or real_invert(a))

    def no_expansion(*args):
        raise AssertionError("pochhammer expansion on the normal-form path")

    monkeypatch.setattr(qexpr, "pochhammer", no_expansion)
    got = evaluate(parse("(q,q^4;q^5)_inf"), 113)
    assert (len(mul_calls), len(inverted)) == (1, 1)
    monkeypatch.undo()
    assert got == evaluate_direct(parse("(q,q^4;q^5)_inf"), 113)
