"""Theta normal form against the term-by-term path.

evaluate() lowers products to theta/eta exponent vectors, and identities
checks every claim on columns that cross_multiplied dissects before it
multiplies; evaluate_direct() expands every Pochhammer factor and inverts
every quotient.  The direct path is the oracle: both must give the same
series, or raise the same error with the same message.
"""

import random
import re

import pytest
from conftest import claim_fields, replaced

import qdissect.qexpr as qexpr
import qdissect.series as series
import qdissect.identities as identities
from qdissect.identities import (
    Congruence, DissectionRelation, IdentityRecord, SeriesEquality, SignPattern,
    VanishingProgression, registry, verify,
)
from qdissect.qexpr import cross_multiplied, evaluate, evaluate_direct, parse
from qdissect.series import TruncatedSeries, dissect, substitute_power


def outcome(evaluator, text, order):
    """The series of a text or a tree, or the error's type and message."""
    try:
        return evaluator(parse(text) if isinstance(text, str) else text, order)
    except ValueError as exc:
        return type(exc), str(exc)


def claim_texts(record):
    for kind in (record.kind, *record.alternates):
        for value in claim_fields(kind).values():
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


def test_built_literal_signs_match_direct_path():
    # Trees the parser never builds: a literal -1 and a monomial of
    # coefficient -1, to odd and even powers, negative ones too, whose sign
    # the normal form takes from the power's parity.
    from qdissect.qexpr import IntLit, Monomial, Mul, Pow

    theta = parse("f(q,q^2)")
    for base in (IntLit(-1), Monomial(-1, 0), Monomial(-1, 2)):
        for k in (-3, -2, 2, 3):
            for e in (Pow(base, k), Mul(Pow(base, k), theta), Mul(theta, Pow(Pow(base, k), -1))):
                assert outcome(evaluate, e, 20) == outcome(evaluate_direct, e, 20), (e, k)


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


# --- columns dissected before multiplying -----------------------------------------


def _column_parts(kind):
    if isinstance(kind, DissectionRelation):
        return [(kind.lhs, kind.k1), (kind.rhs, kind.k2)]
    return [(kind.expr, kind.k)]


def test_dissected_columns_match_plain_dissect():
    # Every text of a registry claim read on a progression, on every
    # residue of its modulus: the exact column is the direct series,
    # dissected.
    order = 120
    parts = {part for r in registry() for kind in (r.kind, *r.alternates)
             if not isinstance(kind, SeriesEquality) for part in _column_parts(kind)}
    assert len(parts) >= 40
    for text, k in sorted(parts):
        whole = evaluate_direct(parse(text), order)
        for l in range(k):
            (got,) = cross_multiplied([(parse(text), k, l)], order, exact=True)
            assert got == dissect(whole, k, l), (text, k, l)


def _in_q_to_the(text, k):
    """text(q^k): every exponent of q times k."""
    return re.sub(r"q(\^(\d+))?", lambda m: _mono(k * int(m.group(2) or 1)), text)


def _poly(coeffs):
    return " + ".join(f"{c}*q^{e}" for e, c in enumerate(coeffs) if c) or "0"


def test_random_dissected_products_match_substituted_series():
    # A * B(q^k) on each residue l: dissect(A, k, l) * B(q), with B(q^k)
    # built by substitute_power and B raised to negative powers too.  The
    # exact column equals it; cross-multiplied, it equals the same column
    # written out as a polynomial.
    rng = random.Random(5309)
    for _ in range(60):
        k, order = rng.randint(2, 5), rng.randint(0, 45)
        # moduli from 2 on: a modulus 1 can give the non-unit (-q,-1;q)
        a = _product(rng, lambda rng: _factor(rng, rng.randint(2, 12)))
        a = rng.choice(("", "2*", "-3*", f"q^{rng.randint(1, 9)}*", "(1 + q^2)*")) + a
        b = _product(rng, lambda rng: rng.choice((
            _factor(rng, rng.randint(2, 6)), "f(-q,-q^2)", "phi(q)", "psi(q)")))
        b += rng.choice(("", "*f(1,q^2)"))  # constant term 2: positive powers only
        text = f"{a}*({_in_q_to_the(b, k)})"
        b_of_q_k = substitute_power(evaluate_direct(parse(b), -(-order // k)), k)
        whole = evaluate_direct(parse(a), order) * b_of_q_k
        for l in range(min(k, order + 1)):
            want = dissect(whole, k, l)
            (got,) = cross_multiplied([(parse(text), k, l)], order, exact=True)
            assert got == want, (text, l)
            lhs, rhs = cross_multiplied([(parse(text), k, l), (parse(_poly(want.coeffs)), 1, 0)],
                                        order)
            assert lhs == rhs, (text, l)


# --- sums added into one list ------------------------------------------------------

# Each sum exercises one way a term enters the list: sparse thetas whose
# pairs are written straight in, with a sign and a shift; a shift past the
# order; terms that cancel; literals joining the coefficient, 0 among them;
# a constant or lone monomial; a dense product packed beside pair terms; and
# sums nested under a minus, a power and a product.  A lone product with a
# coefficient or a shift is added the same way, as a sum of one term: a
# literal to a power other than 1 stays a base, and a power that cancels to
# 0 leaves the unit.
SUMS = [
    "2*q^3*f(q,q^4)*f(q^2,q^3)",
    "-3*q^5*(q,q^4;q^5)_inf^-2",
    "0*q*f(q,q^2)^2",
    "(2*q)^3*f(q,q)",
    "f(q,q)^2/f(q,q)^2",
    "-q^7000*psi(q)*phi(q)",
    "q^3*f(q,q^4)*f(q^2,q^3) - q*f(-q^2,-q^8)*f(-q,-q^9) + phi(q)*psi(q^3)",
    "f(-q^3,-q^7)*f(-q^4,-q^6) - q*f(-q^2,-q^8)*f(-q,-q^9) - f(q,q^4)*f(-q^2,-q^3)",
    "q^7*phi(q)*psi(q) - q^400*f(q,q^2)*f(q^2,q^3) + q^7000*psi(q)",
    "phi(q)*psi(q^2) - psi(q^2)*phi(q) + f(q,q^4) - f(q^4,q)",
    "2*psi(q) - psi(q)*2 + 3*q^2*phi(q)*psi(q^3) + 0*phi(q)*psi(q) + 0*f(q,q^2)",
    "1 + q^5 - 3*q^2 + phi(q) - 2*q^9*f(q,q^4)",
    "2 - q^6000 + f(q,q^2)*f(q,q^3)",
    "phi(q)^4 - 4*q*phi(q)*psi(q^2) + q^2*f(q,q^2)*f(q^2,q^3) - f(q,q^4)*f(q^2,q^3)",
    "-(phi(q) + q*psi(q^2) - 5)",
    "(phi(q) - q*psi(q^4))^3",
    "(phi(q) + q)*(psi(q) - 2*q^3*f(q,q^2))",
    "phi(q)*(f(q^18,q^22)^2 - q^8*f(q^2,q^38)^2)"
    " + 2*psi(q^2)*(q^5*f(q^12,q^28)*f(q^2,q^38) - q*f(q^12,q^28)*f(q^18,q^22))",
]


@pytest.mark.parametrize("order", [0, 1, 300, 6000])
def test_sums_match_direct_path(monkeypatch, order):
    # Every sum equals the direct path's, which adds whole series by + and
    # -; some terms do write their pairs straight into the list.
    pair_terms = []
    real = series._mul_terms

    def counting(xs, ys, ix, iy, n, *into):
        pair_terms.append(bool(into))
        return real(xs, ys, ix, iy, n, *into)

    monkeypatch.setattr(series, "_mul_terms", counting)
    qexpr._eval.cache_clear()
    for text in SUMS:
        assert evaluate(parse(text), order) == evaluate_direct(parse(text), order), text
    assert any(pair_terms)


def test_sum_raises_the_leftmost_error():
    # Terms that raise different errors: the sum raises the leftmost one,
    # with the direct path's message, whichever way the term enters the
    # list, a term scaled by 0 included.
    faults = ["(2 + q)^-1", "f(1,1)*psi(q)", "0*(q + q^2)^-1", "(1 + q)^70000"]
    seen = set()
    for i in range(len(faults)):
        for j in range(len(faults)):
            if i == j:
                continue
            text = f"phi(q) + {faults[i]} - q*psi(q)*f(q,q^2) - {faults[j]}"
            qexpr._eval.cache_clear()
            got = outcome(evaluate, text, 300)
            assert got == outcome(evaluate_direct, text, 300), text
            assert got == outcome(evaluate_direct, faults[i], 300), text
            seen.add(got[0].__name__)
    assert seen == {"NonUnitConstantTerm", "InvalidThetaArgument", "NegativeExponent",
                    "LimitExceeded"}


@pytest.mark.parametrize("order", [0, 1, 300, 6000])
def test_columns_of_several_halves_match_plain_dissect(claim_oracle, order):
    # Columns summed from several terms A * B(q^k): A with powers, A with
    # B's powers too, A = +-q^s on and off the progression, and a shift
    # past the order.  A relation between two such columns reports what
    # the claim oracle reports.
    texts = [
        "phi(q)*psi(q^5) - 2*q^2*f(q,q^4)*psi(q^10) + 3*q^7*(q^5;q^5)_inf - q^3 + q^11",
        "q*f(q^5,q^10)*f(q^10,q^15) - q^6*phi(q^5) + psi(q)*f(q^2,q^3) - q^9000*phi(q)",
    ]
    for text in texts:
        e = parse(text)
        whole = evaluate_direct(e, order)
        for l in range(min(5, order + 1)):
            (got,) = cross_multiplied([(e, 5, l)], order, exact=True)
            assert got == dissect(whole, 5, l), (text, l)
        # a relation between two such columns, cut to the shorter one
        if order >= 3:
            other = parse(texts[0])
            lhs, rhs = cross_multiplied([(e, 5, 1), (other, 5, 3)], order)
            m = (order - 3) // 5
            assert lhs.coeffs == dissect(whole, 5, 1).coeffs[:m + 1], text
            assert rhs.coeffs == dissect(evaluate_direct(other, order), 5, 3).coeffs, text
            for kind in (DissectionRelation(text, 5, 1, text, 5, 1, 1),
                         DissectionRelation(text, 5, 1, texts[0], 5, 3, -1)):
                report = verify(IdentityRecord("halves", "test", kind, order))
                want = claim_oracle(kind, order)
                assert (report.status, report.first_failure, report.detail) == want, kind


# --- claims checked on cross-multiplied columns ---------------------------------


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
    return replaced(kind, **{side: text})


def _planted_column(rng, kind, order):
    """A dissection, vanishing, congruence or sign claim with a fault at
    entry 0 or later of its (first) column: an extra term on that entry,
    the sign factor flipped, or a residue past the order."""
    text_field, k, l = (("lhs", kind.k1, kind.l1) if isinstance(kind, DissectionRelation)
                        else ("expr", kind.k, kind.l))
    how = rng.choice(("term", "term", "flip", "residue"))
    if how == "flip" and isinstance(kind, DissectionRelation):
        return replaced(kind, sign_factor=-kind.sign_factor)
    if how == "residue":
        field = "l1" if isinstance(kind, DissectionRelation) else "l"
        return replaced(kind, **{field: k - 1}), k - 2
    n = rng.choice((0, rng.randint(1, (order - l) // k)))
    c = rng.choice((-1, 1)) * (10**6 if isinstance(kind, SignPattern) else rng.randint(1, 3))
    text = f"{getattr(kind, text_field)} + {c}*q^{k * n + l}"
    return replaced(kind, **{text_field: text})


def _claim_cases(rng, order):
    """Registry claims of every kind, planted faults in each, and claims
    with a non-unit f(1, q^k) or literal factor inside the part in q^k."""
    kinds = [r.kind for r in registry()]
    equalities = [k for k in kinds if isinstance(k, SeriesEquality)]
    with_denominators = [k for k in equalities if "/" in k.lhs + k.rhs or "^-" in k.lhs + k.rhs]
    assert len(with_denominators) >= 15
    columns = [k for k in kinds if not isinstance(k, SeriesEquality)]
    cases = [(k, order, True) for k in kinds]
    cases += [(_planted(rng, k, order), order, False) for k in with_denominators for _ in range(3)]
    for k in columns:
        for _ in range(2):
            planted = _planted_column(rng, k, order)
            case = planted if isinstance(planted, tuple) else (planted, order)
            cases.append((*case, False))
    g1, h2 = "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf", "(q^2,q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf"
    cases += [(kind, order, False) for kind in (
        SeriesEquality("f(1,q)/f(1,q)", "1"),
        SeriesEquality("1/(q;q)_inf", "1/q"),
        SeriesEquality("(q^2,q^8;q^10)_inf^-1", "(bsum(20,2) - q^4*bsum(20,18))/(q^2;q^2)_inf + 1"),
        VanishingProgression(f"f(1,q^5)*{g1}", 5, 3),
        VanishingProgression(f"f(1,q^5)*{g1}", 5, 2),
        Congruence(f"f(1,q^5)*(q,q^4;q^5)_inf^-1", 5, 2, 2),
        Congruence(f"f(1,q^5)*(q,q^4;q^5)_inf^-1 + q^7", 5, 2, 2),
        Congruence("2*(q;q)_inf^-1*(q^2,q^3;q^5)_inf", 1, 0, 2),
        Congruence("2*(q;q)_inf^-1*(q^2,q^3;q^5)_inf", 1, 0, 4),
        Congruence(f"2*{h2}", 5, 2, 2),
        Congruence(f"2*{h2}", 5, 4, 4),
        Congruence(f"3*f(1,q^10)*{h2}", 5, 4, 2),
        SignPattern(f"f(1,q^5)*{g1}", 5, 0, 1),
        SignPattern(f"-2*f(1,q^5)*{g1}", 5, 1, -1),
        DissectionRelation(f"f(1,q^5)*{g1}", 5, 0, "2*f(q^5,q^10)", 5, 0),
        # a Pochhammer factor no rule lowers, in q^5 and in q
        DissectionRelation(f"(q^5;q^15)_inf^-1*{g1}", 5, 0,
                           "(q;q^3)_inf^-1*(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1", 1, 0),
        VanishingProgression(f"(-q^10;q^15)_inf^3*{g1}", 5, 3),
        SignPattern(f"(-q^5;q^15)_inf*{g1}", 5, 0, 1),
        DissectionRelation(f"f(1,q^5)*(q^5;q^5)_inf^-1*{g1}", 5, 4, "f(1,q)/f(1,q)", 1, 0),
        # progressions dissect refuses: a[2n+2] = eta[n+1], not eta[n]
        DissectionRelation("f(-q^2,-q^4)", 2, 2, "f(-q,-q^2)", 1, 0),
        DissectionRelation("f(-q^2,-q^4)", 0, 0, "f(-q,-q^2)", 1, 0),
        VanishingProgression("q*(q^5;q^5)_inf", 5, 6),
        SignPattern("1/(q;q)_inf", 1, -1, 1),
    )]
    return cases


def test_cross_multiplied_verify_matches_direct(monkeypatch, claim_oracle):
    # Every claim kind: verify gives the verdict, failure and detail a
    # plain loop over the direct path gives.  A claim that holds is decided
    # on the columns alone: no text is expanded plainly, and a registry
    # claim other than a sign pattern inverts nothing.
    rng = random.Random(2718)
    plain, inverted = [], []
    real_series_of, real_invert = identities._series_of, series.invert
    monkeypatch.setattr(identities, "_series_of",
                        lambda *args: plain.append(args) or real_series_of(*args))
    monkeypatch.setattr(series, "invert", lambda a: inverted.append(1) or real_invert(a))
    seen = set()
    for n, (kind, order, from_registry) in enumerate(_claim_cases(rng, 60)):
        qexpr._eval.cache_clear()
        del plain[:], inverted[:]
        report = verify(IdentityRecord(f"x.{n}", "test", kind, order))
        if report.status == "pass":
            assert plain == [], kind
            if from_registry and not isinstance(kind, SignPattern):
                assert inverted == [], kind
        want = claim_oracle(kind, order)
        assert (report.status, report.first_failure, report.detail) == want, kind
        failure = report.first_failure
        seen.add((type(kind).__name__, report.status, failure and min(failure[0], 1)))
    for name in ("SeriesEquality", "DissectionRelation", "VanishingProgression",
                 "Congruence", "SignPattern"):
        assert {(name, "pass", None), (name, "fail", 0), (name, "fail", 1)} <= seen, name
    assert {status for _, status, _ in seen} == {"pass", "fail", "error"}


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
    assert cross_multiplied([(parse(lhs), 1, 0), (parse(rhs), 1, 0)], order) == want


G1 = "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf"


def test_common_denominator_of_columns():
    # T1.G0: G1's B part is 1/((q^5;q^5)^2 (q^10;q^10)), read in q as
    # 1/((q;q)^2 (q^2;q^2)); the k = 1 side is all B.  D covers both.
    order, m = 80, 16
    rhs = "(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1"
    d = "(q;q)_inf^2*(q^2;q^2)_inf*f(-q,-q^4)^2*f(-q^2,-q^8)"
    want = (dissect(evaluate_direct(parse(G1), order), 5, 0) * evaluate_direct(parse(d), m),
            evaluate_direct(parse(f"({rhs})*{d}"), m))
    assert cross_multiplied([(parse(G1), 5, 0), (parse(rhs), 1, 0)], order) == want


P = "(1+q)^70000"


@pytest.mark.parametrize("kind", [
    # B holds (q;q)^69998 / (q^2;q^2), cancelled by D: never built
    VanishingProgression(f"(q^5;q^5)_inf^70000*{G1}", 5, 3),
    VanishingProgression(f"(q^5;q^5)_inf^-70000*{G1}", 5, 3),
    # A = q misses the progression: the column is 0 without B
    VanishingProgression("q*(q^5;q^5)_inf^70000", 5, 0),
    # the k = 1 side is built at order // 5, its powers inside a sum
    DissectionRelation(G1, 5, 0, f"(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1*(1 + {P} - {P})",
                       1, 0),
    DissectionRelation(G1, 5, 0, f"(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1"
                       f"*(1 + (1 + q*{P})^-1 - (1 + q*{P})^-1)", 1, 0),
    # D = 1, but the k = 1 side is evaluated whole at order // 5
    DissectionRelation("1", 5, 0, f"{P} - {P} + 1", 1, 0),
    # D cancels the whole side
    SeriesEquality("(q;q)_inf^-70000", "(q;q)_inf^-70000"),
])
def test_power_limit_does_not_depend_on_the_path(kind):
    # Each claim holds, and the columns need no power past the limit;
    # expanding its texts at the order does.  The report is the error that
    # expanding the texts raises.
    order = 300
    for text, _, _ in identities._parts(kind):
        try:
            qexpr.evaluate_text(text, order)
        except series.LimitExceeded as exc:
            want = f"LimitExceeded: {exc}"
            break
    report = verify(IdentityRecord("x", "test", kind, order))
    assert (report.status, report.detail) == ("error", want)


def test_cross_multiplied_equalities_invert_nothing(monkeypatch):
    calls = []
    real = series.invert
    monkeypatch.setattr(series, "invert", lambda a: calls.append(a) or real(a))
    qexpr._eval.cache_clear()
    for rid in ("T4.i1", "T4.i4", "CT.i1", "L3.A0", "L4.u2", "L2.lem23a"):
        record = next(r for r in registry() if r.id == rid)
        assert verify(record, 97).status == "pass"
    assert calls == []


def test_column_parts_are_not_lowered_again(monkeypatch):
    # A column's A and B parts, and a power in a form, are cached by their
    # (base, power) pairs, not rebuilt as product nodes that _eval lowers a
    # second time.  The count is deterministic; the same pass made 539 when
    # the parts were rebuilt, and 421 when each power was rebuilt as a Pow
    # node (called 91 times with 31 distinct such nodes).  Nor is one part
    # evaluated twice under keys that hold the same pairs in another order:
    # B*D is seeded from D, whatever order the text wrote B's bases in
    # (T4.i1/T4.i3 and T4.i2/T4.i4 made 3 such pairs).
    calls = []
    real = qexpr._lower
    monkeypatch.setattr(qexpr, "_lower", lambda e: calls.append(e) or real(e))
    keys, powers = set(), []
    real_eval = qexpr._eval

    def recording_eval(e, order):
        if isinstance(e, tuple):
            keys.add((e, order))
        elif isinstance(e, qexpr.Pow):
            powers.append(e)
        return real_eval(e, order)

    monkeypatch.setattr(qexpr, "_eval", recording_eval)
    real_eval.cache_clear()
    assert all(r.status == "pass" for r in identities.verify_all(1000))
    assert len(calls) <= 384
    assert powers == []
    parts = {(frozenset(zip(key[::2], key[1::2])), order) for key, order in keys}
    assert len(parts) == len(keys)


def test_a_power_is_lowered_however_the_text_writes_it():
    # A text power of one canonical base goes through _factors like the
    # power of any other form: base^k by its pair key, a negative power
    # inverted after, so the power limit reads the base's power whichever
    # way the text writes it.  At order 100 that power is within the limit,
    # at 300 it is not.  The term-by-term path inverts the power too, so
    # both evaluators give the same series, or the same error and message.
    texts = ("f(q,q^2)^-100000", "1*f(q,q^2)^-100000", "f(q^2,q)^-100000")
    for order, kind in ((100, series.TruncatedSeries), (300, tuple)):
        got = [outcome(evaluate, text, order) for text in texts]
        assert isinstance(got[0], kind)
        assert got[1:] == got[:1] * 2
        assert [outcome(evaluate_direct, text, order) for text in texts] == got
    assert got[0][0] is series.LimitExceeded and "8109-bit" in got[0][1]


def test_paired_list_multiply_count(monkeypatch):
    # (q,q^4;q^5) lowers to f(-q,-q^4)/(q^5;q^5): no Pochhammer expansion,
    # one quotient, and no product or inverse beside it.
    qexpr._eval.cache_clear()
    mul_calls = []
    real_mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__",
                        lambda a, b: mul_calls.append(1) or real_mul(a, b))
    inverted, divided = [], []
    real_invert, real_divide = series.invert, qexpr.divide
    monkeypatch.setattr(series, "invert", lambda a: inverted.append(1) or real_invert(a))
    monkeypatch.setattr(qexpr, "divide", lambda a, d: divided.append(1) or real_divide(a, d))

    def no_expansion(*args):
        raise AssertionError("pochhammer expansion on the normal-form path")

    monkeypatch.setattr(qexpr, "pochhammer", no_expansion)
    got = evaluate(parse("(q,q^4;q^5)_inf"), 113)
    assert (len(mul_calls), len(inverted), len(divided)) == (0, 0, 1)
    monkeypatch.undo()
    assert got == evaluate_direct(parse("(q,q^4;q^5)_inf"), 113)


def test_quotients_match_direct_path():
    # A form with positive and negative powers is one quotient (series.divide);
    # the term-by-term path inverts the denominator and multiplies.  Both
    # give the same series, or the same error and message: a non-unit
    # denominator stays opaque and is refused by the inverse, and a
    # denominator power past the limit is refused as a power.
    texts = (
        "(q,q^4;q^5)_inf",
        "f(-q,-q^4)^3/(q^5;q^5)_inf^2",
        "(q;q)_inf^2*f(q,q^2)/(f(-q,-q^9)*(q^2,q^8;q^10)_inf^3)",
        "q^2*phi(q)/psi(q^3)^2",
        "1/(q^2,q^3;q^5)_inf^4 - 3*f(q,q^4)/(q;q)_inf",
        "(q;q)_inf/(q^2,q^3;q^5)_inf*f(1,q)/f(1,q)",
        "f(-q,-q^2)/f(1,q^3)",
        "f(q,q^4)/(2 + q)",
        "f(q,q^2)/(q;q)_inf^100000",
        "(q;q)_inf^3/f(-q^2,-q^3)^70000",
    )
    kinds = set()
    for text in texts:
        for order in (0, 1, 300):
            qexpr._eval.cache_clear()
            got = outcome(evaluate, text, order)
            assert got == outcome(evaluate_direct, text, order), (text, order)
            kinds.add(got[0] if isinstance(got, tuple) else type(got))
    assert kinds == {TruncatedSeries, series.NonUnitConstantTerm, series.LimitExceeded}
