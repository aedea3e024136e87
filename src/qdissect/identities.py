"""Registry of q-series claims and the engine that checks them.

Each record states one verifiable claim about exact series coefficients:
a series equality, an arithmetic-progression (dissection) relation, a
vanishing progression, a congruence along a progression, or a strict
sign pattern.  verify() evaluates the claim at a truncation order; a
claim is never simplified by hand first, so the check is mechanical.

The five kinds come in two shapes, checked by the same first-failure
scan (series.first_index):

- two columns compared entry by entry: an equality compares the two
  series, a dissection relation the two progressions, the second one
  times sign_factor.  A failure is (index, lhs entry, rhs entry).
- one progression column tested entry by entry: it must be 0
  (vanishing), 0 mod m (congruence), or of the expected strict sign,
  entries at the listed exceptions skipped (sign pattern).  A failure is
  (index, entry, 0 or the expected sign).

The kinds, IdentityRecord and VerificationReport are theta.Records:
immutable, built positionally or by keyword, equal when their fields
are.  Each kind also carries @dataclass(init=False, repr=False,
eq=False), which generates no method: it only lets dataclasses.fields
and dataclasses.replace read a kind's fields.

Every column is taken by qexpr.cross_multiplied, an equality being the
progression n + 0; the columns of a claim come times one unit, which
changes no equality, vanishing or congruence, and a sign pattern takes
the exact column (the rule is in qexpr's "Columns" section).  When that
check does not hold, raises, or a progression is invalid or its residue
passes the order, the claim is checked again on the plain path, each
text expanded at the order and dissected, so every failure and error is
reported from the claim's own coefficients.

Expressions are stored as text in the expression language of qexpr and
parsed on use.  verify_all() runs records in id order, so output is
deterministic.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import ge, le, mul, ne

from .series import check_progression, coeff_text, dissect, first_index, read_int
from .theta import Record, SignedMonomial
from .qexpr import (
    Add, Monomial, Mul, Sub, ThetaF, cross_multiplied, evaluate_text, family_g, family_h,
    parse, render,
)


# ---------------------------------------------------------------------------
# Claim kinds


@dataclass(init=False, repr=False, eq=False)
class SeriesEquality(Record):
    """The series lhs equals the series rhs, coefficient by coefficient."""

    lhs: str
    rhs: str


@dataclass(init=False, repr=False, eq=False)
class DissectionRelation(Record):
    """Coefficients of lhs along k1*n + l1 equal sign * those of rhs along
    k2*n + l2, compared in compressed (index n) form."""

    lhs: str
    k1: int
    l1: int
    rhs: str
    k2: int
    l2: int
    sign_factor: int = 1


@dataclass(init=False, repr=False, eq=False)
class VanishingProgression(Record):
    """Every coefficient of expr along k*n + l is 0."""

    expr: str
    k: int
    l: int


@dataclass(init=False, repr=False, eq=False)
class Congruence(Record):
    """Every coefficient of expr along k*n + l is 0 mod modulus."""

    expr: str
    k: int
    l: int
    modulus: int


@dataclass(init=False, repr=False, eq=False)
class SignPattern(Record):
    """Every coefficient of expr along k*n + l has the strict sign
    expected_sign, the indices n in exceptions skipped."""

    expr: str
    k: int
    l: int
    expected_sign: int  # +1 or -1, strict
    exceptions: frozenset[int] = frozenset()


ClaimKind = (
    SeriesEquality | DissectionRelation | VanishingProgression | Congruence | SignPattern
)


class IdentityRecord(Record):
    """One claim of the registry or of a records file: its kind, checked
    at default_order unless an order is asked for, and the alternate
    readings tried when the kind fails."""

    id: str
    citation: str
    kind: ClaimKind
    default_order: int = 300
    note: str = ""
    alternates: tuple[ClaimKind, ...] = ()


class VerificationReport(Record):
    """The outcome of verify() on one record."""

    id: str
    status: str  # "pass" | "fail" | "error"
    checked_order: int
    first_failure: tuple[int, int, int] | None = None  # (index, lhs, rhs)
    elapsed: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        d: dict = {
            "id": self.id,
            "status": self.status,
            "checkedOrder": self.checked_order,
        }
        if self.first_failure is not None:
            i, a, b = self.first_failure
            d["firstFailure"] = {"index": i, "lhs": coeff_text(a), "rhs": coeff_text(b)}
        d["elapsed"] = round(self.elapsed, 6)
        if self.detail:
            d["detail"] = self.detail
        return d


# ---------------------------------------------------------------------------
# Verification


# The plain path evaluates claim texts through this one name (the benchmark
# wraps it to count repeated texts).
_series_of = evaluate_text


def _parts(kind: ClaimKind) -> list[tuple[str, int, int]]:
    """The claim's texts, each with the progression k*n + l it is read on."""
    if isinstance(kind, SeriesEquality):
        return [(kind.lhs, 1, 0), (kind.rhs, 1, 0)]
    if isinstance(kind, DissectionRelation):
        return [(kind.lhs, kind.k1, kind.l1), (kind.rhs, kind.k2, kind.l2)]
    if isinstance(kind, (VanishingProgression, Congruence, SignPattern)):
        return [(kind.expr, kind.k, kind.l)]
    raise TypeError(f"unknown claim kind: {kind!r}")


def _scan(kind: ClaimKind, columns: list[tuple[int, ...]]
          ) -> tuple[tuple[int, int, int] | None, str]:
    """(first failure, detail) of a claim on its columns.  A claim that
    holds is decided in one step in C: two columns by one tuple ==, a sign
    pattern by one min or max with its exceptions masked.  Only a claim
    that fails, or a column kind without such a step, is walked entry by
    entry to its first failure."""
    if len(columns) == 2:
        a, b = columns
        if isinstance(kind, DissectionRelation) and kind.sign_factor != 1:
            b = tuple(map(mul, b, repeat(kind.sign_factor)))
        n = min(len(a), len(b))
        if a[:n] == b[:n]:
            return None, ""
        i = first_index(map(ne, a, b))
        return (i, a[i], b[i]), ""
    (column,) = columns
    flags, want, failed, passed = column, 0, "", ""
    if isinstance(kind, Congruence):
        flags, failed = map(kind.modulus.__rmod__, column), f"expected 0 mod {kind.modulus}"
    elif isinstance(kind, SignPattern):
        positive = kind.expected_sign > 0
        skipped = sorted(n for n in kind.exceptions if 0 <= n < len(column))
        want, failed = kind.expected_sign, "expected > 0" if positive else "expected < 0"
        passed = "; ".join(f"n={n}: value {coeff_text(column[n])}" for n in skipped)
        masked = list(column)
        for n in skipped:
            masked[n] = want
        if (min(masked) > 0) if positive else (max(masked) < 0):
            return None, passed
        flags = list(map(le if positive else ge, masked, repeat(0)))
    i = first_index(flags)
    return (None, passed) if i is None else ((i, column[i], want), failed)


def _check(kind: ClaimKind, order: int) -> tuple[tuple[int, int, int] | None, str]:
    """(first failure, detail) of one claim at one order: on the columns
    of qexpr.cross_multiplied when the claim holds there, otherwise on the
    plain path (see the module docstring)."""
    parts = _parts(kind)
    if all(l <= order for _, _, l in parts):
        try:
            for _, k, l in parts:
                check_progression(k, l)
            columns = cross_multiplied(
                [(parse(text), k, l) for text, k, l in parts], order, isinstance(kind, SignPattern))
            found = _scan(kind, [c.coeffs for c in columns])
            if found[0] is None:
                return found
        except ValueError:  # any error is reported as the plain path meets it
            pass
    return _scan(kind, [dissect(_series_of(text, order), k, l).coeffs for text, k, l in parts])


def verify(record: IdentityRecord, order: int | None = None) -> VerificationReport:
    """Check one record at the given order (record default if omitted).

    When the primary reading fails, each alternate is tried in turn; the
    first that holds passes the record."""
    n = record.default_order if order is None else order
    start = time.perf_counter()
    try:
        miss, detail = _check(record.kind, n)
        notes = [record.note, detail]
        if miss is not None:
            for alt in record.alternates:
                alt_miss, alt_detail = _check(alt, n)
                if alt_miss is None:
                    notes = [record.note, f"primary reading failed at index {miss[0]}",
                             "alternate reading verified", alt_detail]
                    miss = None
                    break
        status = "pass" if miss is None else "fail"
    except ValueError as exc:  # evaluation errors are reported; faults are raised
        status, miss, notes = "error", None, [f"{type(exc).__name__}: {exc}"]
    return VerificationReport._make(
        (record.id, status, n, miss, time.perf_counter() - start, "; ".join(filter(None, notes))))


def verify_all(
    order: int | None = None,
    id_filter: str | None = None,
    records: list[IdentityRecord] | None = None,
) -> list[VerificationReport]:
    """Verify records whose id starts with id_filter, in id order."""
    pool = registry() if records is None else records
    chosen = [r for r in pool if id_filter is None or r.id.startswith(id_filter)]
    chosen.sort(key=lambda r: r.id)
    return [verify(r, order) for r in chosen]


def get_record(record_id: str) -> IdentityRecord:
    for r in registry():
        if r.id == record_id:
            return r
    raise KeyError(f"no record with id {record_id!r}")


# ---------------------------------------------------------------------------
# Text load path: id | kind | parameters | lhs | rhs


def _parse_params(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"bad parameter {piece!r}, expected key=value")
        k, v = (part.strip() for part in piece.split("=", 1))
        if k in out:
            raise ValueError(f"repeated parameter {k!r}")
        out[k] = v
    return out


def _sign_value(text: str) -> int:
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise ValueError(f"bad sign {text!r}")


def _progression(params: dict[str, str], k: str = "k", l: str = "l") -> tuple[int, int]:
    """The progression params[k]*n + params[l], popped and checked as dissect does."""
    pair = (read_int(params.pop(k), f"{k} must be an integer"),
            read_int(params.pop(l), f"{l} must be an integer"))
    check_progression(*pair)
    return pair


def _positive(name: str, text: str) -> int:
    value = read_int(text, f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _record_from_line(line: str) -> IdentityRecord:
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 5:
        raise ValueError(f"expected 5 pipe-separated fields, got {len(fields)}")
    rid, kind_name, param_text, lhs, rhs = fields
    params = _parse_params(param_text)
    order = _positive("order", params.pop("order", "300"))
    kind: ClaimKind
    if kind_name == "equality":
        kind = SeriesEquality(lhs, rhs)
    elif kind_name == "dissection":
        kind = DissectionRelation(
            lhs, *_progression(params, "k1", "l1"),
            rhs, *_progression(params, "k2", "l2"),
            _sign_value(params.pop("sign", "+")),
        )
    elif kind_name == "vanishing":
        kind = VanishingProgression(lhs, *_progression(params))
    elif kind_name == "congruence":
        kind = Congruence(lhs, *_progression(params), _positive("mod", params.pop("mod")))
    elif kind_name == "sign":
        exceptions = frozenset(read_int(x.strip(), "except must list integers")
                               for x in params.pop("except", "").split("/") if x)
        if exceptions and min(exceptions) < 0:
            raise ValueError(f"exception index must be nonnegative, got {min(exceptions)}")
        kind = SignPattern(
            lhs, *_progression(params), _sign_value(params.pop("sign")), exceptions,
        )
    else:
        raise ValueError(f"unknown kind {kind_name!r}")
    if params:
        raise ValueError(f"unknown parameter {next(iter(params))!r}")
    two_sided = kind_name in ("equality", "dissection")
    if rhs and not two_sided:
        raise ValueError(f"a {kind_name} record takes no rhs, got {rhs!r}")
    for text in (lhs, rhs) if two_sided else (lhs,):
        parse(text)
    return IdentityRecord(rid, "user record", kind, order)


def load_records(path: str) -> list[IdentityRecord]:
    """Read user records from a pipe-separated text file.

    One record per line: id | kind | parameters | lhs-expression |
    rhs-expression, with the rhs field empty for vanishing, congruence,
    and sign kinds.  Lines starting with '#' and blank lines are skipped.
    Parameters are comma-separated key=value pairs; an order=N entry
    overrides the default order.  The file is UTF-8, a leading byte-order
    mark skipped.  A malformed line (a byte that is not UTF-8, a missing,
    bad, unknown or repeated parameter, a progression dissect would reject, a
    nonpositive order or modulus, a negative sign-pattern exception, an
    rhs on a one-column kind, an expression that does not parse, or a
    repeated id) raises ValueError naming the file and line.
    """
    records: dict[str, IdentityRecord] = {}
    # surrogateescape reads a byte that is not UTF-8 as a lone surrogate.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, 1):
            if bad := re.search("[\udc80-\udcff]", raw):
                raise ValueError(f"{path}:{line_no}: byte 0x{ord(bad[0]) - 0xDC00:02x} "
                                 f"at column {bad.start() + 1} is not UTF-8")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = _record_from_line(line)
            except KeyError as exc:
                raise ValueError(f"{path}:{line_no}: missing parameter {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if record.id in records:
                raise ValueError(f"{path}:{line_no}: duplicate id {record.id!r}")
            records[record.id] = record
    return list(records.values())


# ---------------------------------------------------------------------------
# The compiled registry
#
# Shorthand for the four central products (the two sides of the main
# dissection theorems) and their "hat" companions.

G1_PRODUCT = "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf"
H1_PRODUCT = "(-q^2,-q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf"
G2_PRODUCT = "(q,q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf"
H2_PRODUCT = "(q^2,q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf"
G1_HAT = "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf^2*(q^2,q^8;q^10)_inf"
H1_HAT = "(-q^2,-q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf^2*(q^4,q^6;q^10)_inf"

# Theta building blocks of the first dissection proof.
_M1 = "(f(q^18,q^22)^2 - q^8*f(q^2,q^38)^2)"
_N1 = (
    "(q^5*f(q^12,q^28)*f(q^2,q^38) + q^6*f(q^8,q^32)*f(q^2,q^38)"
    " - q*f(q^12,q^28)*f(q^18,q^22) - q^2*f(q^8,q^32)*f(q^18,q^22))"
)
_M2 = "(q^5*f(q^10,q^30)*f(q^2,q^38) - q*f(q^10,q^30)*f(q^18,q^22))"
_N2 = (
    "(f(q^20,q^20)*f(q^18,q^22) + 2*q^5*f(q^40,q^120)*f(q^18,q^22)"
    " - q^4*f(q^20,q^20)*f(q^2,q^38) - 2*q^9*f(q^40,q^120)*f(q^2,q^38))"
)


def _ff_instance(
    a: SignedMonomial, b: SignedMonomial, c: SignedMonomial, d: SignedMonomial
) -> SeriesEquality:
    """The four-argument product rearrangement for ab = cd:

    f(a,b) f(c,d) = f(ac,bd) f(ad,bc) + a * f(b/c, (c/b)abcd) f(b/d, (d/b)abcd)
    """
    if a.times(b) != c.times(d):
        raise ValueError("instance needs ab = cd")
    abcd = a.times(b).times(c.times(d))
    lhs = Mul(ThetaF(a, b), ThetaF(c, d))
    head = Mul(ThetaF(a.times(c), b.times(d)), ThetaF(a.times(d), b.times(c)))
    tail = Mul(
        Mul(Monomial(1, a.exponent), ThetaF(b.over(c), abcd.times(c).over(b))),
        ThetaF(b.over(d), abcd.times(d).over(b)),
    )
    rhs = Add(head, tail) if a.sign > 0 else Sub(head, tail)
    return SeriesEquality(render(lhs), render(rhs))


def _family_text(which: str, r: int, s: int, t: int) -> str:
    return render(family_g(r, s, t) if which == "g" else family_h(r, s, t))


@cache
def registry() -> list[IdentityRecord]:
    """The compiled claim registry (built once, order stable)."""
    R, sm = IdentityRecord, SignedMonomial
    records: list[IdentityRecord] = []
    add = records.append

    # --- five-dissection of the first product ------------------------------
    cite = "five-dissection theorem, first product"
    add(R("T1.G0", cite, DissectionRelation(
        G1_PRODUCT, 5, 0, "(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1", 1, 0)))
    add(R("T1.G1", cite, DissectionRelation(
        G1_PRODUCT, 5, 1, "2*(q,q^2,q^3,q^4;q^5)_inf^-1*(q^2,q^8;q^10)_inf^-1", 1, 0)))
    add(R("T1.G2", cite, DissectionRelation(
        G1_PRODUCT, 5, 2, "(q,q^4;q^5)_inf^-2*(q^4,q^6;q^10)_inf^-1", 1, 0)))
    add(R("T1.G3", cite, VanishingProgression(G1_PRODUCT, 5, 3)))
    add(R("T1.G4", cite, DissectionRelation(
        G1_PRODUCT, 5, 4, "(q^2,q^3;q^5)_inf^-2*(q^4,q^6;q^10)_inf^-1", 1, 0)))

    # --- five-dissection of the second product -----------------------------
    cite = "five-dissection theorem, second product"
    add(R("T2.H0", cite, DissectionRelation(
        H1_PRODUCT, 5, 0, "(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1", 1, 0)))
    add(R("T2.H1", cite, VanishingProgression(H1_PRODUCT, 5, 1)))
    add(R("T2.H2", cite, DissectionRelation(
        H1_PRODUCT, 5, 2, "(q^2,q^3;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1", 1, 0)))
    add(R("T2.H3", cite, DissectionRelation(
        H1_PRODUCT, 5, 3, "2*(q,q^2,q^3,q^4;q^5)_inf^-1*(q^4,q^6;q^10)_inf^-1", 1, 0)))
    add(R("T2.H4", cite, DissectionRelation(
        H1_PRODUCT, 5, 4, "(q^2,q^3;q^5)_inf^-2*(q^4,q^6;q^10)_inf^-1", 1, 0, -1)))

    # --- corollaries: matching columns and strict signs ---------------------
    cite = "corollary, matching progressions of the two products"
    add(R("C.g1h1-eq", cite, DissectionRelation(G1_PRODUCT, 5, 0, H1_PRODUCT, 5, 0)))
    add(R("C.g1h1-neg", cite, DissectionRelation(
        G1_PRODUCT, 5, 4, H1_PRODUCT, 5, 4, -1)))
    cite = "corollary, strict coefficient signs"
    for l in (0, 1, 2, 4):
        exceptions = frozenset({1}) if l == 4 else frozenset()
        add(R(f"C.signs.g1.{l}", cite,
              SignPattern(G1_PRODUCT, 5, l, 1, exceptions)))
    for l, sign in ((0, 1), (2, 1), (3, 1), (4, -1)):
        exceptions = frozenset({1}) if l in (2, 4) else frozenset()
        add(R(f"C.signs.h1.{l}", cite,
              SignPattern(H1_PRODUCT, 5, l, sign, exceptions)))

    # --- general family relations at the base modulus ----------------------
    cite = "theorem, relations within the two-parameter families"
    fam = [
        ("T3.r1", "g", (1, 2, 5), 5, 1, "g", (2, 4, 5), 5, 2, 1),
        ("T3.r2", "g", (1, 2, 5), 5, 3, "g", (2, 4, 5), 5, 4, -1),
        ("T3.r3", "g", (1, 3, 5), 5, 0, "g", (2, 1, 5), 5, 0, 1),
        ("T3.r4", "g", (1, 3, 5), 5, 2, "g", (2, 1, 5), 5, 2, 1),
        ("T3.r5", "h", (1, 1, 5), 5, 0, "h", (2, 3, 5), 5, 2, 1),
        ("T3.r6", "h", (1, 1, 5), 5, 1, "h", (2, 3, 5), 5, 3, 1),
        ("T3.r7", "h", (1, 4, 5), 5, 1, "h", (2, 2, 5), 5, 0, 1),
        ("T3.r8", "h", (1, 4, 5), 5, 2, "h", (2, 2, 5), 5, 1, -1),
    ]
    for rid, w1, p1, k1, l1, w2, p2, k2, l2, sg in fam:
        add(R(rid, cite, DissectionRelation(
            _family_text(w1, *p1), k1, l1, _family_text(w2, *p2), k2, l2, sg)))

    # --- sum and difference identities for the four products ---------------
    cite = "theorem, sums and differences of the central products"
    rhs_core = "(-q,-q^4;q^5)_inf*(q^4,q^6;q^10)_inf^3"
    add(R("T4.i1", cite, SeriesEquality(
        f"{G1_PRODUCT} + {H1_PRODUCT}",
        f"2*(q^10;q^10)_inf^3/((q^2;q^2)_inf*(q^5;q^5)_inf^2)*{rhs_core}")))
    add(R("T4.i2", cite, SeriesEquality(
        f"{G2_PRODUCT} + {H2_PRODUCT}",
        "2*(q;q)_inf^2*(q^10;q^10)_inf^4/((q^2;q^2)_inf^2*(q^5;q^5)_inf^4)"
        f"*{rhs_core}")))
    add(R("T4.i3", cite, SeriesEquality(
        f"{rhs_core} - q*(-q^2,-q^3;q^5)_inf*(q^2,q^8;q^10)_inf^3",
        f"(q^2;q^2)_inf*(q^5;q^5)_inf^2/(q^10;q^10)_inf^3*{H1_PRODUCT}")))
    add(R("T4.i4", cite, SeriesEquality(
        f"{rhs_core} + q*(-q^2,-q^3;q^5)_inf*(q^2,q^8;q^10)_inf^3",
        "(q^2;q^2)_inf^2*(q^5;q^5)_inf^4/((q;q)_inf^2*(q^10;q^10)_inf^4)"
        f"*{H2_PRODUCT}")))

    # --- the same sums in classical theta-quotient clothing ----------------
    cite = "known theta-quotient restatements of the sum identities"
    kt_a = "(-q^2,-q^3,q^5;q^5)_inf^2*(q^10;q^10)_inf/(q^4,q^6;q^10)_inf"
    kt_b = "(-q,-q^4,q^5;q^5)_inf^2*(q^10;q^10)_inf/(q^2,q^8;q^10)_inf"
    add(R("CT.i1", cite, SeriesEquality(
        f"{kt_a} + {kt_b}",
        "2*(-q,-q^4,q^5;q^5)_inf*(q^2;q^2)_inf*(q^10;q^10)_inf^2"
        "/((q^2,q^8;q^10)_inf^3*(q^5;q^5)_inf)")))
    add(R("CT.i2", cite, SeriesEquality(
        f"{kt_a} + q*(-q^2,-q^3,q^5;q^5)_inf*(q^2;q^2)_inf*(q^10;q^10)_inf^2"
        "/((q^4,q^6;q^10)_inf^3*(q^5;q^5)_inf)",
        "(-q,-q^4,q^5;q^5)_inf*(q^2;q^2)_inf*(q^10;q^10)_inf^2"
        "/((q^2,q^8;q^10)_inf^3*(q^5;q^5)_inf)"),
        note="statement as circulated drops the square on the final "
             "(q^10;q^10) factor; with the square restored it is exactly "
             "the difference identity restated, and it verifies"))

    # --- theta rearrangement lemma, the instances the proofs consume -------
    cite = "product rearrangement lemma for f(a,b)f(c,d), ab = cd"
    ff_cases = [
        ("L2.ff.1", sm(-1, 8), sm(-1, 12), sm(-1, 10), sm(-1, 10)),
        ("L2.ff.2", sm(-1, 5), sm(-1, 15), sm(-1, 7), sm(-1, 13)),
        ("L2.ff.3", sm(-1, 3), sm(-1, 17), sm(-1, 5), sm(-1, 15)),
        ("L2.ff.4", sm(1, 1), sm(1, 9), sm(-1, 4), sm(-1, 6)),
        ("L2.ff.5", sm(-1, 4), sm(-1, 16), sm(-1, 6), sm(-1, 14)),
        ("L2.ff.6", sm(-1, 9), sm(-1, 11), sm(-1, 11), sm(-1, 9)),
        ("L2.ff.7", sm(-1, 1), sm(-1, 19), sm(-1, 19), sm(-1, 1)),
        ("L2.ff.8", sm(-1, 4), sm(-1, 6), sm(1, 5), sm(1, 5)),
        ("L2.ff.9", sm(-1, 1), sm(-1, 4), sm(1, 2), sm(1, 3)),
        ("L2.ff.10", sm(1, 1), sm(1, 4), sm(-1, 2), sm(-1, 3)),
    ]
    for rid, a, b, c, d in ff_cases:
        add(R(rid, cite, _ff_instance(a, b, c, d)))
    cite = "classical phi/psi lemmas"
    add(R("L2.f1a", cite, SeriesEquality("f(1,q^40)", "2*f(q^40,q^120)")))
    add(R("L2.phi2dissect", cite, SeriesEquality(
        "phi(q)", "phi(q^4) + 2*q*psi(q^8)")))
    add(R("L2.phiphi", cite, SeriesEquality(
        "4*q*(q^4;q^4)_inf*(q^20;q^20)_inf",
        "phi(q)*f(-q^5,-q^5) - f(-q,-q)*phi(q^5)")))
    add(R("L2.lem23a", cite, SeriesEquality(
        "phi(q) - phi(q^5)",
        "2*q*(q^4,q^6,q^10,q^14,q^16,q^20;q^20)_inf"
        "/(q^3,q^7,q^8,q^12,q^13,q^17;q^20)_inf")))
    add(R("L2.lem23b", cite, SeriesEquality(
        "psi(q^2) - q*psi(q^10)",
        "(q,q^9,q^10,q^11,q^19,q^20;q^20)_inf"
        "/(q^2,q^3,q^7,q^13,q^17,q^18;q^20)_inf")))

    # --- building blocks of the first dissection proof ---------------------
    cite = "first dissection proof, theta building blocks"
    add(R("L3.MN", cite, SeriesEquality(
        f"phi(q)*{_M1} + 2*psi(q^2)*{_N1}",
        f"phi(q^5)*{_M1} + 2*q*psi(q^10)*{_N1}")))
    add(R("L3.repM", cite, SeriesEquality(_M1, "f(-q^8,-q^12)*f(-q^10,-q^10)")))
    add(R("L3.repN", cite, SeriesEquality(_N1, "-q*f(q,q^9)*f(-q^4,-q^6)")))
    add(R("L3.repM2", cite, SeriesEquality(_M2, "-q*f(-q^4,-q^16)*f(-q^6,-q^14)")))
    add(R("L3.repN2", cite, SeriesEquality(_N2, "phi(q^5)*f(-q^4,-q^6)")))
    add(R("L3.phipsi", cite, SeriesEquality(
        "psi(q^2)*phi(q^5) - q*phi(q)*psi(q^10)", "(q;q)_inf*(q^5;q^5)_inf")))
    add(R("L3.iden1", cite, SeriesEquality(
        "(q,q^4;q^5)_inf^-2",
        "phi(q^5)/(q;q)_inf^2*(bsum(20,2) + q^4*bsum(20,18))"
        " - 2*psi(q^10)/(q;q)_inf^2*(q^2*bsum(20,8) + q^3*bsum(20,12))")))
    add(R("L3.iden2", cite, SeriesEquality(
        "(q^2,q^8;q^10)_inf^-1",
        "(bsum(20,2) - q^4*bsum(20,18))/(q^2;q^2)_inf")))
    add(R("L3.A0", cite, SeriesEquality(
        "(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1",
        f"(phi(q^5)*{_M1} + 2*q*psi(q^10)*{_N1})/((q;q)_inf^2*(q^2;q^2)_inf)")))
    add(R("L3.a5n", cite, DissectionRelation(
        G1_PRODUCT, 5, 0,
        f"(phi(q)*{_M1} + 2*psi(q^2)*{_N1})/((q;q)_inf^2*(q^2;q^2)_inf)", 1, 0)))
    add(R("L3.a5n1", cite, DissectionRelation(
        G1_PRODUCT, 5, 1,
        f"(2*phi(q)*{_M2} + 2*psi(q^2)*{_N2})/((q;q)_inf^2*(q^2;q^2)_inf)", 1, 0)))
    cite = "first dissection proof, bilateral sum blocks"
    s_blocks = [
        ("L3.S1", "bsum(20,2)*bsum(20,6)", "f(q^90,q^110)^2"),
        ("L3.S2", "q^4*bsum(20,18)*bsum(20,6)", "q^20*f(q^10,q^190)*f(q^90,q^110)"),
        ("L3.S3", "q^2*bsum(20,2)*bsum(20,14)", "q^20*f(q^10,q^190)*f(q^90,q^110)"),
        ("L3.S4", "q^6*bsum(20,18)*bsum(20,14)", "q^40*f(q^10,q^190)^2"),
        ("L3.S5", "q*bsum(20,2)*bsum(20,4)", "q^25*f(q^60,q^140)*f(q^10,q^190)"),
        ("L3.S6", "q^5*bsum(20,18)*bsum(20,4)", "q^5*f(q^60,q^140)*f(q^90,q^110)"),
        ("L3.S7", "q^4*bsum(20,2)*bsum(20,16)", "q^30*f(q^40,q^160)*f(q^10,q^190)"),
        ("L3.S8", "q^8*bsum(20,18)*bsum(20,16)", "q^10*f(q^40,q^160)*f(q^90,q^110)"),
    ]
    for rid, lhs, rhs in s_blocks:
        add(R(rid, cite, DissectionRelation(lhs, 5, 0, rhs, 5, 0)))

    # --- building blocks of the second dissection proof --------------------
    cite = "second dissection proof, bilateral sum blocks"
    s_defs = {
        1: "f(q,q^4)*(bsum(40,12) - q^4*bsum(40,28))",
        2: "f(q,q^4)*(q^14*bsum(40,28) - q^10*bsum(40,12))",
        3: "f(q,q^4)*(q*bsum(40,2) - q^10*bsum(40,38))",
        4: "f(q,q^4)*(q^4*bsum(40,22) - q^3*bsum(40,18))",
        5: "f(q,q^4)*(q^15*bsum(40,38) - q^9*bsum(40,22))",
        6: "f(q,q^4)*(q^8*bsum(40,18) - q^6*bsum(40,2))",
    }
    t_defs = {
        1: "f(q^2,q^3)*(bsum(40,4) - q^8*bsum(40,36))",
        2: "f(q^2,q^3)*(q^18*bsum(40,36) - q^10*bsum(40,4))",
        3: "f(q^2,q^3)*(q^2*bsum(40,6) - q^9*bsum(40,34))",
        4: "f(q^2,q^3)*(q^3*bsum(40,14) - q^6*bsum(40,26))",
        5: "f(q^2,q^3)*(q^14*bsum(40,34) - q^8*bsum(40,14))",
        6: "f(q^2,q^3)*(q^11*bsum(40,26) - q^7*bsum(40,6))",
    }
    for i in range(1, 7):
        add(R(f"L4.ST{i}", cite, DissectionRelation(s_defs[i], 5, 1, t_defs[i], 5, 2)))
    pq_blocks = [
        ("L4.PQ1", "bsum(40,6)*bsum(40,12)", "q^9*bsum(40,38)*bsum(40,4)"),
        ("L4.PQ2", "q^7*bsum(40,34)*bsum(40,12)", "bsum(40,2)*bsum(40,4)"),
        ("L4.PQ3", "q*bsum(40,14)*bsum(40,12)", "q^2*bsum(40,18)*bsum(40,4)"),
        ("L4.PQ4", "q^4*bsum(40,26)*bsum(40,12)", "q^3*bsum(40,22)*bsum(40,4)"),
        ("L4.PQ5", "q^4*bsum(40,6)*bsum(40,28)", "q^17*bsum(40,38)*bsum(40,36)"),
        ("L4.PQ6", "q^11*bsum(40,34)*bsum(40,28)", "q^8*bsum(40,2)*bsum(40,36)"),
        ("L4.PQ7", "q^5*bsum(40,14)*bsum(40,28)", "q^10*bsum(40,18)*bsum(40,36)"),
        ("L4.PQ8", "q^8*bsum(40,26)*bsum(40,28)", "q^11*bsum(40,22)*bsum(40,36)"),
    ]
    for rid, lhs, rhs in pq_blocks:
        add(R(rid, cite, DissectionRelation(lhs, 5, 1, rhs, 5, 2)))
    cite = "second dissection proof, theta product evaluations"
    add(R("L4.u1a", cite, SeriesEquality(
        "f(-q^2,-q^4)", "(q^6;q^6)_inf/(q^3;q^3)_inf^2*f(q,q^2)*f(-q,-q^2)")))
    add(R("L4.u1b", cite, SeriesEquality(
        "f(-q^4,-q^6)", "(q^10;q^10)_inf/(q^5;q^5)_inf^2*f(q^2,q^3)*f(-q^2,-q^3)")))
    add(R("L4.u1c", cite, SeriesEquality(
        "f(-q^2,-q^8)", "(q^10;q^10)_inf/(q^5;q^5)_inf^2*f(q,q^4)*f(-q,-q^4)")))
    add(R("L4.u2", cite, SeriesEquality(
        "f(q,q^4)*f(q^2,q^3)",
        "(q^2;q^2)_inf*(q^5;q^5)_inf^3/((q;q)_inf*(q^10;q^10)_inf)")))
    add(R("L4.ff1", cite, SeriesEquality(
        "f(-q^2,-q^3)*f(-q^4,-q^6)",
        "(q^2;q^2)_inf*(q^5;q^5)_inf/(q^10;q^10)_inf*f(-q^3,-q^7)")))
    add(R("L4.ff1.alt", cite, SeriesEquality(
        "f(-q^2,-q^3)*f(-q^4,-q^6)",
        "(q^5;q^5)_inf*(q^2,q^3,q^4,q^6,q^7,q^8,q^10;q^10)_inf")))
    add(R("L4.ff2", cite, SeriesEquality(
        "f(-q,-q^4)*f(-q^2,-q^8)",
        "(q^2;q^2)_inf*(q^5;q^5)_inf/(q^10;q^10)_inf*f(-q,-q^9)")))
    add(R("L4.ff2.alt", cite, SeriesEquality(
        "f(-q,-q^4)*f(-q^2,-q^8)",
        "(q^5;q^5)_inf*(q,q^2,q^4,q^6,q^8,q^9,q^10;q^10)_inf")))
    add(R("L4.ff3", cite, SeriesEquality(
        "f(-q,-q^4)*f(q^2,q^3)",
        "f(-q^3,-q^7)*f(-q^4,-q^6) - q*f(-q,-q^9)*f(-q^2,-q^8)")))
    add(R("L4.ff4", cite, SeriesEquality(
        "f(q,q^4)*f(-q^2,-q^3)",
        "f(-q^3,-q^7)*f(-q^4,-q^6) + q*f(-q,-q^9)*f(-q^2,-q^8)")))
    add(R("L4.iden3", cite, SeriesEquality(
        "(-q^2,-q^3;q^5)_inf^2",
        "(q^10;q^10)_inf^5/((q^5;q^5)_inf^4*(q^20;q^20)_inf^2)"
        "*(bsum(20,2) + q^4*bsum(20,18))"
        " + 2*(q^20;q^20)_inf^2/((q^5;q^5)_inf^2*(q^10;q^10)_inf)"
        "*(q^2*bsum(20,8) + q^3*bsum(20,12))")))
    add(R("L4.iden4", cite, SeriesEquality(
        "(q^4,q^6;q^10)_inf",
        "(bsum(20,2) - q^4*bsum(20,18))/(q^10;q^10)_inf")))

    # --- closing remarks: other moduli, parity, vanishing, signs -----------
    cite = "remarks, family relations at moduli seven and eleven"
    ambiguous = ("family symbol in the stated relation is not pinned to "
                 "either product shape; the g-form (cube on the first "
                 "factor) verifies and is primary, the h-form is retried "
                 "automatically")
    m_cases = [
        ("R5.m7a", (1, 1, 7), 7, 1, (3, 3, 7), 7, 3, 1),
        ("R5.m7b", (1, 6, 7), 7, 6, (2, 2, 7), 7, 6, -1),
        ("R5.m11a", (4, 6, 11), 11, 5, (5, 2, 11), 11, 4, -1),
        ("R5.m11b", (4, 6, 11), 11, 7, (5, 2, 11), 11, 6, 1),
    ]
    for rid, p1, k1, l1, p2, k2, l2, sg in m_cases:
        primary = DissectionRelation(
            _family_text("g", *p1), k1, l1, _family_text("g", *p2), k2, l2, sg)
        alt = DissectionRelation(
            _family_text("h", *p1), k1, l1, _family_text("h", *p2), k2, l2, sg)
        add(R(rid, cite, primary, note=ambiguous, alternates=(alt,)))

    cite = "remarks, vanishing progressions of the sign-alternating products"
    add(R("R5.vanish2.g2", cite, VanishingProgression(G2_PRODUCT, 5, 3)))
    add(R("R5.vanish2.h2", cite, VanishingProgression(H2_PRODUCT, 5, 1)))
    cite = "remarks, parity of one progression"
    add(R("R5.cong", cite, Congruence(H2_PRODUCT, 5, 3, 2)))

    cite = "remarks, relations between the hat-decorated products"
    add(R("R5.hat1", cite,
          DissectionRelation(G1_HAT, 5, 0, H1_HAT, 5, 0, 1),
          note="stated with a minus sign, but both sides start at +1; "
               "the plus-sign relation is what holds and is encoded"))
    add(R("R5.hat2", cite, DissectionRelation(G1_HAT, 5, 2, H1_HAT, 5, 1, -1)))
    add(R("R5.hat2.gvanish", cite, VanishingProgression(G1_HAT, 5, 2)))
    add(R("R5.hat2.hvanish", cite, VanishingProgression(H1_HAT, 5, 1)))
    add(R("R5.hat3", cite, DissectionRelation(G1_HAT, 5, 3, H1_HAT, 5, 3, -1)))

    cite = "conjecture, strict sign patterns of the sign-alternating products"
    for l, sign in ((0, 1), (1, -1), (2, 1), (4, -1)):
        add(R(f"R5.conj.g2.{l}", cite, SignPattern(G2_PRODUCT, 5, l, sign)))
    h2_note = ("stated for a symbol never defined; the second "
               "sign-alternating product matches the companion claims and "
               "is what is encoded")
    for l, sign in ((0, 1), (2, -1), (3, -1), (4, 1)):
        add(R(f"R5.conj.h2.{l}", cite, SignPattern(H2_PRODUCT, 5, l, sign),
              note=h2_note if l == 3 else ""))

    ids = [r.id for r in records]
    assert len(ids) == len(set(ids)), "duplicate record ids"
    return records
