"""Restricted partition counting with flavoured residue classes.

A PartClassSpec fixes a modulus M and a set of residue classes, each with
a flavour count.  A partition counted here uses parts whose sizes lie in
one of the residue classes mod M; parts of a class with f flavours come
in f distinguishable copies.  The generating function is the product of
(q^r; q^M)^(-f) over the classes, and counting_series is an independent
dynamic program against which series coefficients can be checked.
"""

from __future__ import annotations

import re
from math import comb
from operator import mul, ne

from .series import TruncatedSeries, first_index, read_int
from .qexpr import QExpr, column
from .theta import Record, Value, check_order


class InvalidSpec(ValueError):
    """Malformed partition-class specification."""


class PartClassSpec(Value):
    __slots__ = ("modulus", "classes")  # an int, a tuple of (residue, flavours)

    def _check(self) -> None:
        if self.modulus < 1:
            raise InvalidSpec(f"modulus must be positive, got {self.modulus}")
        seen = set()
        for residue, flavours in self.classes:
            if not 1 <= residue <= self.modulus:
                raise InvalidSpec(
                    f"residue {residue} outside 1..{self.modulus}"
                )
            if flavours < 1:
                raise InvalidSpec(f"flavours must be >= 1, got {flavours}")
            if residue in seen:
                raise InvalidSpec(f"duplicate residue {residue}")
            seen.add(residue)


_SPEC_RE = re.compile(r"^M=([^;]*);(.+)$")


def _field(name: str, text: str) -> int:
    return read_int(text.strip(), f"{name} must be an integer", InvalidSpec)


def parse_spec(text: str) -> PartClassSpec:
    """Parse "M=10;1x2,9x2,2x1" into a PartClassSpec, numbers as flags are."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise InvalidSpec(f"expected 'M=<int>;<r>x<f>,...', got {text!r}")
    modulus = _field("modulus", m.group(1))
    classes = []
    for piece in m.group(2).split(","):
        parts = piece.strip().split("x")
        if len(parts) != 2:
            raise InvalidSpec(f"bad class {piece!r}, expected '<residue>x<flavours>'")
        classes.append((_field("residue", parts[0]), _field("flavours", parts[1])))
    return PartClassSpec(modulus, tuple(classes))


def spec_text(spec: PartClassSpec) -> str:
    classes = ",".join(f"{r}x{f}" for r, f in spec.classes)
    return f"M={spec.modulus};{classes}"


def count_partitions(spec: PartClassSpec, n: int) -> int:
    """Number of flavoured partitions of n; count_partitions(spec, 0) = 1."""
    if n < 0:
        raise InvalidSpec(f"cannot partition {n}")
    return counting_series(spec, n)[n]


def counting_series(spec: PartClassSpec, order: int) -> TruncatedSeries:
    """Counts of the partitions of 0..order (exact, bottom-up DP).

    Each flavour of each admissible part size is one independent part
    type; types are applied one at a time, the standard unordered
    multiset recurrence, one pass over the counts per flavour.  A size s
    with more flavours f than the order // s parts of size s that fit is
    applied in one pass instead: its f flavours multiply the counts by
    (1 - q^s)^(-f) = sum_j C(f + j - 1, j) q^(s*j), which costs order // s
    terms per count, fewer than f passes, so f may be as large as any int.
    """
    check_order(order)
    dp = [0] * (order + 1)
    dp[0] = 1
    for residue, flavours in spec.classes:
        for size in range(residue, order + 1, spec.modulus):
            fit = order // size
            if flavours > fit:
                ways = [comb(flavours + j - 1, j) for j in range(fit + 1)]
                dp = [sum(map(mul, ways, dp[i::-size])) for i in range(order + 1)]
            else:
                for _ in range(flavours):
                    for i in range(size, order + 1):
                        dp[i] += dp[i - size]
    return TruncatedSeries(dp)


class InterpretationReport(Record):
    """The outcome of verify_interpretation: whether the counts matched
    the series up to checked_up_to, and if not, the first n where not."""

    ok: bool
    checked_up_to: int
    first_failure: tuple[int, int, int] | None = None  # (n, count side, series side)


def verify_interpretation(
    spec: PartClassSpec,
    expr: QExpr,
    k: int,
    l: int,
    up_to: int,
    sign_factor: int = 1,
    multiplier: int = 1,
) -> InterpretationReport:
    """Check sign_factor * multiplier * count(n) == dissect(expr, k, l)(n).

    The series side is the column of expr along k*n + l, n <= up_to, read
    by qexpr.column at order k*up_to + l; the counts come from the
    independent DP, which shares no machinery with it.
    """
    selected = column(expr, k, l, k * up_to + l).coeffs
    expected = counting_series(spec, up_to).scale(sign_factor * multiplier).coeffs
    n = first_index(map(ne, expected, selected))
    if n is None:
        return InterpretationReport(True, up_to)
    return InterpretationReport(False, up_to, (n, expected[n], selected[n]))


class SignScan(Record):
    """The coefficients of a series along k*n + l for n <= up_to, and
    their signs, zeros and sign changes."""

    k: int
    l: int
    up_to: int
    values: list[int]
    signs: list[int]  # -1, 0, +1 per index
    zeros: list[int]
    sign_changes: list[int]  # indices n where sign(n) != sign(n-1), zeros skipped


def scan_signs(expr: QExpr, k: int, l: int, up_to: int) -> SignScan:
    """Signs of expr's coefficients along the progression k*n + l, n <= up_to,
    read as one column by qexpr.column at order k*up_to + l."""
    values = list(column(expr, k, l, k * up_to + l).coeffs)
    signs = [0 if v == 0 else (1 if v > 0 else -1) for v in values]
    zeros = [n for n, s in enumerate(signs) if s == 0]
    changes = []
    previous = None
    for n, s in enumerate(signs):
        if s == 0:
            continue
        if previous is not None and s != previous:
            changes.append(n)
        previous = s
    return SignScan(k, l, up_to, values, signs, zeros, changes)
