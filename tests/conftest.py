"""Shared test helpers."""

import dataclasses

import pytest

from qdissect.identities import (
    Congruence, DissectionRelation, SeriesEquality, SignPattern, VanishingProgression,
)
from qdissect.qexpr import evaluate_direct, parse
from qdissect.series import check_progression


def claim_fields(kind):
    """A claim kind's fields, {name: value} in order.  The tests read a
    kind's fields through this helper and change them through replaced,
    so how the kinds expose their fields is stated here alone."""
    return {f.name: getattr(kind, f.name) for f in dataclasses.fields(kind)}


def replaced(kind, **changes):
    """A copy of the claim kind with the named fields changed."""
    return dataclasses.replace(kind, **changes)


def direct_check(kind, order):
    """status, first failure and detail of a claim by one loop over the
    coefficients of each text, each text expanded by the direct path: no
    theta normal form, no columns and no cache, so it shares none of the
    code verify decides a claim with."""
    if isinstance(kind, SeriesEquality):
        parts = [(kind.lhs, 1, 0), (kind.rhs, 1, 0)]
    elif isinstance(kind, DissectionRelation):
        parts = [(kind.lhs, kind.k1, kind.l1), (kind.rhs, kind.k2, kind.l2)]
    else:
        parts = [(kind.expr, kind.k, kind.l)]
    columns = []
    try:
        for text, k, l in parts:
            cs = evaluate_direct(parse(text), order).coeffs
            check_progression(k, l)
            if l > order:
                raise ValueError(f"residue {l} exceeds series order {order}")
            columns.append(cs[l::k])
    except ValueError as exc:
        return "error", None, f"{type(exc).__name__}: {exc}"
    if len(columns) == 2:
        a, b = columns
        sign = getattr(kind, "sign_factor", 1)
        for i in range(min(len(a), len(b))):
            if a[i] != sign * b[i]:
                return "fail", (i, a[i], sign * b[i]), ""
        return "pass", None, ""
    notes = []
    for n, c in enumerate(columns[0]):
        if isinstance(kind, VanishingProgression) and c != 0:
            return "fail", (n, c, 0), ""
        if isinstance(kind, Congruence) and c % kind.modulus:
            return "fail", (n, c, 0), f"expected 0 mod {kind.modulus}"
        if isinstance(kind, SignPattern):
            if n in kind.exceptions:
                notes.append(f"n={n}: value {c}")
            elif c * kind.expected_sign <= 0:
                return "fail", (n, c, kind.expected_sign), (
                    "expected > 0" if kind.expected_sign > 0 else "expected < 0")
    return "pass", None, "; ".join(notes)


@pytest.fixture
def claim_oracle():
    """direct_check, the claim oracle verify is tested against."""
    return direct_check
