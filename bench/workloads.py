"""Workload definitions: the inputs each workload draws from its seed, and
the correctness gates that decide which of its items failed.

Nothing here imports qdissect at module level, so the parent process can
draw inputs without loading the package it measures.  Functions that need
the package take its modules as arguments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

WORKLOADS = ("verify-registry", "expand-partitions", "theta-lemmas")

# Truncation order of each workload.  expand-partitions runs at 1000, not
# 2500: a spec at 2500 costs 1.5-3 s, too slow to pool 100 item latencies
# in one run, while at 1000 with about 1.75 flavours per unit of modulus its
# coefficients still grow past 128 bits.
ORDERS = {
    "verify-registry": 1000,
    "expand-partitions": 1000,
    "theta-lemmas": 6000,
}

# One partition spec per modulus, so no two items of a pass share a
# Pochhammer factor and nothing is reused across items.  The moduli sit
# around 10, as in the specs of the README and the acceptance tests.
EXPAND_MODULI = tuple(range(6, 16))


def expand_shape(modulus: int) -> list[int]:
    """Flavours of each residue pair {r, M - r} of a spec.

    Like the repository's own specs, a spec has 4 to 8 classes of 1 to 3
    flavours, in pairs {r, M - r} with equal flavours.  It has about 1.75
    flavours per unit of modulus in total, split as evenly as the pairs
    allow, which puts its coefficients past 128 bits at order 1000.
    """
    pairs = min(4, (modulus - 1) // 2)
    base, extra = divmod(min(3 * pairs, 7 * modulus // 8), pairs)
    return [base + 1] * extra + [base] * (pairs - extra)


# Record-id prefixes of the registry, for the per-group breakdown.
RECORD_GROUPS = ("T1", "T2", "T3", "T4", "C", "CT", "L2", "L3", "L4", "R5")


def record_group(record_id: str) -> str:
    return record_id.split(".", 1)[0]


# ---------------------------------------------------------------------------
# expand-partitions inputs


def _mono(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def partition_items(seed: int) -> list[tuple[str, str]]:
    """(spec text, product expression) pairs drawn from the seed.

    Every modulus in EXPAND_MODULI is used once, with the flavours of
    expand_shape(M).  The seed draws the order of the moduli, the residues
    and which residue gets which flavour count, not the amount of work, so
    runs with different seeds stay comparable.
    """
    rng = random.Random(seed)
    moduli = list(EXPAND_MODULI)
    rng.shuffle(moduli)
    items = []
    for m in moduli:
        flavours = expand_shape(m)
        rng.shuffle(flavours)
        low = rng.sample(range(1, (m + 1) // 2), len(flavours))
        classes = sorted(
            (r, f) for s, f in zip(low, flavours) for r in (s, m - s)
        )
        spec = f"M={m};" + ",".join(f"{r}x{f}" for r, f in classes)
        expr = "*".join(
            f"({_mono(r)};{_mono(m)})_inf^-{f}" for r, f in classes
        )
        items.append((spec, expr))
    return items


def coeff_digest(coeffs) -> str:
    """Digest of a coefficient sequence; equal digests mean equal sequences."""
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def partition_oracle(combinatorics, items, order: int) -> list[str]:
    """Digest of counting_series for each spec: the DP shares no code with
    the expression evaluator."""
    return [
        coeff_digest(combinatorics.counting_series(combinatorics.parse_spec(spec), order).coeffs)
        for spec, _ in items
    ]


def expand_failures(items, expected: list[str], got: list[str | None]) -> list[str]:
    """Specs whose expansion digest is missing or differs from the oracle's."""
    if len(got) != len(items):
        return [spec for spec, _ in items]
    return [spec for (spec, _), want, have in zip(items, expected, got) if have != want]


# ---------------------------------------------------------------------------
# theta-lemmas selection


def claim_texts(kind) -> list[str]:
    """Expression texts of one claim (its str-valued fields)."""
    return [
        value for value in (getattr(kind, f.name) for f in dataclasses.fields(kind))
        if isinstance(value, str)
    ]


def theta_only(qexpr, node) -> bool:
    """True when the tree uses only f/phi/psi/bsum atoms besides integers and
    monomials: no Pochhammer symbol, no division, no negative power."""
    atoms = (qexpr.ThetaF, qexpr.Phi, qexpr.Psi, qexpr.BSum, qexpr.IntLit, qexpr.Monomial)
    stack = [node]
    while stack:
        e = stack.pop()
        if isinstance(e, atoms):
            continue
        if isinstance(e, (qexpr.Add, qexpr.Sub, qexpr.Mul)):
            stack += (e.left, e.right)
        elif isinstance(e, qexpr.Neg):
            stack.append(e.operand)
        elif isinstance(e, qexpr.Pow) and e.exponent >= 0:
            stack.append(e.base)
        else:
            return False
    return True


def theta_lemma_records(qexpr, records) -> list:
    """Records every claim text of which (alternates included) is theta-only."""
    return [
        r for r in records
        if all(
            theta_only(qexpr, qexpr.parse(text))
            for kind in (r.kind, *r.alternates)
            for text in claim_texts(kind)
        )
    ]


# ---------------------------------------------------------------------------
# verification gate


# The registry at the seed commit.  A pass must verify every one of these
# records, whatever the code under test reports; records added later are
# verified too.
SEED_REGISTRY_IDS = (
    "C.g1h1-eq", "C.g1h1-neg", "C.signs.g1.0", "C.signs.g1.1", "C.signs.g1.2",
    "C.signs.g1.4", "C.signs.h1.0", "C.signs.h1.2", "C.signs.h1.3", "C.signs.h1.4",
    "CT.i1", "CT.i2",
    "L2.f1a", "L2.ff.1", "L2.ff.10", "L2.ff.2", "L2.ff.3", "L2.ff.4", "L2.ff.5",
    "L2.ff.6", "L2.ff.7", "L2.ff.8", "L2.ff.9", "L2.lem23a", "L2.lem23b",
    "L2.phi2dissect", "L2.phiphi",
    "L3.A0", "L3.MN", "L3.S1", "L3.S2", "L3.S3", "L3.S4", "L3.S5", "L3.S6",
    "L3.S7", "L3.S8", "L3.a5n", "L3.a5n1", "L3.iden1", "L3.iden2", "L3.phipsi",
    "L3.repM", "L3.repM2", "L3.repN", "L3.repN2",
    "L4.PQ1", "L4.PQ2", "L4.PQ3", "L4.PQ4", "L4.PQ5", "L4.PQ6", "L4.PQ7",
    "L4.PQ8", "L4.ST1", "L4.ST2", "L4.ST3", "L4.ST4", "L4.ST5", "L4.ST6",
    "L4.ff1", "L4.ff1.alt", "L4.ff2", "L4.ff2.alt", "L4.ff3", "L4.ff4",
    "L4.iden3", "L4.iden4", "L4.u1a", "L4.u1b", "L4.u1c", "L4.u2",
    "R5.cong", "R5.conj.g2.0", "R5.conj.g2.1", "R5.conj.g2.2", "R5.conj.g2.4",
    "R5.conj.h2.0", "R5.conj.h2.2", "R5.conj.h2.3", "R5.conj.h2.4", "R5.hat1",
    "R5.hat2", "R5.hat2.gvanish", "R5.hat2.hvanish", "R5.hat3", "R5.m11a",
    "R5.m11b", "R5.m7a", "R5.m7b", "R5.vanish2.g2", "R5.vanish2.h2",
    "T1.G0", "T1.G1", "T1.G2", "T1.G3", "T1.G4",
    "T2.H0", "T2.H1", "T2.H2", "T2.H3", "T2.H4",
    "T3.r1", "T3.r2", "T3.r3", "T3.r4", "T3.r5", "T3.r6", "T3.r7", "T3.r8",
    "T4.i1", "T4.i2", "T4.i3", "T4.i4",
)

# The theta-lemma records at the seed commit, as the AST selection finds
# them.  Each must still be selected and pass.
SEED_THETA_LEMMA_IDS = (
    "L2.ff.1", "L2.ff.2", "L2.ff.3", "L2.ff.4", "L2.ff.5", "L2.ff.6",
    "L2.ff.7", "L2.ff.8", "L2.ff.9", "L2.ff.10", "L2.f1a", "L2.phi2dissect",
    "L3.MN", "L3.repM", "L3.repN", "L3.repM2", "L3.repN2",
    "L3.S1", "L3.S2", "L3.S3", "L3.S4", "L3.S5", "L3.S6", "L3.S7", "L3.S8",
    "L4.ST1", "L4.ST2", "L4.ST3", "L4.ST4", "L4.ST5", "L4.ST6",
    "L4.PQ1", "L4.PQ2", "L4.PQ3", "L4.PQ4", "L4.PQ5", "L4.PQ6", "L4.PQ7",
    "L4.PQ8", "L4.ff3", "L4.ff4",
)


def expected_ids(seed_ids, current_ids) -> list[str]:
    """The seed's ids, then any the code under test adds.  An id the code
    no longer reports stays expected, so it counts as failed."""
    seen = set(seed_ids)
    return list(seed_ids) + [rid for rid in current_ids if rid not in seen]



def verify_failures(expected_ids, outcomes, exit_code: int | None) -> list[str]:
    """Ids of expected records that did not pass.

    `outcomes` is a list of (id, status) pairs as reported.  A record
    fails unless it is reported exactly once with status "pass".  A crash
    (exit code None), a report for a record that was not asked for, or a
    nonzero exit with no failing record fails every record.
    """
    expected = list(expected_ids)
    counts: dict[str, int] = {}
    passed: set[str] = set()
    for rid, status in outcomes:
        counts[rid] = counts.get(rid, 0) + 1
        if status == "pass":
            passed.add(rid)
    if exit_code is None or not set(counts) <= set(expected):
        return expected
    failed = [rid for rid in expected if counts.get(rid) != 1 or rid not in passed]
    return failed if failed or exit_code == 0 else expected
