"""The nine classes on theta.Record, the five claim kinds, IdentityRecord
and the three reports, behave as the dataclasses they replace did;
importing the package generates no code; and the package exports the
public names its imports bind."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import qdissect
from qdissect.combinatorics import InterpretationReport, SignScan
from qdissect.identities import (
    Congruence, DissectionRelation, IdentityRecord, SeriesEquality, SignPattern,
    VanishingProgression, VerificationReport,
)

SRC = Path(__file__).resolve().parent.parent / "src"

CLAIM_KINDS = (SeriesEquality, DissectionRelation, VanishingProgression, Congruence,
               SignPattern)

EQ = SeriesEquality("a", "b")

# Each class: its required fields, a value for each optional field that
# differs from the default, and the repr the dataclass gave with the
# defaults taken.
CASES = [
    (SeriesEquality, {"lhs": "phi(q)", "rhs": "psi(q)"}, {},
     "SeriesEquality(lhs='phi(q)', rhs='psi(q)')"),
    (DissectionRelation, {"lhs": "a", "k1": 5, "l1": 1, "rhs": "b", "k2": 5, "l2": 2},
     {"sign_factor": -1},
     "DissectionRelation(lhs='a', k1=5, l1=1, rhs='b', k2=5, l2=2, sign_factor=1)"),
    (VanishingProgression, {"expr": "e", "k": 5, "l": 3}, {},
     "VanishingProgression(expr='e', k=5, l=3)"),
    (Congruence, {"expr": "e", "k": 5, "l": 2, "modulus": 4}, {},
     "Congruence(expr='e', k=5, l=2, modulus=4)"),
    (SignPattern, {"expr": "e", "k": 5, "l": 0, "expected_sign": 1},
     {"exceptions": frozenset({1})},
     "SignPattern(expr='e', k=5, l=0, expected_sign=1, exceptions=frozenset())"),
    (IdentityRecord, {"id": "T1.G0", "citation": "cite", "kind": EQ},
     {"default_order": 60, "note": "n", "alternates": (EQ,)},
     "IdentityRecord(id='T1.G0', citation='cite', kind=SeriesEquality(lhs='a', rhs='b'), "
     "default_order=300, note='', alternates=())"),
    (VerificationReport, {"id": "T1", "status": "pass", "checked_order": 300},
     {"first_failure": (3, -1, 2), "elapsed": 0.25, "detail": "d"},
     "VerificationReport(id='T1', status='pass', checked_order=300, first_failure=None, "
     "elapsed=0.0, detail='')"),
    (InterpretationReport, {"ok": True, "checked_up_to": 10}, {"first_failure": (4, 5, 6)},
     "InterpretationReport(ok=True, checked_up_to=10, first_failure=None)"),
    (SignScan, {"k": 5, "l": 0, "up_to": 2, "values": [1, 0, -2], "signs": [1, 0, -1],
                "zeros": [1], "sign_changes": [2]}, {},
     "SignScan(k=5, l=0, up_to=2, values=[1, 0, -2], signs=[1, 0, -1], zeros=[1], "
     "sign_changes=[2])"),
]
IDS = [cls.__name__ for cls, *_ in CASES]


@pytest.mark.parametrize("cls, required, optional, text", CASES, ids=IDS)
def test_construction_and_repr(cls, required, optional, text):
    # Positional and keyword construction, a missing trailing field taking
    # its default, give one record, with the dataclass's repr.
    short = cls(*required.values())
    assert repr(short) == text
    assert cls(**required) == short
    assert cls(*list(required.values())[:1], **dict(list(required.items())[1:])) == short
    full = cls(*required.values(), *optional.values())
    assert cls(**required, **optional) == full
    fields = {**required, **optional}
    assert {name: getattr(full, name) for name in fields} == fields
    with pytest.raises(TypeError):
        cls(*fields.values(), "one too many")
    with pytest.raises(TypeError):
        cls(**required, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*list(required.values())[:-1])
    first = next(iter(required))
    with pytest.raises(TypeError):
        cls(*required.values(), **{first: required[first]})


@pytest.mark.parametrize("cls, required, optional, text", CASES, ids=IDS)
def test_make_takes_every_field_in_order(cls, required, optional, text):
    # The constructor's fast path, which verify() builds its reports by.
    fields = {**required, **optional}
    assert list(cls.__slots__) == list(fields)
    assert cls._make(tuple(fields.values())) == cls(**fields)


@pytest.mark.parametrize("cls, required, optional, text", CASES, ids=IDS)
def test_equality_and_hash_by_value(cls, required, optional, text):
    a, b = cls(**required), cls(*required.values())
    assert a == b and not a != b and a is not b
    last = list(required)[-1]
    other = cls(**{**required, last: "changed"})
    assert a != other and not a == other
    assert a != tuple(required.values())
    if cls in (*CLAIM_KINDS, IdentityRecord):
        assert hash(a) == hash(b) == hash(tuple(required.values()) + tuple(
            getattr(a, name) for name in optional))
        assert len({a, b, other}) == 2


def test_classes_with_equal_fields_differ():
    assert VanishingProgression("e", 5, 3) != SignPattern("e", 5, 3, 1)
    assert SeriesEquality("a", "b") != IdentityRecord("a", "b", EQ)


@pytest.mark.parametrize("cls, required, optional, text", CASES, ids=IDS)
def test_assignment_refused(cls, required, optional, text):
    record = cls(**required)
    for name in (*required, *optional):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert repr(record) == text


@pytest.mark.parametrize("cls", CLAIM_KINDS)
def test_claim_kinds_answer_dataclasses(cls):
    # bench/workloads.claim_texts and the tests read a kind's fields by
    # dataclasses.fields; the tests change them by dataclasses.replace.
    required, optional = next((r, o) for c, r, o, _ in CASES if c is cls)
    kind = cls(**required)
    assert dataclasses.is_dataclass(kind)
    assert [f.name for f in dataclasses.fields(kind)] == [*required, *optional]
    changed = dataclasses.replace(kind, **{next(iter(required)): "x"})
    assert type(changed) is cls and changed != kind
    assert dataclasses.replace(changed, **{next(iter(required)): required[next(iter(required))]}
                               ) == kind
    if optional:
        assert dataclasses.replace(kind, **optional) == cls(**required, **optional)


def _generated_methods(classes):
    """(class, name) of each method compiled from generated source."""
    found = []
    for cls in classes:
        for klass in cls.__mro__:
            for name, value in vars(klass).items():
                code = getattr(getattr(value, "__func__", value), "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    found.append((cls.__name__, name))
    return found


def test_no_generated_code_and_no_string_import():
    # A dataclass compiles its methods from generated source at import
    # time; no class the package exports has one.
    exported = [obj for obj in map(qdissect.__dict__.get, qdissect.__all__)
                if isinstance(obj, type)]
    assert {InterpretationReport, SignScan, VerificationReport} <= set(exported)
    assert _generated_methods(exported) == []
    # Nor does a fresh import of the CLI import the string module.
    script = ("import sys; before = set(sys.modules); import qdissect.cli; "
              "print(sorted({'string', 'qdissect.cli'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['qdissect.cli']"


def test_public_surface_is_the_imported_names():
    # __all__ is the public names __init__'s import statements bind, in
    # their order, then __version__; a star import binds exactly those.
    tree = ast.parse((SRC / "qdissect" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert qdissect.__all__ == [*public, "__version__"]
    assert len(qdissect.__all__) == 68
    bound = {name for name, value in vars(qdissect).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert bound == set(public)
    ns = {}
    exec("from qdissect import *", ns)
    assert ns.keys() - {"__builtins__"} == set(qdissect.__all__)
