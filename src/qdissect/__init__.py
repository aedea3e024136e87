"""Exact q-series toolkit: truncated integer power series, theta and
Pochhammer products, an expression language, a registry of verified
identities, and partition-counting oracles."""

from types import ModuleType as _ModuleType

from .series import (
    EvaluationError,
    LimitExceeded,
    NonUnitConstantTerm,
    TruncatedSeries,
    dissect,
    divide,
    invert,
    schoolbook_mul,
    shift,
    substitute_power,
)
from .theta import (
    InvalidFactor,
    InvalidParameters,
    InvalidThetaArgument,
    NegativeExponent,
    PochhammerFactor,
    SignedMonomial,
    bsum,
    jtp_product,
    phi,
    pochhammer,
    psi,
    theta_f,
)
from .qexpr import (
    Add,
    BSum,
    Div,
    IntLit,
    InvalidFamilyParameters,
    Monomial,
    Mul,
    Neg,
    ParseError,
    Phi,
    Poch,
    Pow,
    Psi,
    QExpr,
    Sub,
    ThetaF,
    evaluate,
    evaluate_direct,
    evaluate_text,
    family_g,
    family_h,
    parse,
    render,
)
from .identities import (
    Congruence,
    DissectionRelation,
    IdentityRecord,
    SeriesEquality,
    SignPattern,
    VanishingProgression,
    VerificationReport,
    get_record,
    load_records,
    registry,
    verify,
    verify_all,
)
from .combinatorics import (
    InterpretationReport,
    InvalidSpec,
    PartClassSpec,
    SignScan,
    count_partitions,
    counting_series,
    parse_spec,
    scan_signs,
    spec_text,
    verify_interpretation,
)

__version__ = "0.1.0"

# Every public name the imports above bind, in their order, then __version__.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
