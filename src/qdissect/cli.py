"""Command-line front end.

Five subcommands: expand an expression to coefficients, extract an
arithmetic progression (dissect), verify the identity registry, scan
coefficient signs along a progression, and count flavoured partitions.

Exit codes: 0 all requested checks pass, 1 a check failed or evaluation
hit a domain error, 2 usage or parse error.  Every printed coefficient
goes through series.coeff_text, which writes it in full whatever its
width.  JSON output keeps a stable key order and serializes coefficients
as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinatorics import count_partitions, parse_spec, scan_signs
from .identities import load_records, verify_all
from .qexpr import evaluate, parse
from .series import LimitExceeded, NonUnitConstantTerm, check_progression, coeff_text, dissect
from .theta import InvalidParameters, InvalidThetaArgument, NegativeExponent, ZeroProduct

_EVAL_ERRORS = (
    NegativeExponent,
    ZeroProduct,
    InvalidThetaArgument,
    InvalidParameters,
    NonUnitConstantTerm,
    LimitExceeded,
)

_SIGN_CHAR = {1: "+", 0: "0", -1: "-"}


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _coeff_strings(coeffs) -> list[str]:
    return list(map(coeff_text, coeffs))


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _cmd_expand(args: argparse.Namespace) -> int:
    expr = parse(args.expr)
    series = evaluate(expr, args.order)
    if args.format == "json":
        _emit_json({
            "expr": args.expr,
            "order": args.order,
            "coeffs": _coeff_strings(series.coeffs),
        })
    else:
        print(" ".join(_coeff_strings(series.coeffs)))
    return 0


def _cmd_dissect(args: argparse.Namespace) -> int:
    check_progression(args.mod, args.res)
    expr = parse(args.expr)
    series = evaluate(expr, args.order)
    selected = dissect(series, args.mod, args.res)
    if args.format == "json":
        _emit_json({
            "expr": args.expr,
            "order": args.order,
            "mod": args.mod,
            "res": args.res,
            "coeffs": _coeff_strings(selected.coeffs),
        })
    else:
        print(" ".join(_coeff_strings(selected.coeffs)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    records = load_records(args.records) if args.records else None
    reports = verify_all(order=args.order, id_filter=args.filter, records=records)
    if not reports:
        print(f"warning: no records match filter {args.filter!r}", file=sys.stderr)
    if args.format == "json":
        _emit_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            line = f"{r.status.upper():5s} {r.id}  (order {r.checked_order}, {r.elapsed:.3f}s)"
            if r.first_failure is not None:
                i, lhs, rhs = r.first_failure
                line += f"  first failure at index {i}: {coeff_text(lhs)} != {coeff_text(rhs)}"
            if r.detail:
                line += f"  [{r.detail}]"
            print(line)
        passed = sum(1 for r in reports if r.status == "pass")
        print(f"{passed}/{len(reports)} records pass")
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    check_progression(args.mod, args.res)
    expr = parse(args.expr)
    result = scan_signs(expr, args.mod, args.res, args.up_to)
    if args.format == "json":
        _emit_json({
            "expr": args.expr,
            "mod": args.mod,
            "res": args.res,
            "upTo": args.up_to,
            "values": _coeff_strings(result.values),
            "signs": [_SIGN_CHAR[s] for s in result.signs],
            "zeros": result.zeros,
            "signChanges": result.sign_changes,
        })
    else:
        for n, (value, sign) in enumerate(zip(result.values, result.signs)):
            print(f"{n:4d}  {_SIGN_CHAR[sign]}  {coeff_text(value)}")
        print(f"zeros at n = {result.zeros}" if result.zeros else "no zeros")
        print(f"sign changes at n = {result.sign_changes}"
              if result.sign_changes else "no sign changes")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    value = count_partitions(spec, args.n)
    if args.format == "json":
        _emit_json({"spec": args.spec, "n": args.n, "count": coeff_text(value)})
    else:
        print(coeff_text(value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdissect",
        description="Exact q-series expansion, dissection, and identity checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p: argparse.ArgumentParser, default: int | None = 300,
                  help_text: str = "truncation order (default 300)") -> None:
        p.add_argument("--order", "-N", type=_positive, default=default, help=help_text)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    p = sub.add_parser("expand", help="print series coefficients 0..order")
    p.add_argument("expr", help="expression to expand")
    add_order(p)
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("dissect",
                       help="print the coefficients along mod*n + res")
    p.add_argument("expr", help="expression to dissect")
    p.add_argument("--mod", type=_positive, required=True, help="progression modulus")
    p.add_argument("--res", type=_nonnegative, required=True, help="progression residue")
    add_order(p)
    add_format(p)
    p.set_defaults(func=_cmd_dissect)

    p = sub.add_parser("verify", help="check identity records")
    p.add_argument("--filter", default=None, help="only ids with this prefix")
    p.add_argument("--records", default=None, metavar="FILE",
                   help="verify records from FILE instead of the built-in registry")
    add_order(p, None, "truncation order for every record (default: each record's "
                       "own order=N; 300 for the registry)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="tabulate coefficient signs along mod*n + res")
    p.add_argument("expr", help="expression to scan")
    p.add_argument("--mod", type=_positive, required=True, help="progression modulus")
    p.add_argument("--res", type=_nonnegative, required=True, help="progression residue")
    p.add_argument("--upTo", dest="up_to", type=_nonnegative, default=200,
                   help="largest progression index n (default 200)")
    add_format(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("count", help="count flavoured partitions of n")
    p.add_argument("spec", help="part classes, e.g. \"M=10;1x2,9x2,2x1,8x1,4x2,6x2\"")
    p.add_argument("--n", type=_nonnegative, required=True, help="number to partition")
    add_format(p)
    p.set_defaults(func=_cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _EVAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # parse, spec, records and usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
