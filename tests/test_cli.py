"""Command-line behavior: outputs, formats, exit codes."""

import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qdissect.cli import main

G1_TEXT = "(-q,-q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf"
H1_TEXT = "(-q^2,-q^3;q^5)_inf^2*(q^2,q^8;q^10)_inf"
G2_TEXT = "(q,q^4;q^5)_inf^2*(q^4,q^6;q^10)_inf"
G0_RECIP = "(q,q^4;q^5)_inf^-2*(q^2,q^8;q^10)_inf^-1"
COUNT_SPEC = "M=10;1x2,9x2,2x1,8x1,4x2,6x2"
# (10^4000 - 1)^2 = 10^8000 - 2*10^4000 + 1, past the interpreter's
# int-string digit limit, written out without str().
NINES = "9" * 4000
NINES_SQUARED = "9" * 3999 + "8" + "0" * 3999 + "1"
DIGIT_LIMIT = sys.get_int_max_str_digits()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- expand ---------------------------------------------------------------------


def test_expand_product(capsys):
    code, out, _ = run(capsys, "expand", G1_TEXT, "--order", "4")
    assert code == 0
    assert out.strip() == "1 2 1 0 1"


def test_expand_literal_one(capsys):
    code, out, _ = run(capsys, "expand", "1", "--order", "3")
    assert code == 0
    assert out.strip() == "1 0 0 0"


def test_expand_psi(capsys):
    code, out, _ = run(capsys, "expand", "psi(q)", "-N", "6")
    assert code == 0
    assert out.strip() == "1 1 0 1 0 0 1"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "psi(q)", "-N", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["expr", "order", "coeffs"]
    assert payload["coeffs"] == ["1", "1", "0", "1", "0"]
    assert all(isinstance(c, str) for c in payload["coeffs"])


def test_expand_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "expand", "(q;q_inf", "-N", "5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("expr", [
    "1/(1 - 1)", "bsum(1,3)", "f(1,1)", "1/q", "1/(2+q)", "(1+q)^" + "9" * 300,
    "(q^0;q)_inf", "(q;q^0)_inf", "phi(q^0)", "psi(q^0)",
], ids=[
    "NegativeExponent", "InvalidParameters", "InvalidThetaArgument", "NegativeExponent-q",
    "NonUnitConstantTerm", "LimitExceeded", "InvalidFactor-zero", "InvalidFactor-modulus",
    "InvalidFactor-phi", "InvalidFactor-psi",
])
def test_expand_eval_error_exit_1(capsys, expr):
    # One text per error class the command line can reach.  An argument
    # outside its atom's domain exits 1 whether the parser or the
    # evaluator finds it.
    got, out, err = run(capsys, "expand", expr, "-N", "5")
    assert got == 1
    assert out == "" and err.startswith("error: ")


def test_expand_power_past_coefficient_limit_exit_1(capsys):
    # Past MAX_COEFF_BITS the exponent is bounded through the truncation:
    # (1+q)^70000 to order 5 needs few bits and prints at once, while to
    # order 300 its 8109-bit bound over 17 powering steps is refused
    # before any multiply.
    code, out, _ = run(capsys, "expand", "(1+q)^70000", "-N", "5")
    assert code == 0
    assert out == "1 70000 2449965000 57164216690000 1000330918912482500 14003832600039625014000\n"
    code, out, err = run(capsys, "expand", "(1+q)^70000", "-N", "300")
    assert code == 1
    assert out == "" and err.startswith("error: a power 70000 of a series at order 300 "
                                        "could need 17 powering steps of up to 8109-bit")


@pytest.mark.parametrize("expr", [
    "+".join(["q"] * 500), "(" * 300 + "q" + ")" * 300, "-" * 600 + "q", "q^\u00b2",
], ids=["sum", "parens", "minus", "non-ascii"])
def test_expand_deep_or_non_ascii_input_exit_2(capsys, expr):
    code, out, err = run(capsys, "expand", "--order", "5", "--", expr)
    assert code == 2
    assert out == "" and err.startswith("error: at position ")


@pytest.mark.parametrize("prefix", ["", "q^"], ids=["literal", "exponent"])
def test_expand_long_integer_literal_exit_2(capsys, prefix):
    # Past the interpreter's int-string digit limit: a ParseError at the
    # integer's position, not the bare conversion error.
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 700)
    code, out, err = run(capsys, "expand", "--order", "5", prefix + digits)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: at position {len(prefix)}: expected an integer")
    assert f"found {len(digits)} digits" in err


def test_expand_prints_coefficients_past_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "expand", f"{NINES}*{NINES}", "--order", "1")
    assert code == 0
    assert out == f"{NINES_SQUARED} 0\n"
    code, out, _ = run(capsys, "expand", f"{NINES}*{NINES}", "--order", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == [NINES_SQUARED, "0"]
    # printing leaves the interpreter-wide limit as it was
    assert sys.get_int_max_str_digits() == limit


def test_expand_rejects_nonpositive_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "q", "--order", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["expand", "q", "--order", "abc"],
     "argument --order/-N: expected a positive integer, got 'abc'"),
    (["dissect", "q", "--mod", "x", "--res", "0"],
     "argument --mod: expected a positive integer, got 'x'"),
    (["dissect", "q", "--mod", "5", "--res", "1.5"],
     "argument --res: expected a nonnegative integer, got '1.5'"),
    (["scan", "q", "--mod", "5", "--res", "0", "--upTo", "-"],
     "argument --upTo: expected a nonnegative integer, got '-'"),
    (["count", "M=7;3x2", "--n", "two"],
     "argument --n: expected a nonnegative integer, got 'two'"),
    (["count", "M=7;3x2", "--n", "-3"], "argument --n: expected a nonnegative integer, got -3"),
    # past the interpreter's int-string digit limit: named by its length
    (["expand", "q", "--order", "7" * (DIGIT_LIMIT + 700)],
     f"argument --order/-N: expected a positive integer of at most {DIGIT_LIMIT} digits, "
     f"got {DIGIT_LIMIT + 700} digits"),
    # only ASCII digits: no other Unicode digit, underscore or space
    (["expand", "q", "--order", "\u0663"],
     "argument --order/-N: expected a positive integer, got '\u0663'"),
    (["expand", "q", "--order", "1_0"],
     "argument --order/-N: expected a positive integer, got '1_0'"),
    (["expand", "q", "--order", " 7"],
     "argument --order/-N: expected a positive integer, got ' 7'"),
], ids=["order", "mod", "res", "upTo", "n", "n-negative", "order-digits", "order-arabic-indic",
        "order-underscore", "order-space"])
def test_bad_integer_flag_exit_2(capsys, argv, message):
    # The message says what was expected, not the converter's name.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "q", "--bogus", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- dissect --------------------------------------------------------------------


def test_dissect_identity_progression(capsys):
    code, out, _ = run(capsys, "dissect", "psi(q)", "--mod", "1", "--res", "0",
                       "-N", "6")
    assert code == 0
    assert out.strip() == "1 1 0 1 0 0 1"


def test_dissect_vanishing_progression(capsys):
    code, out, _ = run(capsys, "dissect", G1_TEXT, "--mod", "5", "--res", "3",
                       "-N", "100")
    assert code == 0
    assert set(out.split()) == {"0"}


def test_dissect_matches_reciprocal_expand(capsys):
    code, diss_out, _ = run(capsys, "dissect", H1_TEXT, "--mod", "5", "--res", "0",
                            "-N", "50")
    assert code == 0
    code, exp_out, _ = run(capsys, "expand", G0_RECIP, "-N", "10")
    assert code == 0
    assert diss_out.split() == exp_out.split()


def test_dissect_json_keys(capsys):
    code, out, _ = run(capsys, "dissect", "psi(q)", "--mod", "2", "--res", "1",
                       "-N", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["expr", "order", "mod", "res", "coeffs"]
    assert payload["coeffs"] == ["1", "1", "0", "0", "0"]


@pytest.mark.parametrize("command", ["dissect", "scan"])
def test_res_out_of_range(capsys, command):
    code, _, err = run(capsys, command, "psi(q)", "--mod", "5", "--res", "5")
    assert code == 2
    assert "dissection needs 0 <= l < k, got k=5, l=5" in err


# --- verify ---------------------------------------------------------------------


def test_verify_filter_passes(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "T4.", "--order", "120")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 4
    assert "4/4 records pass" in out


@pytest.mark.parametrize("order, want", [
    ("300", "1825a2c8ca0e0fc85bbdb4c8a907e0431312eb4990d5fdf5746451bf40e4dd8a"),
    ("1000", "dc6e8749e6c72dd9251c98268d84c9cbf1f06ee9be3bb5c0b632124585c9556d"),
    ("2000", "d35937df4f6da57fb1d2418c41bf538860353cffccea3a71b23c86242e59d354"),
], ids=["300", "1000", "2000"])
def test_verify_json_output_hash(capsys, order, want):
    # The whole registry's verdicts and failure data, timing left out: any
    # change to a verdict, a coefficient or a note shows.
    code, out, _ = run(capsys, "verify", "--order", order, "--format", "json")
    assert code == 0
    reports = json.loads(out)
    for report in reports:
        del report["elapsed"]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == want


def test_verify_empty_filter_warns_exit_zero(capsys):
    code, _, err = run(capsys, "verify", "--filter", "NOSUCH")
    assert code == 0
    assert "warning" in err


def test_verify_json_is_report_list(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "T1.", "--order", "80",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 5
    assert [r["id"] for r in payload] == [
        "T1.G0", "T1.G1", "T1.G2", "T1.G3", "T1.G4"]
    assert all(r["status"] == "pass" for r in payload)
    assert all(r["checkedOrder"] == 80 for r in payload)


def test_verify_text_json_verdict_parity(capsys):
    text_code, _, _ = run(capsys, "verify", "--filter", "T2.", "--order", "60")
    json_code, _, _ = run(capsys, "verify", "--filter", "T2.", "--order", "60",
                          "--format", "json")
    assert text_code == json_code == 0


def test_verify_records_file(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("u.1 | equality | | phi(q) | phi(q^4) + 2*q*psi(q^8)\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--records", str(good), "--order", "60")
    assert code == 0
    assert "u.1" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("u.2 | equality | | phi(q) | psi(q)\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--records", str(bad), "--order", "60")
    assert code == 1
    assert "first failure at index 1" in out


def test_verify_empty_selection_names_file_or_filter(tmp_path, capsys):
    # A records file with no records is named as what selected nothing,
    # even under a filter; a filter is named when the file has records.
    empty = tmp_path / "empty.txt"
    empty.write_text("# comments only\n\n", encoding="utf-8")
    for extra in ([], ["--filter", "u."]):
        code, out, err = run(capsys, "verify", "--records", str(empty), *extra)
        assert code == 0 and "0/0 records pass" in out
        assert err == f"warning: {empty} holds no records\n"
    good = tmp_path / "good.txt"
    good.write_text("u.1 | equality | | phi(q) | phi(q^4) + 2*q*psi(q^8)\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(good), "--filter", "NOSUCH")
    assert code == 0
    assert err == "warning: no records match filter 'NOSUCH'\n"


def test_verify_malformed_records_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("my.v | vanishing | k=5 | q |\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(bad))
    assert code == 2
    assert f"{bad}:1: missing parameter 'l'" in err
    bad.write_text("a | dissection | k1=1,l1=0,k2=1,l2=0,sgn=-1 | q | q\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(bad))
    assert code == 2
    assert f"{bad}:1: unknown parameter 'sgn'" in err
    bad.write_text("a | sign | k=1,l=0,sign=+,except=-3 | 1/(q;q)_inf |\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(bad))
    assert code == 2
    assert f"{bad}:1: exception index must be nonnegative, got -3" in err
    bad.write_text("a | vanishing | k=5,l=x | q |\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(bad))
    assert code == 2
    assert err == f"error: {bad}:1: l must be an integer, got 'x'\n"
    # a file that is not UTF-8 names the line of the first bad byte
    bad.write_bytes("# header\nu.1 | equality | | caf\xe9 | 1\n".encode("latin-1"))
    code, _, err = run(capsys, "verify", "--records", str(bad))
    assert code == 2
    assert err == f"error: {bad}:2: byte 0xe9 at column 23 is not UTF-8\n"


def test_verify_refuses_a_repeated_parameter(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"a | vanishing | k=5,l=3,l=1 | {G1_TEXT} |\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}:1: repeated parameter 'l'\n"


def test_verify_honours_record_order(tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text("u.low | equality | order=25 | psi(q) | psi(q)\n"
                    "u.dflt | equality | | phi(q) | phi(q)\n", encoding="utf-8")
    for extra, orders in (([], [300, 25]), (["--order", "40"], [40, 40])):
        code, out, _ = run(capsys, "verify", "--records", str(path), "--format", "json",
                           *extra)
        assert code == 0
        assert [r["checkedOrder"] for r in json.loads(out)] == orders


def test_verify_prints_failure_past_digit_limit(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(f"big | equality | order=1 | {NINES}*{NINES} | 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--records", str(path))
    assert code == 1
    assert f"first failure at index 0: {NINES_SQUARED} != 1\n" in out
    code, out, _ = run(capsys, "verify", "--records", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)[0]["firstFailure"] == {
        "index": 0, "lhs": NINES_SQUARED, "rhs": "1"}


def test_verify_records_file_with_invalid_factor(tmp_path, capsys):
    # A Pochhammer factor outside its domain is an evaluation error, but a
    # records file finds it while parsing: a malformed line, exit 2, naming
    # the file and line.
    bad = tmp_path / "bad.txt"
    bad.write_text("# header\nu.z | equality | | (q^0;q)_inf | 0\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(bad))
    assert code == 2
    assert out == ""
    assert f"{bad}:2: (q^0; q^m)_inf is identically zero" in err


@pytest.mark.parametrize("atom, error", [("f(1,1)", "InvalidThetaArgument"),
                                         ("bsum(1,5)", "InvalidParameters")])
def test_verify_records_file_with_invalid_theta(tmp_path, capsys, atom, error):
    # A theta or bsum outside its domain parses; its record is evaluated
    # and reports the error (exit 1), and the file is not malformed.
    bad = tmp_path / "bad.txt"
    bad.write_text(f"x.1 | vanishing | k=1,l=0 | {atom} |\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(bad))
    assert code == 1
    assert err == ""
    assert out.startswith("ERROR x.1 ") and f"[{error}: " in out


def test_verify_missing_records_file(capsys):
    code, _, err = run(capsys, "verify", "--records", "/no/such/file.txt")
    assert code == 2
    assert "error" in err


# --- scan -----------------------------------------------------------------------


def test_scan_all_positive(capsys):
    code, out, _ = run(capsys, "scan", G2_TEXT, "--mod", "5", "--res", "0",
                       "--upTo", "20")
    assert code == 0
    assert "no zeros" in out
    assert "no sign changes" in out
    body = [line for line in out.splitlines() if line.strip()[:1].isdigit()]
    assert len(body) == 21
    assert all(" + " in line or line.split()[1] == "+" for line in body)


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", H1_TEXT, "--mod", "5", "--res", "4",
                       "--upTo", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == [
        "expr", "mod", "res", "upTo", "values", "signs", "zeros", "signChanges"]
    assert payload["signs"][0] == "-"
    assert payload["zeros"] == [1]
    assert payload["signChanges"] == []


def test_scan_prints_values_past_digit_limit(capsys):
    argv = ("scan", f"{NINES}*{NINES}", "--mod", "1", "--res", "0", "--upTo", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == f"   0  +  {NINES_SQUARED}"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [NINES_SQUARED]


def test_scan_parse_error_exit_2(capsys):
    code, _, _ = run(capsys, "scan", "f(", "--mod", "5", "--res", "0")
    assert code == 2


# --- count ----------------------------------------------------------------------


def test_count_example(capsys):
    code, out, _ = run(capsys, "count", COUNT_SPEC, "--n", "2")
    assert code == 0
    assert out.strip() == "4"


def test_count_zero_is_one(capsys):
    code, out, _ = run(capsys, "count", "M=7;3x2", "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", COUNT_SPEC, "--n", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["spec", "n", "count"]
    assert payload["count"] == "16"


def test_count_many_flavours_in_one_pass(capsys):
    # Ten billion flavours of parts of size 1: one pass of the binomial
    # series C(f + j - 1, j), not one pass per flavour.
    code, out, _ = run(capsys, "count", "M=10;1x10000000000", "--n", "10")
    assert code == 0
    assert out.strip() == str(math.comb(10**10 + 9, 10))


def test_count_malformed_spec_exit_2(capsys):
    code, _, err = run(capsys, "count", "M=10;oops", "--n", "3")
    assert code == 2
    assert "error" in err
    # a number of the spec that is not ASCII digits is named by its field
    for spec, message in (
        ("M=10;1_0x1", "residue must be an integer, got '1_0'"),
        ("M=\u0661\u0660;1x1", "modulus must be an integer, got '\u0661\u0660'"),
    ):
        code, _, err = run(capsys, "count", spec, "--n", "10")
        assert (code, err) == (2, f"error: {message}\n")


# --- fuzz -----------------------------------------------------------------------


def _smono(rng: random.Random) -> str:
    body = rng.choice(["1", "q", f"q^{rng.randint(0, 4)}"])
    return "-" + body if rng.random() < 0.4 else body


def _grammar_text(rng: random.Random, depth: int) -> str:
    """A random expression of the documented grammar: small literals,
    exponents mostly small, one in five up to 10^300 in size."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            lambda: str(rng.randint(0, 9)),
            lambda: rng.choice(["q", f"q^{rng.randint(0, 6)}"]),
            lambda: f"({_smono(rng)},{_smono(rng)};q^{rng.randint(0, 4)})_inf",
            lambda: f"f({_smono(rng)},{_smono(rng)})",
            lambda: f"{rng.choice(['phi', 'psi'])}(q^{rng.randint(0, 3)})",
            lambda: f"bsum({rng.randint(0, 4)},{rng.randint(-5, 5)})",
        ])()
    a = _grammar_text(rng, depth - 1)
    op = rng.choice("+-*/^n(")
    if op == "^":
        if rng.random() < 0.2:  # up to 10^300: refused or cheap, never slow
            bound = 10 ** rng.randint(1, 300)
            return f"({a})^{rng.randint(-bound, bound)}"
        return f"({a})^{rng.randint(-3, 5)}"
    if op == "n":
        return f"-{a}"
    if op == "(":
        return f"({a})"
    return f"{a} {op} {_grammar_text(rng, depth - 1)}"


def _mutate(rng: random.Random, text: str) -> str:
    """Up to three one-character deletions, insertions or replacements."""
    alphabet = "q^()+-*/,;_inf0123456789 phsbu1"
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice("dir")
        if edit == "d":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(alphabet) + text[i + (edit == "r"):]
    return text


def test_cli_fuzz_exit_codes(capsys):
    # Any expression gives exit 0, 1 or 2 and no exception escapes main.
    rng = random.Random(5150)
    codes = set()
    for _ in range(400):
        text = _mutate(rng, _grammar_text(rng, rng.randint(0, 3)))
        mod = rng.randint(1, 5)
        res = rng.randrange(mod) if rng.random() < 0.9 else mod  # res == mod: usage error
        command = rng.choice([
            ["expand", "--order", str(rng.randint(1, 30))],
            ["dissect", "--mod", str(mod), "--res", str(res),
             "--order", str(rng.randint(1, 30))],
            ["scan", "--mod", str(mod), "--res", str(res), "--upTo", str(rng.randint(0, 5))],
        ])
        code = main([*command, "--", text])
        capsys.readouterr()
        assert code in (0, 1, 2), (command, text)
        codes.add(code)
    assert codes == {0, 1, 2}


# --- transcript -----------------------------------------------------------------

TRANSCRIPT_RECORDS = (
    "u.pass | equality | order=40 | phi(q) | phi(q^4) + 2*q*psi(q^8)\n"
    "u.fail | equality | order=40 | phi(q) | psi(q)\n"
    "u.err | equality | order=40 | 1/(1-1) | 1\n"
)
TRANSCRIPT_ARGV = [
    ["expand", G1_TEXT, "-N", "12"],
    ["expand", "f(1,1)"],
    ["expand", "q^("],
    ["dissect", H1_TEXT, "--mod", "5", "--res", "0", "-N", "50"],
    ["dissect", "psi(q)", "--mod", "5", "--res", "7"],
    ["scan", "f(-q,-q^2)", "--mod", "1", "--res", "0", "--upTo", "10"],
    ["count", COUNT_SPEC, "--n", "5"],
    ["count", "M=10;oops", "--n", "3"],
    ["verify", "--filter", "R5.m7"],
    ["verify", "--filter", "NOSUCH"],
    ["verify", "--records", "RECORDS"],
]


def test_cli_transcript_digest(tmp_path, capsys):
    # Every command in both formats, with exits 0, 1 and 2, pinned as one
    # digest over (argv, exit code, stdout, stderr): any change in what the
    # command line prints, where, or with which exit code, shows.  Elapsed
    # times are masked, and the records file is hashed by its placeholder.
    records = tmp_path / "records.txt"
    records.write_text(TRANSCRIPT_RECORDS, encoding="utf-8")
    transcript = []
    for argv in TRANSCRIPT_ARGV:
        for fmt in ("text", "json"):
            shown = [*argv, "--format", fmt]
            code, out, err = run(capsys, *[str(records) if a == "RECORDS" else a
                                           for a in shown])
            out = re.sub(r"\(order (\d+), \d+\.\d{3}s\)", r"(order \1, T)", out)
            out = re.sub(r'"elapsed": [^,\n}]+', '"elapsed": T', out)
            transcript.append([shown, code, out, err])
    assert sorted({code for _, code, _, _ in transcript}) == [0, 1, 2]
    digest = hashlib.sha256(json.dumps(transcript).encode()).hexdigest()
    assert digest == "cdbafd057e5b8968a811c1b3c089f329a0abab49d6454415f0978622f855e4eb"


# --- README examples ----------------------------------------------------------------


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of each `$ qdissect` line in the README's
    Command line block that shows output."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, current = [], None
    for line in block.splitlines():
        if line.startswith("$ qdissect "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif line and not line.startswith("#") and current:
            current[1].append(line)
        else:
            current = None
    return [example for example in examples if example[1]]


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv,shown", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_command_line_example(capsys, argv, shown):
    # Timings are masked, and a "..." line skips to the final lines.
    def masked(lines):
        return [re.sub(r"\d+\.\d{3}s", "T", line) for line in lines]

    code, out, _ = run(capsys, *argv)
    assert code == 0
    got, want = masked(out.splitlines()), masked(shown)
    if "..." in want:
        i = want.index("...")
        head, tail = want[:i], want[i + 1:]
        assert got[:i] == head and got[len(got) - len(tail):] == tail
    else:
        assert got == want


# --- installed entry point --------------------------------------------------------


def test_console_script_runs():
    # The child gets src on its path: pytest's pythonpath reaches only this process.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qdissect.cli", "expand", "q", "-N", "3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 1 0 0"
