"""Command-line behavior: outputs, formats, exit codes."""

import hashlib
import json
import random
import subprocess
import sys

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


def test_expand_eval_error_exit_1(capsys):
    code, _, err = run(capsys, "expand", "1/(1 - 1)", "-N", "5")
    assert code == 1
    assert "error" in err


def test_expand_power_past_coefficient_limit_exit_1(capsys):
    # (1+q)^70000 could reach 4 * 70000 bits by the bound; refused before
    # any multiply (unbounded, it would finish quickly at this order).
    code, out, err = run(capsys, "expand", "(1+q)^70000", "-N", "5")
    assert code == 1
    assert out == "" and err.startswith("error: a power 70000 of a series at order 5")


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


def test_verify_json_output_hash(capsys):
    # The whole registry's verdicts and failure data at order 300, timing
    # left out: any change to a verdict, a coefficient or a note shows.
    code, out, _ = run(capsys, "verify", "--order", "300", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    for report in reports:
        del report["elapsed"]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "1825a2c8ca0e0fc85bbdb4c8a907e0431312eb4990d5fdf5746451bf40e4dd8a"


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


def test_verify_malformed_records_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("my.v | vanishing | k=5 | q |\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(bad))
    assert code == 2
    assert f"{bad}:1: missing parameter 'l'" in err


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


def test_count_malformed_spec_exit_2(capsys):
    code, _, err = run(capsys, "count", "M=10;oops", "--n", "3")
    assert code == 2
    assert "error" in err


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


# --- installed entry point --------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qdissect.cli", "expand", "q", "-N", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 1 0 0"
