"""The crossover table of tools/mul_crossover.py, on made-up times: no
product is timed and no subprocess is run."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "mul_crossover", Path(__file__).resolve().parent.parent / "tools" / "mul_crossover.py")
mul_crossover = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mul_crossover)


def test_crossover_interpolates_log_ratio_in_log_k():
    crossover = mul_crossover.crossover
    assert crossover({8: 0.5, 16: 2.0}) == pytest.approx(8 * 2**0.5)
    assert crossover({8: 0.5, 16: 0.8, 32: 1.6}) == pytest.approx(20.0)
    assert crossover({16: 1.0, 8: 0.5}) == 16  # the k are sorted first
    assert crossover({8: 1.0, 16: 2.0}) == 0
    assert crossover({8: 0.5, 16: 0.9}) is None


def test_format_table():
    cells = {
        ("uniform", 1001, 2, 1, 8): {"pairs": 5e-4, "shifted": 1e-4, "one": 2e-4, "two": 3e-4,
                                     "rule": 2e-4},
        ("uniform", 1001, 2, 1, 16): {"shifted": 4e-4, "one": 2e-4, "two": 3e-4, "rule": 2e-4},
        ("quadratic", 6001, 16, 2, 8): {"shifted": 1e-3, "split": 2e-3, "one": 9e-3,
                                        "two": 8e-3, "rule": 2e-3},
    }
    assert mul_crossover.format_table(cells) == [
        "shape      n     W  g    k     pairs   shifted     split       one       two      rule",
        "quadratic  6001  16  2    8         -     1.000     2.000     9.000     8.000     2.000",
        "uniform    1001   2  1    8     0.500     0.100         -     0.200     0.300     0.200",
        "uniform    1001   2  1   16         -     0.400         -     0.200     0.300     0.200",
        "",
        "shifted adds / rule otherwise",
        "shape      n     W  g      k=8   k=16   k=32   k=64  k=128  k=256"
        "      k*  k*^2/(nW)   k*W",
        # below 1 at its only k: k* is past it
        "quadratic  6001  16  2     0.50      -      -      -      -      -"
        "      >8      >0.00  >128",
        # 0.5 at k = 8 and 2.0 at 16 cross at 8 * 2^(1/2)
        "uniform    1001   2  1     0.50   2.00      -      -      -      -"
        "      11       0.06    23",
    ]
