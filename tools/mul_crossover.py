"""Crossover table of the multiply's paths: where shifted adds pay.

    PYTHONPATH=src python3 tools/mul_crossover.py [--repeat R] [--seed S]

Each cell is one product of a sparse operand, k terms of +-1, by a dense
one of n terms, taken by every path `series._mul_lists` can choose, each
forced on the same two profiles: term pairs (`_mul_terms`, for k <= 32),
shifted adds (`_shifted_adds`), the q^g split (`_split`, when the dense
operand is in q^2; its sub-products are dispatched by the rule) and
packing at one point and at two (`_packed`).  Each time is the best of R
runs (default 7) of timeit in CPU time, of at least 10 ms each, the paths
taking turns.

The cells span:
- n = 1001 and 6001 terms;
- digits of W = 1, 2, 8 and 16 bytes, set by the dense operand's largest
  |c| (W = 1 only for k < 128, since the bound is k itself);
- k = 8, 16, ..., 256;
- the sparse operand's support, "uniform" (random positions below n) or
  "quadratic" (m^2 (n - 1) / (k - 1)^2, dense near 0 like a theta's);
- the dense operand's step g = 1, or g = 2 (zero at odd positions).

It prints each cell's times, then the table that `series.SHIFTED_ADDS`
quotes: the time by shifted adds over the time of the path the rule takes
otherwise (the split for g = 2, else packing at one point or two by
TWO_POINT_BYTES), the crossover k* where that ratio reaches 1 (found by
log-log interpolation between the k measured; ">" when the ratio stays
below 1 up to the last k), k*^2 / (n * W) and k* * W.
"""

from __future__ import annotations

import argparse
import math
import random
import time
import timeit

KS = (8, 16, 32, 64, 128, 256)
WIDTHS = (1, 2, 8, 16)
SIZES = (1001, 6001)
SHAPES = ("uniform", "quadratic")
STEPS = (1, 2)
PAIRS_UP_TO = 32
_PATHS = ("pairs", "shifted", "split", "one", "two", "rule")


def crossover(ratios: dict[int, float]) -> float | None:
    """The k at which a ratio measured at ascending k first reaches 1, by
    interpolating log ratio linearly in log k; 0 if it is 1 or more at the
    first k, None if it stays below 1."""
    ks = sorted(ratios)
    if ratios[ks[0]] >= 1:
        return 0
    for low, high in zip(ks, ks[1:]):
        if ratios[high] >= 1:
            a, b = math.log(ratios[low]), math.log(ratios[high])
            return low * (high / low) ** (-a / (b - a))
    return None


def format_table(cells: dict[tuple, dict[str, float]]) -> list[str]:
    """The lines printed for cells {(shape, n, width, g, k): {path: seconds}}:
    one line per cell with every path's time in ms, then one row per
    (shape, n, width, g) with the ratio "shifted" / "rule" at each k, the
    crossover k* and k*^2 / (n * width)."""
    lines = ["shape      n     W  g    k  " + "  ".join(f"{p:>8}" for p in _PATHS)]
    for (shape, n, width, g, k), times in sorted(cells.items()):
        shown = (f"{times[p] * 1e3:8.3f}" if p in times else f"{'-':>8}" for p in _PATHS)
        lines.append(f"{shape:9} {n:5} {width:3} {g:2} {k:4}  " + "  ".join(shown))
    lines.append("")
    lines.append("shifted adds / rule otherwise")
    lines.append("shape      n     W  g  " + "".join(f"{'k=' + str(k):>7}" for k in KS)
                 + "      k*  k*^2/(nW)   k*W")
    rows: dict[tuple, dict[int, float]] = {}
    for (shape, n, width, g, k), times in cells.items():
        rows.setdefault((shape, n, width, g), {})[k] = times["shifted"] / times["rule"]
    for (shape, n, width, g), ratios in sorted(rows.items()):
        shown = "".join(f"{ratios[k]:7.2f}" if k in ratios else f"{'-':>7}" for k in KS)
        k_star, more = crossover(ratios), ""
        if k_star is None:
            k_star, more = max(ratios), ">"
        figures = (f"{more}{k_star:.0f}", f"{more}{k_star ** 2 / (n * width):.2f}",
                   f"{more}{k_star * width:.0f}")
        lines.append(f"{shape:9} {n:5} {width:3} {g:2}  {shown}"
                     + "".join(f"{f:>{w}}" for f, w in zip(figures, (8, 11, 6))))
    return lines


def operands(shape: str, n: int, width: int, g: int, k: int, rng: random.Random):
    """The sparse and the dense coefficient lists of one cell, or None when
    no dense magnitude gives digits of `width` bytes at this k (the same
    draws are made either way, so each seed gives the same cells)."""
    if shape == "uniform":
        positions = {0, 1} | set(rng.sample(range(2, n), k - 2))
    else:
        positions = {m * m * (n - 1) // (k - 1) ** 2 for m in range(k)}
        positions |= set(rng.sample(range(n), k - len(positions))) - positions
        while len(positions) < k:
            positions.add(rng.randrange(n))
    if math.gcd(*positions) > 1:
        positions = set(sorted(positions)[:-1]) | {1}
    xs = [0] * n
    for i in positions:
        xs[i] = rng.choice((1, -1))
    top = 1 if width == 1 else (1 << (8 * width - 3)) // k
    if width == 1 and k >= 128:
        return None
    ys = [rng.choice((1, -1)) * rng.randint(1, top) if i % g == 0 else 0 for i in range(n)]
    ys[0] = top
    return xs, ys


def measure(xs: list[int], ys: list[int], n: int, repeat: int) -> dict[str, float]:
    """Best-of-`repeat` CPU times of every path on the same two profiles,
    the paths run in turn in each round, so a slow spell of a shared host
    falls on all of them."""
    from qdissect import series

    px, py = series.Profile(tuple(xs)), series.Profile(tuple(ys))
    width = series._width(px, py)
    paths = {
        "shifted": lambda: series._shifted_adds(px, py, n, width),
        "one": lambda: series._packed(px, py, n, width, False),
        "two": lambda: series._packed(px, py, n, width, True),
    }
    if px.count <= PAIRS_UP_TO:
        paths["pairs"] = lambda: series._mul_terms(px.cs, py.cs, px.support(), py.support(), n)
    if py.step > 1:
        paths["split"] = lambda: series._split(px, py, n)
    want = paths["one"]()
    timers = {}
    for name, run in paths.items():
        assert run() == want, name
        timer = timeit.Timer(run, timer=time.process_time)
        timers[name] = timer, max(1, int(0.01 / max(timer.timeit(1), 1e-6)))
    times = dict.fromkeys(paths, float("inf"))
    for _ in range(repeat):
        for name, (timer, number) in timers.items():
            times[name] = min(times[name], timer.timeit(number) / number)
    times["rule"] = times["split" if py.step > 1 else
                          "two" if width * n >= series.TWO_POINT_BYTES else "one"]
    return times


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--seed", type=int, default=2501)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    cells = {}
    for shape in SHAPES:
        for n in SIZES:
            for width in WIDTHS:
                for g in STEPS:
                    for k in KS:
                        pair = operands(shape, n, width, g, k, rng)
                        if pair is not None:
                            cells[shape, n, width, g, k] = measure(*pair, n, args.repeat)
    print("\n".join(format_table(cells)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
