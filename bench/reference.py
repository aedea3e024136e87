"""Fixed reference work that measures how fast the machine runs right now.

    python3 bench/reference.py

The host this benchmark was written on shares its cores with other
tenants, and its speed drifts by 20-40% over minutes, in CPU time as much
as in wall time.  run.py starts this file in its own process before the
first pass and after every pass, and scales the pass's times by the
reference's speed, so a run reports times at the speed of a reference
machine.

The work copies the evaluator's mix in plain Python: in-place sparse
products and a partition DP on coefficient lists, then Kronecker
products (byte packing, one big-integer multiply, unpacking).  It comes
in three sizes, because the workloads differ in how much memory they
touch: a vector that stays in cache, a 20000-term one, and one with wide
coefficients.  It imports nothing from qdissect, so no change to the
package can change it.  The last line of output is a JSON list of the
time of each repetition in seconds.
"""

import gc
import json
import time

REPETITIONS = 8


def kronecker_square(cs: list[int], width: int) -> list[int]:
    x = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")
    raw = (x * x).to_bytes(2 * width * len(cs) + 1, "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(len(cs))]


def sparse_product(terms: int, factors: int) -> list[int]:
    """Coefficients of (1 + q)(1 + q^2)...(1 + q^factors), in place."""
    cs = [0] * terms
    cs[0] = 1
    for e in range(1, factors + 1):
        for i in range(terms - 1, e - 1, -1):
            cs[i] += cs[i - e]
    return cs


def partition_dp(terms: int, step: int) -> list[int]:
    """Partitions into parts 1, 1 + step, 1 + 2 step, ..."""
    cs = [0] * terms
    cs[0] = 1
    for e in range(1, terms, step):
        for i in range(e, terms):
            cs[i] += cs[i - e]
    return cs


def work() -> None:
    kronecker_square(sparse_product(3000, 30), 24)
    kronecker_square(sparse_product(20000, 4), 24)
    kronecker_square(partition_dp(1000, 7), 48)


def main() -> None:
    gc.disable()
    times = []
    for _ in range(REPETITIONS):
        t = time.perf_counter()
        work()
        times.append(time.perf_counter() - t)
    print(json.dumps(times))


if __name__ == "__main__":
    main()
