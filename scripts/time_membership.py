"""Time the W_{k,k} membership check of the transfer polynomials.

    PYTHONPATH=src python3 scripts/time_membership.py [k ...]

For each odd k given (by default 1, 3, 5, 7, 9, 11, the k of the
benchmark's `transfer-lvalues` workload) it expands P_{k,Delta} =
`forms.expand_P(f, k, Delta)` for the 15 pairs (d, Delta) of the five
rings and their three smallest non-norms (the pairs of `expandp --check`
in that workload), then times `polyspace.membership(P)` alone, REPEATS
times per pair.  Prints one line per k: the median and the largest, over
the pairs, of each pair's median milliseconds.  Exits 1 if any P is
reported outside W_{k,k}.
"""

from __future__ import annotations

import statistics
import sys
import time

from hermitia.field import EUCLIDEAN_DS, field, nonnorm_deltas
from hermitia.forms import expand_P
from hermitia.polyspace import membership

KS = (1, 3, 5, 7, 9, 11)
REPEATS = 5
PAIRS = [(d, delta) for d in EUCLIDEAN_DS for delta in nonnorm_deltas(field(d), 3)]


def pair_ms(P) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        inside = membership(P)
        times.append(time.perf_counter() - start)
        if not inside:
            raise SystemExit(f"d={P.field.d} k={P.n}: P reported outside W_(k,k)")
    return statistics.median(times) * 1e3


def main(argv: list[str]) -> int:
    ks = [int(a) for a in argv] or KS
    print(f"{'k':>3} {'median_ms':>10} {'max_ms':>8}  ({len(PAIRS)} pairs x {REPEATS} calls)")
    for k in ks:
        per_pair = [pair_ms(expand_P(field(d), k, delta)) for d, delta in PAIRS]
        print(f"{k:>3} {statistics.median(per_pair):>10.2f} {max(per_pair):>8.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
