"""Time the W_{k,k} membership check of the transfer polynomials.

    PYTHONPATH=src python3 scripts/time_membership.py [k ...]

For each odd k given (by default 1, 3, 5, 7, 9, 11, the k of the
benchmark's `transfer-lvalues` workload) it expands P_{k,Delta} =
`forms.expand_P(f, k, Delta)` for the 15 pairs (d, Delta) of the five
rings and their three smallest non-norms (the pairs of `expandp --check`
in that workload), then times `polyspace.membership(P)` alone, REPEATS
times per pair.  Prints one line per k: the median and the largest, over
the pairs, of each pair's median milliseconds, and the median over the
pairs of the proof primes of one call (`primes`: the split primes that
`WordOperator.in_kernel` checks, all of them stacked in one
`WordOperator._word_sums` while the stack is small enough) and of the
roots of omega it proves under (`roots`: the length of the root axis of
those word sums, 1 when P's grid is real and symmetric, as every
P_{k,Delta} is, else 2).  Exits 1 if any P is reported outside W_{k,k}.
"""

from __future__ import annotations

import statistics
import sys
import time

from hermitia.field import EUCLIDEAN_DS, field, nonnorm_deltas
from hermitia.forms import expand_P
from hermitia.polyspace import WordOperator, membership

KS = (1, 3, 5, 7, 9, 11)
REPEATS = 5
PAIRS = [(d, delta) for d in EUCLIDEAN_DS for delta in nonnorm_deltas(field(d), 3)]


def proof_work(P) -> tuple[int, int]:
    """The split primes of one `membership(P)` call, counted as they are
    passed to `WordOperator._word_sums`, and the most roots that its word
    sums carry."""
    seen, roots = [], [0]
    word_sums = WordOperator._word_sums

    def counted(self, primes, *args):
        seen.extend(primes)
        sums = word_sums(self, primes, *args)
        roots.append(sums.shape[1])
        return sums

    WordOperator._word_sums = counted
    try:
        membership(P)
    finally:
        WordOperator._word_sums = word_sums
    return len(seen), max(roots)


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
    head = f"{'k':>3} {'median_ms':>10} {'max_ms':>8} {'primes':>6} {'roots':>5}"
    print(f"{head}  ({len(PAIRS)} pairs x {REPEATS} calls)")
    for k in ks:
        polys = [expand_P(field(d), k, delta) for d, delta in PAIRS]
        per_pair = [pair_ms(P) for P in polys]
        primes, roots = (statistics.median(col) for col in zip(*map(proof_work, polys)))
        print(f"{k:>3} {statistics.median(per_pair):>10.2f} {max(per_pair):>8.2f} {primes:>6g} {roots:>5g}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
