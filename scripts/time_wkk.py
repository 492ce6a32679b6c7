"""Time exact and modular `wkk` at large k, and check the exact basis by hash.

    PYTHONPATH=src python3 scripts/time_wkk.py [d,k ...]

Prints one line per (d, k): the seconds of one exact and one modular
`polyspace.wkk` call, their ratio, the dimensions, the work of each call
as row reductions / pivot steps (`exact_work`, `modular_work`: the calls
of `linalg._row_reduce`, and the pivots they found), the proof products
of the exact call (`proofs`: the calls of `WordOperator._word_sums`, one
float64 product of grids per proof prime per candidate basis, as one
`in_kernel` proves every vector of a candidate at once), the candidates
its checks refuted (`refuted`: the calls of the exact check given to
`linalg.certified_kernel` that returned False, one per refuted candidate
basis, each sending the next prime to an elimination of the whole
block), the
rows of the exact call's blocks (`rows_built`: every row that
`WordOperator.reduced_mod` returned; `rows_reduced`: the rows that
`linalg.certified_kernel` asks for and eliminates at the primes after
the first: at the first split prime each kernel's basis is read from the
full block's kernel, and no row is asked for), the first 16 hex digits
of the SHA-256 of the exact basis (one `str` per polynomial, one per
line), and `ok` or `CHANGED` against the hash recorded in EXPECTED (`-`
for a case without one).  The same hash means the same basis, so a
change to the kernels is checked at k = 15-27, beyond the golden files.
Exits 1 if any hash changed.
Without arguments it runs the six cases of EXPECTED.
"""

from __future__ import annotations

import hashlib
import sys
import time

from hermitia import linalg
from hermitia.field import field
from hermitia.polyspace import WordOperator, wkk

# (d, k) -> basis hash of the certified kernels since they were introduced
EXPECTED = {
    (2, 19): "e028b808819aa31f",
    (7, 21): "e524965a1c64c873",
    (11, 15): "3520bc44464bb1d7",
    (1, 21): "d6e4275409c96686",
    (2, 25): "bfddf951b541f07e",
    (1, 27): "9db76d7bf9265156",
}


def count_work() -> dict[str, int]:
    """Wrap `WordOperator.reduced_mod` to count the rows it returns,
    `linalg._row_reduce` to count the row reductions and their pivot
    steps, `WordOperator._word_sums` to count the proof products, and the
    reductions and the check passed to `linalg.certified_kernel` to count
    the rows it eliminates and the refuted candidates."""
    counts = {"built": 0, "reduced": 0, "reductions": 0, "pivots": 0, "proofs": 0, "refuted": 0}
    reduced_mod, row_reduce = WordOperator.reduced_mod, linalg._row_reduce
    word_sums, certified = WordOperator._word_sums, linalg.certified_kernel

    def built(self, *args):
        out = reduced_mod(self, *args)
        counts["built"] += out.shape[0]
        return out

    def reduction(*args, **kwargs):
        out = row_reduce(*args, **kwargs)
        counts["reductions"] += 1
        counts["pivots"] += len(out[1])
        return out

    def proof(self, *args):
        counts["proofs"] += 1
        return word_sums(self, *args)

    def certified_kernel(f, mod, second, annihilates, first):
        # every block it asks for is eliminated at a prime after the first
        def eliminated(*args):
            out = mod(*args)
            counts["reduced"] += out.shape[0]
            return out

        def check(basis):
            passed = annihilates(basis)
            counts["refuted"] += not passed
            return passed

        return certified(f, eliminated, second, check, first)

    WordOperator.reduced_mod, linalg._row_reduce = built, reduction
    WordOperator._word_sums, linalg.certified_kernel = proof, certified_kernel
    return counts


def work(counts: dict[str, int]) -> str:
    """Row reductions / pivot steps since the counts were last cleared."""
    return f"{counts['reductions']}/{counts['pivots']}"


def timed(f, k: int, method: str):
    start = time.perf_counter()
    rep = wkk(f, k, method=method)
    return rep, time.perf_counter() - start


def main(argv: list[str]) -> int:
    cases = [tuple(map(int, a.split(","))) for a in argv] or list(EXPECTED)
    changed = False
    counts = count_work()
    for d, k in cases:
        f = field(d)
        counts.update(built=0, reduced=0, reductions=0, pivots=0, proofs=0, refuted=0)
        exact, t_exact = timed(f, k, "exact")
        built, reduced, proofs, exact_work = counts["built"], counts["reduced"], counts["proofs"], work(counts)
        refuted = counts["refuted"]
        counts.update(reductions=0, pivots=0)
        modular, t_mod = timed(f, k, "modular")
        if (exact.dims, exact.total) != (modular.dims, modular.total):
            raise SystemExit(f"d={d} k={k}: exact and modular dimensions differ")
        digest = hashlib.sha256("\n".join(map(str, exact.basis)).encode()).hexdigest()[:16]
        want = EXPECTED.get((d, k))
        verdict = "-" if want is None else "ok" if digest == want else "CHANGED"
        changed |= verdict == "CHANGED"
        print(
            f"d={d:<2} k={k:<2} exact_s={t_exact:7.2f} modular_s={t_mod:6.2f} "
            f"ratio={t_exact / t_mod:5.2f} total={exact.total} dims={exact.dims} "
            f"exact_work={exact_work} modular_work={work(counts)} proofs={proofs} refuted={refuted} "
            f"rows_built={built} rows_reduced={reduced} basis={digest} {verdict}",
            flush=True,
        )
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
