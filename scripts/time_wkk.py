"""Time exact and modular `wkk` at large k, and hash the exact basis.

    PYTHONPATH=src python3 scripts/time_wkk.py [d,k ...]

Prints one line per (d, k): the seconds of one exact and one modular
`polyspace.wkk` call, their ratio, the dimensions, and the first 16 hex
digits of the SHA-256 of the exact basis (one `str` per polynomial, one per
line).  The same hash before and after a change to the kernels means the
same basis.  Without arguments it runs (2, 19), (7, 21), (11, 15), (1, 21).
"""

from __future__ import annotations

import hashlib
import sys
import time

from hermitia.field import field
from hermitia.polyspace import wkk

CASES = [(2, 19), (7, 21), (11, 15), (1, 21)]


def timed(f, k: int, method: str):
    start = time.perf_counter()
    rep = wkk(f, k, method=method)
    return rep, time.perf_counter() - start


def main(argv: list[str]) -> None:
    cases = [tuple(map(int, a.split(","))) for a in argv] or CASES
    for d, k in cases:
        f = field(d)
        exact, t_exact = timed(f, k, "exact")
        modular, t_mod = timed(f, k, "modular")
        if (exact.dims, exact.total) != (modular.dims, modular.total):
            raise SystemExit(f"d={d} k={k}: exact and modular dimensions differ")
        digest = hashlib.sha256("\n".join(map(str, exact.basis)).encode()).hexdigest()[:16]
        print(
            f"d={d:<2} k={k:<2} exact_s={t_exact:7.2f} modular_s={t_mod:6.2f} "
            f"ratio={t_exact / t_mod:5.2f} total={exact.total} dims={exact.dims} basis={digest}",
            flush=True,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
