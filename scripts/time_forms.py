"""Time the two norm-class sums of `forms`: `alpha` and `expandp`.

    PYTHONPATH=src python3 scripts/time_forms.py [d] [k] [repeats]

Runs `hermitia alpha -d d -k k --delta D` and `hermitia expandp -d d -k k
--delta D` (without --check) through `cli.main` in this process, stdout
discarded, at three D each: the least non-norm of O_d from 2000 and from
20000, and the largest non-norm at or below the --delta cap
`cli.DELTA_MAX`.  Defaults: d = 1, k = 3, one call each.  Prints one line
per call: the command, D and the median seconds over `repeats` calls.
Exits 1 if a call does not exit 0.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time

from hermitia import cli
from hermitia.field import field, is_norm


def nonnorm_from(f, start: int, step: int) -> int:
    """The first non-norm of O_d from `start` on, going by `step`."""
    while is_norm(f, start):
        start += step
    return start


def seconds(argv: list[str]) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    d, k, repeats = (int(a) for a in argv + ["1", "3", "1"][len(argv):])
    f = field(d)
    print(f"{'command':<8} {'delta':>6} {'seconds':>8}  (O_{d}, k = {k}, median of {repeats})")
    for command in ("alpha", "expandp"):
        for delta in (nonnorm_from(f, 2000, 1), nonnorm_from(f, 20000, 1), nonnorm_from(f, cli.DELTA_MAX, -1)):
            call = [command, "-d", str(d), "-k", str(k), "--delta", str(delta), "--format", "json"]
            median = statistics.median(seconds(call) for _ in range(repeats))
            print(f"{command:<8} {delta:>6} {median:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
