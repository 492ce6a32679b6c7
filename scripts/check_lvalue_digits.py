"""Check the digits that `lvalue` prints against mpmath, at every precision.

    PYTHONPATH=src python3 scripts/check_lvalue_digits.py

For every (d, s) in the constancy scope and every --bits from MIN_BITS to
MAX_BITS, `LValue.digits(bits)`, which prints from integers alone, must
equal mpmath.nstr of `LValue.numeric(bits)` at the digits that `lvalue`
prints at that precision.  Prints each mismatch, then the number of
comparisons and of mismatches, and exits 0 only if there are none.
"""

from __future__ import annotations

import sys

import mpmath

from hermitia import cli
from hermitia.field import field
from hermitia.lfun import CONSTANCY_SCOPE, l_closed_form


def main() -> int:
    values = [
        l_closed_form(field(d), s)
        for k, ds in CONSTANCY_SCOPE.items()
        for d in ds
        for s in (k + 2, -k - 1)
    ]
    compared = mismatches = 0
    for bits in range(cli.MIN_BITS, cli.MAX_BITS + 1):
        dps = max(6, int(bits * 0.301) - 2)
        for value in values:
            got, want = value.digits(bits), mpmath.nstr(value.numeric(bits), dps)
            compared += 1
            if got != want:
                mismatches += 1
                print(f"d={value.d} s={value.s} bits={bits}: {got} != {want}", flush=True)
    print(f"{compared} comparisons, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
