"""Golden CLI outputs: each case replays one argv through `cli.main` and
compares stdout byte for byte with a file under tests/golden/.

Each golden file starts with the line `$ hermitia <argv>` followed by the
exact stdout of that call.  The set covers the README sample session
(without `bench`, which prints timings), exact bases, transfer polynomials
with their membership check, both dimension methods, exact sums at points,
one quadrature, an L-value at negative s, theta, residue counts and the
self-test.  To regenerate the files after an intended output
change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from hermitia import cli

GOLDEN = Path(__file__).parent / "golden"

SMALLEST_NONNORM = {1: 3, 2: 5, 3: 2, 7: 3, 11: 2}
RINGS = tuple(SMALLEST_NONNORM)

CASES: list[str] = [
    # README sample session (its `dims -d 7` call is among the tables below)
    "alpha -d 1 -k 1 --count 3",
    "lvalue -d 1 -s 3",
    "cfrac -d 1 -z 7/10,1/3",
    # exact bases
    *(f"basis -d {d} -k 5" for d in RINGS),
    "basis -d 1 -k 7 --eigen -1",
    # transfer polynomials with the membership check
    *(
        f"expandp -d {d} -k {k} --delta {dl} --check"
        for d, dl in SMALLEST_NONNORM.items()
        for k in (1, 3, 5)
    ),
    # dimension tables, both methods
    *(f"dims -d {d} --kmax 5 --method {m}" for d in RINGS for m in ("exact", "modular")),
    # exact sums: a non-constant case, then one seeded set of points per ring
    "hconst -d 2 -k 3 --delta 5 -z 0 -z 1/3,0 -z 1/2,1/3",
    *(
        f"hconst -d {d} -k 1 --delta {dl} --points 6 --den 5 --seed 1"
        for d, dl in SMALLEST_NONNORM.items()
    ),
    # cell-average quadrature
    "average -d 2 -k 3 --delta 5 --grid 16 --a-max 100",
    # L-values at negative s, theta, residue counts and the self-test
    "lvalue -d 2 -s -2",
    "theta -d 1 --delta 3 -s 3",
    "rcount -d 1 --delta 3 -n 5 12 --check",
    "selftest",
]


def golden_path(case: str) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "_", case).strip("_") + ".txt")


def run(case: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case.split())
    return code, f"$ hermitia {case}\n" + out.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case):
    code, text = run(case)
    assert code == cli.EXIT_OK
    assert text == golden_path(case).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    assert len({golden_path(case) for case in CASES}) == len(CASES)
    for case in CASES:
        code, text = run(case)
        if code != cli.EXIT_OK:
            sys.exit(f"{case}: exit {code}")
        golden_path(case).write_text(text, encoding="utf-8")
