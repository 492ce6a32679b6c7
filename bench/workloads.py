"""The benchmark's workloads: the CLI argv each one sends, built from a seed,
and the independent oracle each call's output is checked against.

A workload is a function (seed, small) -> list of `Call`s; `small` gives
the reduced sizes the benchmark's own tests use.  Only `Call.argv` reaches
the program; the check runs in the benchmark process after the timed pass,
on the parsed JSON rows of the call and of every other call of the pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from hermitia import field, forms, lfun

RINGS = (1, 2, 3, 7, 11)
# The three smallest non-norm discriminants of each ring, ascending.
NONNORMS = {1: (3, 6, 7), 2: (5, 7, 10), 3: (2, 5, 6), 7: (3, 5, 6), 11: (2, 6, 7)}
# (k, rings) where H_{k,Delta} is constant and L-values have closed forms.
CONSTANCY_SCOPE = {1: (1, 2, 3, 7, 11), 3: (1, 3, 7), 5: (3,)}

# Per-eigenvalue dimensions of W_{k,k} for k = 1, 3, ..., 11 (the paper's
# tables); a label absent from a ring's table has dimension 0 there.
DIM_TABLES = {
    1: {"1": [1, 1, 2, 2, 3, 3], "-1": [0, 0, 0, 1, 0, 1],
        "i": [0] * 6, "-i": [0] * 6, "total": [1, 1, 2, 3, 3, 4]},
    2: {"1": [1, 2, 3, 4, 5, 6], "-1": [0] * 6, "total": [1, 2, 3, 4, 5, 6]},
    3: {"1": [1, 1, 1, 2, 2, 2], "total": [1, 1, 1, 2, 2, 2]},
    7: {"1": [1, 1, 2, 3, 3, 4], "-1": [0] * 6, "total": [1, 1, 2, 3, 3, 4]},
    11: {"1": [1, 2, 3, 4, 5, 6], "-1": [0] * 6, "total": [1, 2, 3, 4, 5, 6]},
}

# Rows of one pass, keyed by the argv that produced them.
PassRows = dict[tuple[str, ...], list[dict]]


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Callable[[list[dict], PassRows], bool]


def _log_ladder(count: int, dmax: int) -> list[int]:
    """`count` denominators at the midpoints of `count` equal strata of
    log(den) on [1, dmax]: log-uniform, and the same for every seed, so
    that a pass's cost, which grows as den^2, does not vary with the seed."""
    return [max(1, round(dmax ** ((i + 0.5) / count))) for i in range(count)]


def _point(rng: random.Random, den: int) -> tuple[Fraction, Fraction]:
    """u + v*theta with u, v in [-2, 2] and exact common denominator den."""
    while True:
        a = rng.randint(-2 * den, 2 * den)
        b = rng.randint(-2 * den, 2 * den)
        if math.gcd(math.gcd(a, b), den) == 1:
            return Fraction(a, den), Fraction(b, den)


def _json(*argv: object) -> tuple[str, ...]:
    return tuple(str(a) for a in argv) + ("--format", "json")


# ------------------------------------------------------------ cocycle-dims


def _check_dims(d: int, nrows: int, exact_argv: tuple[str, ...] | None) -> Callable[[list[dict], PassRows], bool]:
    """Rows equal the paper's table label by label, each total equals the
    split sum, and (for the modular route) the rows equal the exact ones."""
    table = DIM_TABLES[d]

    def check(rows: list[dict], by_argv: PassRows) -> bool:
        if len(rows) != nrows:
            return False
        for idx, row in enumerate(rows):
            labels = {key: val for key, val in row.items() if key not in ("d", "k", "total")}
            if row["d"] != d or row["k"] != 2 * idx + 1 or not set(table) - {"total"} <= set(labels):
                return False
            if any(val != table.get(lab, [0] * 6)[idx] for lab, val in labels.items()):
                return False
            if row["total"] != sum(labels.values()) or row["total"] != table["total"][idx]:
                return False
        return exact_argv is None or by_argv.get(exact_argv) == rows

    return check


def cocycle_dims(seed: int, small: bool) -> list[Call]:
    kmax = 3 if small else 11
    calls = []
    for d in RINGS:
        exact = _json("dims", "-d", d, "--kmax", kmax, "--method", "exact")
        modular = _json("dims", "-d", d, "--kmax", kmax, "--method", "modular")
        calls.append(Call(exact, _check_dims(d, (kmax + 1) // 2, None)))
        calls.append(Call(modular, _check_dims(d, (kmax + 1) // 2, exact)))
    return calls


# ----------------------------------------------------------- hconst-points


def _check_hconst(d: int, k: int, delta: int, z: str) -> Callable[[list[dict], PassRows], bool]:
    def check(rows: list[dict], by_argv: PassRows) -> bool:
        point, summary = rows
        return (
            point["z"] == z
            and Fraction(point["value"]) == forms.alpha(field(d), k, delta)
            and summary["value"] == "1 distinct value(s)"
        )

    return check


def hconst_points(seed: int, small: bool) -> list[Call]:
    rng = random.Random(seed)
    count, dmax = (2, 8) if small else (40, 64)
    calls = []
    for k, ds in sorted(CONSTANCY_SCOPE.items()):
        for d in ds:
            delta = NONNORMS[d][0]
            dens = _log_ladder(count, dmax)
            rng.shuffle(dens)
            for den in dens:
                u, v = _point(rng, den)
                z = f"{u},{v}"
                argv = _json("hconst", "-d", d, "-k", k, "--delta", delta, f"-z={z}")
                calls.append(Call(argv, _check_hconst(d, k, delta, z)))
    return calls


# -------------------------------------------------------- transfer-lvalues


def _check_expandp(rows: list[dict], by_argv: PassRows) -> bool:
    return len(rows) == 1 and rows[0]["in_W1"] is True


def _check_alpha(d: int, count: int) -> Callable[[list[dict], PassRows], bool]:
    def check(rows: list[dict], by_argv: PassRows) -> bool:
        f = field(d)
        return len(rows) == count and all(
            row["alpha"] == forms.alpha_direct(f, row["k"], row["delta"]) for row in rows
        )

    return check


def _check_lvalue(d: int, s: int) -> Callable[[list[dict], PassRows], bool]:
    def check(rows: list[dict], by_argv: PassRows) -> bool:
        (row,) = rows
        f = field(d)
        if s < 0:
            return Fraction(row["exact"]) == lfun.l_negative_exact(f, s)
        with mpmath.workprec(150):
            want = lfun.l_positive_numeric(f, s, 150)
            return abs(mpmath.mpf(row["numeric"]) - want) < mpmath.mpf(10) ** -25 * abs(want)

    return check


def _check_average(rows: list[dict], by_argv: PassRows) -> bool:
    (row,) = rows
    return float(row["rel_error"]) < 0.02


def _check_cfrac(z: str) -> Callable[[list[dict], PassRows], bool]:
    def check(rows: list[dict], by_argv: PassRows) -> bool:
        *steps, end = rows
        want = [Fraction(c) for c in z.split(",")]
        got = [Fraction(c) for c in steps[-1]["convergent"].split(",")] if steps else None
        return end["alpha"] == "(terminated)" and got == want

    return check


def transfer_lvalues(seed: int, small: bool) -> list[Call]:
    rng = random.Random(seed)
    ks = (1, 3) if small else (1, 3, 5, 7, 9, 11)
    n_delta, n_alpha, n_cf, cf_dmax = (1, 5, 2, 1000) if small else (3, 40, 10, 10**6)
    grid, a_max = (32, 200) if small else (64, 300)
    calls = []
    for d in RINGS:
        for delta in NONNORMS[d][:n_delta]:
            for k in ks:
                argv = _json("expandp", "-d", d, "-k", k, "--delta", delta, "--check")
                calls.append(Call(argv, _check_expandp))
        argv = _json("alpha", "-d", d, "-k", 3, "--count", n_alpha)
        calls.append(Call(argv, _check_alpha(d, n_alpha)))
    for k, ds in sorted(CONSTANCY_SCOPE.items()):
        for d in ds:
            for s in (k + 2, -k - 1):
                calls.append(Call(_json("lvalue", "-d", d, "-s", s), _check_lvalue(d, s)))
    argv = _json("average", "-d", 2, "-k", 3, "--delta", 5, "--grid", grid, "--a-max", a_max)
    calls.append(Call(argv, _check_average))
    for d in RINGS:
        for den in _log_ladder(n_cf, cf_dmax):
            u, v = _point(rng, den)
            z = f"{u},{v}"
            calls.append(Call(_json("cfrac", "-d", d, f"-z={z}"), _check_cfrac(z)))
    return calls


# Why each workload was chosen is stated in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, bool], list[Call]]] = {
    "cocycle-dims": cocycle_dims,
    "hconst-points": hconst_points,
    "transfer-lvalues": transfer_lvalues,
}
