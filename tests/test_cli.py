"""The command line interface: every subcommand, the three output
formats, and the exit-code contract."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from hermitia import cli, forms, hsum, intarith, lfun, polyspace
from hermitia.cli import EXIT_OK, EXIT_ORACLE, EXIT_PRECONDITION, main
from hermitia.field import field, is_norm, nonnorm_deltas


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    run.err = captured.err
    return code, captured.out


def test_alpha_table(capsys):
    code, out = run(capsys, "alpha", "-d", "1", "-k", "1", "--delta", "3")
    assert code == EXIT_OK
    assert "20" in out


def test_alpha_json_roundtrip(capsys):
    code, out = run(capsys, "alpha", "-d", "1", "-k", "1", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["delta"] for r in rows] == [3, 6, 7]
    assert rows[0]["alpha"] == 20


def test_alpha_csv_roundtrip(capsys):
    code, out = run(capsys, "alpha", "-d", "3", "-k", "1", "--delta", "2",
                    "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["alpha"] == "9"


def test_theta(capsys):
    code, out = run(capsys, "theta", "-d", "1", "--delta", "3", "-s", "2")
    assert code == EXIT_OK
    assert "5/6" in out


def test_rcount_with_check(capsys):
    code, out = run(capsys, "rcount", "-d", "2", "--delta", "5", "-n", "4", "9",
                    "--check")
    assert code == EXIT_OK
    rows = out.strip().splitlines()
    assert len(rows) == 3  # header + two counts


def test_rcount_does_not_build_a_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("rcount ran an O(n) or O(n^2) count")

    monkeypatch.setattr(lfun, "r_count", refuse)
    monkeypatch.setattr(lfun, "r_count_naive", refuse)
    n = 10**12
    code, out = run(capsys, "rcount", "-d", "2", "--delta", "5", "-n", str(n), "--format", "json")
    assert code == EXIT_OK
    (row,) = json.loads(out)
    f = field(2)
    # n = 2^12 * 5^12, and r is multiplicative
    two = lfun.local_count_coeffs(f, -5, 2, 12)[12]
    five = lfun.local_count_coeffs(f, -5, 5, 12)[12]
    assert row == {"d": 2, "delta": 5, "n": n, "count": two * five}


def test_rcount_at_a_product_of_two_large_primes(capsys):
    p, q = 2**31 - 1, 2**61 - 1
    code, out = run(capsys, "rcount", "-d", "1", "--delta", "3", "-n", str(p * q),
                    "--format", "json")
    assert code == EXIT_OK
    (row,) = json.loads(out)
    f = field(1)
    want = lfun.local_count_coeffs(f, -3, p, 1)[1] * lfun.local_count_coeffs(f, -3, q, 1)[1]
    assert row["count"] == want


def test_rcount_refuses_an_n_it_cannot_factor_with_proof():
    """10^30 + 57 passes Miller-Rabin above MILLER_RABIN_PROVEN, where
    that proves nothing; rcount exits 2 naming -n instead of trial-dividing
    up to its square root."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    n = 10**30 + 57
    done = subprocess.run(
        [sys.executable, "-m", "hermitia", "rcount", "-d", "1", "--delta", "3", "-n", "12", str(n)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_PRECONDITION and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert "-n" in line and str(n) in line


def test_theta_refuses_a_delta_it_cannot_factor_with_proof(capsys):
    code, out = run(capsys, "theta", "-d", "1", "--delta", str(10**30 + 57), "-s", "1")
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert "--delta" in line


def test_rcount_check_is_bounded(capsys):
    top = cli.RCOUNT_CHECK_MAX_N
    code, out = run(capsys, "rcount", "-d", "7", "--delta", "5", "-n", "12", str(top),
                    "--check", "--format", "json")
    assert code == EXIT_OK
    assert all(row["count"] == row["naive"] for row in json.loads(out))
    code, out = run(capsys, "rcount", "-d", "7", "--delta", "5", "-n", "12", str(top + 1),
                    "--check")
    assert code == EXIT_PRECONDITION and out == ""
    assert "--check" in run.err and "-n" in run.err


def test_lvalue_positive_and_negative(capsys):
    code, out = run(capsys, "lvalue", "-d", "1", "-s", "3")
    assert code == EXIT_OK
    assert "(1/32)*pi^3" in out
    assert "0.96894" in out
    code, out = run(capsys, "lvalue", "-d", "3", "-s", "-2")
    assert code == EXIT_OK
    assert "-2/9" in out


def test_lvalue_out_of_scope_is_a_precondition_error(capsys):
    code, _ = run(capsys, "lvalue", "-d", "2", "-s", "5")
    assert code == EXIT_PRECONDITION
    assert "outside the constancy range" in run.err


def test_lvalue_out_of_scope_lists_the_allowed_s(capsys):
    code, out = run(capsys, "lvalue", "-d", "3", "-s", "9")
    assert code == EXIT_PRECONDITION and out == ""
    assert "for d = 3, s is one of 3, 5, 7, -2, -4, -6" in run.err
    assert "()" not in run.err


def test_norm_delta_is_a_precondition_error(capsys):
    code, _ = run(capsys, "alpha", "-d", "1", "-k", "1", "--delta", "4")
    assert code == EXIT_PRECONDITION


def test_bad_z_is_a_precondition_error(capsys):
    code, _ = run(capsys, "cfrac", "-d", "1", "-z", "1,2,3")
    assert code == EXIT_PRECONDITION


def test_hconst_fixed_points(capsys):
    code, out = run(capsys, "hconst", "-d", "2", "-k", "3", "--delta", "5",
                    "-z", "0,0", "-z", "0,1/3", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["value"] == "366"
    assert rows[1]["value"] == "30670/81"
    assert "2 distinct" in rows[2]["value"]


def test_hconst_random_points_constant_case(capsys):
    code, out = run(capsys, "hconst", "-d", "3", "-k", "1", "--delta", "2",
                    "--points", "6", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert "1 distinct" in rows[-1]["value"]


@pytest.mark.parametrize(
    "d, k, delta, z",
    [(1, 1, 3, "1/1000000,1/3"), (3, 5, 2, "-7/1000000000000,999999999999/1000000000000")],
)
def test_hconst_at_large_denominators_prints_alpha(capsys, d, k, delta, z):
    # the window scan would visit Delta*den^2 >= 3*10^12 values of a here
    code, out = run(capsys, "hconst", "-d", str(d), "-k", str(k), "--delta", str(delta),
                    f"-z={z}", "--format", "json")
    assert code == EXIT_OK
    point, summary = json.loads(out)
    assert point["z"] == z
    assert point["value"] == str(forms.alpha(field(d), k, delta))
    assert summary["value"] == "1 distinct value(s)"


def test_average(capsys):
    code, out = run(capsys, "average", "-d", "3", "-k", "3", "--delta", "2",
                    "--grid", "8", "--a-max", "60", "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert float(row["rel_error"]) < 0.02


def test_average_with_a_huge_a_max_finishes(capsys):
    # the walk's step count does not grow with a_max; a sweep over
    # |a| <= 10^9 would not finish
    start = time.perf_counter()
    code, out = run(capsys, "average", "-d", "2", "-k", "3", "--delta", "5",
                    "--a-max", "1000000000", "--format", "json")
    assert time.perf_counter() - start < 30
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert row["a_max"] == 1000000000
    assert float(row["rel_error"]) < 1e-6


def test_average_accepts_even_k(capsys):
    code, out = run(capsys, "average", "-d", "2", "-k", "4", "--delta", "5",
                    "--grid", "16", "--a-max", "100", "--format", "json")
    assert code == EXIT_OK
    assert float(json.loads(out)[0]["rel_error"]) < 1e-6


def test_hconst_accepts_a_negative_point(capsys):
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3",
                    "-z", "-1/3,0", "-z", "-.5,-1", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["z"] for r in rows[:2]] == ["-1/3,0", "-1/2,-1"]
    assert rows[0]["value"] == rows[1]["value"] == "20"


def test_cfrac_accepts_a_negative_point(capsys):
    code, out = run(capsys, "cfrac", "-d", "1", "-z", "-1/3,1/2", "--format", "json")
    assert code == EXIT_OK
    *steps, end = json.loads(out)
    assert end["alpha"] == "(terminated)"
    assert steps[-1]["convergent"] == "-1/3,1/2"


def test_theta_prints_values_beyond_the_int_digit_limit(capsys):
    code, out = run(capsys, "theta", "-d", "1", "--delta", "3", "-s", "100000",
                    "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)[0]
    limit = sys.get_int_max_str_digits()
    assert len(row["theta"]) > 2 * limit
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(row["theta"]) == lfun.theta(field(1), 3, 100000)
    finally:
        sys.set_int_max_str_digits(limit)


def parse_rows(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    header, *lines = out.splitlines()
    return [dict(zip(header.split(), line.split())) for line in lines]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_cells_beyond_the_int_digit_limit(capsys, fmt):
    """An integer (`alpha`) or a fraction (`hconst`) of more digits than
    the interpreter converts by default prints in every format."""
    f = field(1)
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "alpha", "-d", "1", "-k", "30001", "--count", "1", "--format", fmt)
    assert code == EXIT_OK, run.err
    sys.set_int_max_str_digits(0)
    try:
        ((row,),) = [parse_rows(out, fmt)]
        assert len(str(row["alpha"])) > 2 * limit
        assert int(row["alpha"]) == forms.alpha(f, 30001, int(row["delta"]))
    finally:
        sys.set_int_max_str_digits(limit)
    code, out = run(capsys, "hconst", "-d", "1", "-k", "100001", "--delta", "3", "-z", "0",
                    "--format", fmt)
    assert code == EXIT_OK, run.err
    point = cli.parse_z(f, "0")
    sys.set_int_max_str_digits(0)
    try:
        row = parse_rows(out, fmt)[0]
        assert len(row["value"]) > 2 * limit
        assert Fraction(row["value"]) == hsum.eval_exact(f, 100001, 3, point)
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def test_cfrac_terminates(capsys):
    code, out = run(capsys, "cfrac", "-d", "1", "-z", "1/2")
    assert code == EXIT_OK
    assert "(terminated)" in out


def test_dims_modular(capsys):
    code, out = run(capsys, "dims", "-d", "7", "--kmax", "5", "--method",
                    "modular", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["total"] for r in rows] == [1, 1, 2]


@pytest.mark.parametrize("d", ["1", "2", "3", "7", "11"])
def test_dims_methods_print_identical_stdout(capsys, d):
    """Both values of --method run the one certified route: the same
    table, byte for byte, at the benchmark's --kmax 11."""
    outs = [run(capsys, "dims", "-d", d, "--kmax", "11", "--method", m) for m in ("modular", "exact")]
    assert outs[0] == outs[1] and outs[0][0] == EXIT_OK


def test_basis(capsys):
    code, out = run(capsys, "basis", "-d", "1", "-k", "3", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 1
    assert "z^3*zbar^3" in rows[0]["poly"]


def test_expandp_with_membership_check(capsys):
    code, out = run(capsys, "expandp", "-d", "3", "-k", "1", "--delta", "2",
                    "--check", "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert row["in_W1"] is True


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
def test_expandp_prints_the_polynomial_of_expand_P(capsys, d):
    """`expandp` prints P_{k,Delta} from its integer coefficients exactly
    as `str(forms.expand_P(...))`, and proves it in W_{k,k}, at odd k <= 11
    and the least non-norm."""
    f = field(d)
    delta = nonnorm_deltas(f, 1)[0]
    for k in range(1, 12, 2):
        code, out = run(capsys, "expandp", "-d", str(d), "-k", str(k), "--delta", str(delta),
                        "--check", "--format", "json")
        assert code == EXIT_OK, run.err
        row = json.loads(out)[0]
        assert row["poly"] == str(forms.expand_P(f, k, delta)) and row["in_W1"] is True, k


def test_bench(capsys):
    code, out = run(capsys, "bench", "-d", "1", "-s", "-2", "--repeats", "2",
                    "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert row["agree"] is True
    assert row["value"] == "-1/2"


def test_bench_out_of_scope_exits_2_at_once(capsys):
    # B_(1-s) at s = -100000 would take hours: the scope is checked first
    start = time.perf_counter()
    code, out = run(capsys, "bench", "-d", "1", "-s", "-100000")
    assert time.perf_counter() - start < 2
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: -s = -100000 is outside the constancy range")


def test_selftest_passes(capsys):
    code, out = run(capsys, "selftest")
    assert code == EXIT_OK
    assert "FAIL" not in out


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("HERMITIA_PRECISION", "64")
    code, out = run(capsys, "lvalue", "-d", "1", "-s", "3")
    assert code == EXIT_OK
    digits = out.strip().splitlines()[-1].split()[-1]
    assert len(digits) < 30  # fewer digits printed at 64 bits


# ------------------------------------------------------- numeric flags


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dims", "-d", "1", "--kmax", "-3"], "--kmax"),
        (["basis", "-d", "1", "-k", "0"], "-k"),
        (["alpha", "-d", "1", "-k", "1", "--count", "-1"], "--count"),
        (["lvalue", "-d", "1", "-s", "3", "--bits", "0"], "--bits"),
        (["lvalue", "-d", "1", "-s", "3", "--bits", "-5"], "--bits"),
        (["bench", "-d", "1", "--bits", "0"], "--bits"),
        (["average", "-d", "2", "-k", "3", "--delta", "5", "--grid", "0"], "--grid"),
        (["bench", "-d", "1", "--repeats", "0"], "--repeats"),
        (["hconst", "-d", "2", "-k", "3", "--delta", "5", "--den", "0"], "--den"),
        (["dims", "-d", "1", "--kmax", "two"], "--kmax"),
        (["hconst", "-d", "2", "-k", "3", "--delta", "5", "--points", "0"], "--points"),
        (["average", "-d", "2", "-k", "3", "--delta", "5", "--a-max", "0"], "--a-max"),
        (["cfrac", "-d", "1", "-z", "1/3", "--max-steps", "0"], "--max-steps"),
        # H_{k,Delta} and P_{k,Delta} are defined for odd k >= 1 only
        (["hconst", "-d", "1", "-k", "2", "--delta", "3", "-z", "0"], "-k"),
        (["expandp", "-d", "1", "-k", "2", "--delta", "3", "--check"], "-k"),
        (["expandp", "-d", "1", "-k", "-1", "--delta", "3"], "-k"),
        (["alpha", "-d", "1", "-k", "2", "--delta", "3"], "-k"),
        (["alpha", "-d", "1", "-k", "0", "--delta", "3"], "-k"),
        # the average needs an absolutely convergent sum: k >= 3, odd or even
        (["average", "-d", "2", "-k", "1", "--delta", "5"], "-k"),
        # residue counts need a positive modulus, theta an s >= 1
        (["rcount", "-d", "1", "--delta", "3", "-n", "0"], "-n"),
        (["theta", "-d", "1", "--delta", "3", "-s", "0"], "-s"),
        # dims and basis share one cap on k; at the cap dims takes up to 10 s
        # (O_11), and these calls ran for minutes before it
        (["dims", "-d", "2", "--kmax", str(cli.WKK_K_MAX + 1)], "--kmax"),
        (["dims", "-d", "2", "--kmax", "31"], "--kmax"),
        (["basis", "-d", "2", "-k", str(cli.WKK_K_MAX + 1)], "-k"),
        (["basis", "-d", "2", "-k", "51"], "-k"),
    ],
)
def test_bad_numeric_flag_exits_2_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, line", [
    (["alpha", "-d", "1", "-k", "1", "--delta", "3", "--count", "5"], "--count cannot be used with --delta"),
    (["alpha", "-d", "1", "-k", "1", "--delta", "3", "--count", "3"], "--count cannot be used with --delta"),
    (["hconst", "-d", "2", "-k", "3", "--delta", "5", "-z", "0", "--points", "6"], "--points cannot be used with -z"),
    (["hconst", "-d", "2", "-k", "3", "--delta", "5", "-z", "0", "--den", "8"], "--den cannot be used with -z"),
    (["hconst", "-d", "2", "-k", "3", "--delta", "5", "-z", "0", "--seed", "0"], "--seed cannot be used with -z"),
])
def test_a_flag_the_command_would_ignore_exits_2(capsys, argv, line):
    """--delta makes `alpha` ignore --count, and -z makes `hconst` ignore
    --points, --den and --seed: given together, even at their default
    values, they exit 2 with one line that names both flags."""
    code, out = run(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == ""
    assert run.err.splitlines() == [f"error: {line}"]


def test_the_defaults_of_count_and_the_drawn_points_are_applied(capsys):
    """Without the flags, `alpha` takes the first 3 non-norms and `hconst`
    draws 20 points of denominator at most 8 with seed 0."""
    argv = ["alpha", "-d", "1", "-k", "1", "--format", "json"]
    assert run(capsys, *argv) == run(capsys, *argv, "--count", "3")
    argv = ["hconst", "-d", "3", "-k", "1", "--delta", "2", "--format", "json"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK and len(json.loads(out)) == 21
    assert (code, out) == run(capsys, *argv, "--points", "20", "--den", "8", "--seed", "0")


def test_alpha_delta_zero_is_checked_not_ignored(capsys):
    code, out = run(capsys, "alpha", "-d", "1", "-k", "1", "--delta", "0")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "delta" in run.err


@pytest.mark.parametrize("argv", [
    ["alpha", "-d", "1", "-k", "1"],
    ["lvalue", "-d", "1", "-s", "3"],
    ["hconst", "-d", "1", "-k", "1", "-z", "0"],
    ["expandp", "-d", "1", "-k", "1"],
    ["average", "-d", "1", "-k", "3", "--grid", "4"],
])
def test_huge_delta_exits_2_naming_the_flag(argv):
    # alpha_{k,Delta} sums over the O(Delta) lattice points of norm below
    # Delta, and the other commands enumerate the forms of discriminant
    # Delta: a 31-digit Delta must be refused at once, not run for ever
    done = run_module(*argv, "--delta", "1000000000000000000000000000057", timeout=20)
    assert done.returncode == EXIT_PRECONDITION
    assert done.stdout == ""
    assert done.stderr.startswith("error: --delta") and len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["alpha", "-d", "2", "-k", "1"],
    ["lvalue", "-d", "2", "-s", "3"],
    ["hconst", "-d", "2", "-k", "1", "-z", "0"],
    ["expandp", "-d", "2", "-k", "1"],
    ["average", "-d", "2", "-k", "3", "--grid", "1"],
])
def test_delta_above_the_alpha_cap_exits_2(capsys, argv):
    """DELTA_MAX, once the --delta cap of `alpha` alone, guards the lattice
    sweep of every command that takes a --delta."""
    code, out = run(capsys, *argv, "--delta", str(cli.DELTA_MAX + 1))
    assert code == EXIT_PRECONDITION
    assert out == ""
    (line,) = run.err.splitlines()
    assert line == f"error: --delta must be at most {cli.DELTA_MAX}; got {cli.DELTA_MAX + 1}"


def assert_argparse_refuses(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at most" in err and "Traceback" not in err


def alpha_cost(k: int, top: int, count: int) -> int:
    """The cost rule of `cli.cmd_alpha`, restated: with u = k times the bit
    length of the largest delta, top, 20 top u sqrt(u) for the sigma_k
    sieve, and for each of the `count` deltas top (13 u + 25000) for its
    sum over the norm classes and u^2 for printing it."""
    u = k * top.bit_length()
    return 20 * top * u * math.isqrt(u) + count * (top * (13 * u + 25000) + u * u)


ALPHA_COST_LINE = "error: the cost at -k of the deltas (--delta, or the first --count non-norms) must be at most"


def test_alpha_cost_at_the_cap_and_one_past_it(capsys, monkeypatch):
    """--delta 7 at k = 3 (u = 9), and the default three deltas, priced at
    top = 2 * 3 + 6 = 12 before any non-norm is found."""
    assert alpha_cost(3, 7, 1) == 20 * 7 * 9 * 3 + 7 * (13 * 9 + 25000) + 81
    for argv, cost in ((["-k", "3", "--delta", "7"], alpha_cost(3, 7, 1)), (["-k", "3"], alpha_cost(3, 12, 3))):
        monkeypatch.setattr(cli, "ALPHA_COST_MAX", cost)
        code, out = run(capsys, "alpha", "-d", "1", *argv, "--format", "csv")
        assert code == EXIT_OK, run.err
        assert [int(row["alpha"]) for row in parse_rows(out, "csv")] == [
            forms.alpha_direct(field(1), 3, int(row["delta"])) for row in parse_rows(out, "csv")]
        monkeypatch.setattr(cli, "ALPHA_COST_MAX", cost - 1)
        code, out = run(capsys, "alpha", "-d", "1", *argv)
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line == f"{ALPHA_COST_LINE} {cost - 1}; got {cost}"


def test_alpha_count_cap_and_cap_plus_one(capsys, monkeypatch):
    """The rule prices --count at 2 count + 6, a bound on the count-th
    non-norm, before any non-norm is found.  The largest count it admits at
    k = 1 passes (the sums stubbed out) and one more exits 2; the bound holds
    in every ring for every count up to it, and so for every count that the
    rule admits at any k, as the cost grows with k."""
    lo, hi = 1, 10**6  # the largest admitted count lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if alpha_cost(1, 2 * mid + 6, mid) <= cli.ALPHA_COST_MAX else (lo, mid - 1)
    asked = []
    monkeypatch.setattr(cli, "nonnorm_deltas", lambda f, count: asked.append(count) or [])
    monkeypatch.setattr(forms, "alphas", lambda f, k, deltas: [])
    code, out = run(capsys, "alpha", "-d", "3", "-k", "1", "--count", str(lo))
    assert code == EXIT_OK and asked == [lo], run.err
    for count in (lo + 1, 10**18):
        start = time.perf_counter()
        code, out = run(capsys, "alpha", "-d", "3", "-k", "1", "--count", str(count))
        assert time.perf_counter() - start < 2
        assert code == EXIT_PRECONDITION and out == "" and asked == [lo]
        (line,) = run.err.splitlines()
        assert line.startswith(ALPHA_COST_LINE)
    for d in (1, 2, 3, 7, 11):
        found = nonnorm_deltas(field(d), lo)
        assert all(delta <= 2 * count + 6 for count, delta in enumerate(found, 1)), d


def test_alpha_at_count_3000_matches_the_form_sum(capsys):
    """`-k 1 --count 3000` in O_3 (0.8 s), which --count's old cap of 300
    refused, runs, and its rows equal `alpha_direct` on a sample."""
    code, out = run(capsys, "alpha", "-d", "3", "-k", "1", "--count", "3000", "--format", "csv")
    assert code == EXIT_OK, run.err
    rows = parse_rows(out, "csv")
    f = field(3)
    assert [int(row["delta"]) for row in rows] == nonnorm_deltas(f, 3000)
    for row in rows[::500] + rows[-1:]:
        assert int(row["alpha"]) == forms.alpha_direct(f, 1, int(row["delta"])), row


@pytest.mark.parametrize("argv", [
    # printing 30 values of up to 600,000 bits took minutes
    ["alpha", "-d", "1", "-k", "100001", "--count", "30"],
    # the sigma_k sieve took 24 s and 572 MB
    ["alpha", "-d", "1", "-k", "2501", "--delta", "99999"],
    # the expansion took 15 s
    ["expandp", "-d", "1", "-k", "81", "--delta", "8003"],
    ["alpha", "-d", "1", "-k", str(10**100 + 1), "--delta", "3"],
    ["expandp", "-d", "1", "-k", str(10**100 + 1), "--delta", "3"],
])
def test_slow_alpha_and_expandp_calls_exit_2_at_once(argv):
    start = time.perf_counter()
    done = run_module(*argv, timeout=20)
    assert time.perf_counter() - start < 2
    assert done.returncode == EXIT_PRECONDITION and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: the cost at -k") and "--delta" in line


@pytest.mark.parametrize("argv", [
    # Fraction("1e-10000000") alone took 7.5 s; this call was killed after 20 s
    ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "1e-100000000"],
    # ran past 60 s
    ["cfrac", "-d", "1", "-z", "1e-1000000"],
    # took 13 s, then exited 2 naming no flag: its convergents passed the
    # interpreter's 4300-digit limit on converting an int to decimal
    ["cfrac", "-d", "1", "-z", "1e-400000"],
    # exited 2 naming no flag, for the same limit
    ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "1e5000"],
])
def test_a_long_point_exits_2_at_once_naming_z(argv):
    start = time.perf_counter()
    done = run_module(*argv, timeout=20)
    assert time.perf_counter() - start < 2
    assert done.returncode == EXIT_PRECONDITION and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"error: -z: a coordinate may have at most {cli.Z_DIGITS_MAX} digits")


@pytest.mark.parametrize("text, digits", [
    ("3/7", 1), ("-22/7", 2), ("1_000/3", 4), (" 7/10 ", 2), ("12.5", 3), (".5", 2),
    ("1e999", 1000), ("1e-999", 1000), ("1E+3", 4), ("123.456e-2", 6), ("1.5e-0000000000000000000003", 5),
])
def test_coordinate_digits_bound_the_fraction(text, digits):
    """The count read from the text is at least the digits of the
    numerator and of the denominator that Fraction builds, and exact for
    a decimal point moved by its exponent."""
    value = Fraction(text)
    assert cli.coordinate_digits(text) == digits
    assert digits >= max(len(str(abs(value.numerator))), len(str(value.denominator)))


def test_z_digit_cap_and_cap_plus_one(capsys):
    """-z admits coordinates of Z_DIGITS_MAX digits, in either coordinate
    and either form, and refuses one digit more, or an exponent of any
    length, before building a number."""
    cap = cli.Z_DIGITS_MAX
    f = field(1)
    admitted = [f"{10**cap - 1}/{10**(cap - 1) + 1}", f"0,{10**(cap - 1)}/3", "1e-999", f"1e{cap - 1}"]
    for text in admitted:
        cli.parse_z(f, text)
    refused = [f"{10**cap}/3", f"0,1/{10**cap}", f"1e-{cap}", f"1e{cap}", "1e" + "9" * 10**5, "1e-" + "9" * 10**5]
    for text in refused:
        with pytest.raises(ValueError, match=rf"^-z: a coordinate may have at most {cap} digits"):
            cli.parse_z(f, text)
    code, out = run(capsys, "cfrac", "-d", "1", "-z", f"1/{10**cap - 1}")
    assert code == EXIT_OK and "(terminated)" in out


def test_cfrac_caps_max_steps_times_the_bits_of_the_denominator(capsys, monkeypatch):
    """1/3 + i/5 is (5 + 3i)/15 in O_1, a denominator of 4 bits."""
    # the default --max-steps passes at every point that -z admits, whose
    # denominator has at most twice Z_DIGITS_MAX digits
    assert 40 * (2 * cli.Z_DIGITS_MAX * math.log2(10) + 1) < cli.CFRAC_STEPS_BITS_MAX
    monkeypatch.setattr(cli, "CFRAC_STEPS_BITS_MAX", 40)
    code, out = run(capsys, "cfrac", "-d", "1", "-z", "1/3,1/5", "--max-steps", "10")
    assert code == EXIT_OK, run.err
    code, out = run(capsys, "cfrac", "-d", "1", "-z", "1/3,1/5", "--max-steps", "11")
    assert code == EXIT_PRECONDITION and out == ""
    assert run.err == ("error: --max-steps times the bit length of the denominator of -z "
                       "must be at most 40; got 11 * 4\n")


@pytest.mark.parametrize("argv", [
    ["alpha", "-d", "3", "-k", "251", "--delta", "99998"],
    ["alpha", "-d", "1", "-k", "1001", "--delta", "99999"],
    ["expandp", "-d", "11", "-k", "121", "--delta", "2", "--check"],
    ["expandp", "-d", "3", "-k", "27", "--delta", "25000"],
])
def test_cost_rules_admit_calls_that_the_old_caps_refused(capsys, monkeypatch, argv):
    """Calls of 0.7 to 7 s that a cap on -k, or on -k times the deltas,
    refused pass the cost rules (the work stubbed out)."""
    monkeypatch.setattr(forms, "alphas", lambda f, k, deltas: [0] * len(deltas))
    monkeypatch.setattr(forms, "transfer_coefficients", lambda f, k, delta: {})
    monkeypatch.setattr(polyspace, "support_membership", lambda f, k, supp, label: True)
    code, out = run(capsys, *argv)
    assert code == EXIT_OK, run.err


def test_theta_caps_s_times_the_bits_of_the_discriminant(capsys, monkeypatch):
    """|d_K| * Delta = 12 has 4 bits in O_1 at Delta = 3."""
    code, out = run(capsys, "theta", "-d", "1", "--delta", "3", "-s", str(cli.THETA_S_BITS_MAX // 4 + 1))
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: -s times") and str(cli.THETA_S_BITS_MAX) in line
    monkeypatch.setattr(cli, "THETA_S_BITS_MAX", 40)
    code, out = run(capsys, "theta", "-d", "1", "--delta", "3", "-s", "10", "--format", "json")
    assert code == EXIT_OK, run.err
    assert Fraction(json.loads(out)[0]["theta"]) == lfun.theta(field(1), 3, 10)
    code, out = run(capsys, "theta", "-d", "1", "--delta", "3", "-s", "11")
    assert code == EXIT_PRECONDITION and out == "" and run.err.startswith("error: -s times")
    # 7 * 6 has 6 bits in O_7, so s = 7 is past the cap and s = 6 within it
    code, out = run(capsys, "theta", "-d", "7", "--delta", "6", "-s", "7")
    assert code == EXIT_PRECONDITION and "7 * 6" in run.err
    code, out = run(capsys, "theta", "-d", "7", "--delta", "6", "-s", "6")
    assert code == EXIT_OK, run.err


def test_theta_is_the_product_of_the_local_factors_at_inverse_powers():
    """The Horner evaluation of `lfun.theta` equals the product over p | d_K
    Delta of sum c_i X^i at X = p^(-1-s) in `Fraction`s, including a Delta
    with a high prime power, whose local factor has many terms."""
    for d in (1, 2, 3, 7, 11):
        f = field(d)
        for delta in (1, 2, 3, 12, 3**40, 2**30 * 5, 30030):
            for s in (1, 2, 5):
                want = Fraction(1)
                for p in sorted(intarith.factorize(f.abs_disc * delta)):
                    x = Fraction(1, p ** (s + 1))
                    want *= sum(c * x**i for i, c in enumerate(lfun.local_factor(f, -delta, p)))
                assert lfun.theta(f, delta, s) == want, (d, delta, s)


def test_bits_cap_and_cap_plus_one(capsys, monkeypatch):
    top = cli.MAX_BITS
    code, out = run(capsys, "lvalue", "-d", "1", "-s", "3", "--bits", str(top))
    assert code == EXIT_OK and "0.968946" in out
    assert_argparse_refuses(capsys, ["lvalue", "-d", "1", "-s", "3", "--bits", str(top + 1)], "--bits")
    assert_argparse_refuses(capsys, ["bench", "-d", "1", "--bits", str(top + 1)], "--bits")
    monkeypatch.setenv("HERMITIA_PRECISION", str(top))
    code, out = run(capsys, "lvalue", "-d", "1", "-s", "3")
    assert code == EXIT_OK and "0.968946" in out
    monkeypatch.setenv("HERMITIA_PRECISION", str(top + 1))
    for argv in (["lvalue", "-d", "1", "-s", "3"], ["bench", "-d", "1", "--repeats", "1"]):
        code, out = run(capsys, *argv)
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line.startswith("error: HERMITIA_PRECISION") and f"at most {top}" in line


def test_bench_repeats_cap_and_cap_plus_one(capsys, monkeypatch):
    # the default five repeats stay legal at the --bits cap
    assert 5 * cli.MAX_BITS <= cli.BENCH_REPEATS_BITS_MAX
    monkeypatch.setattr(cli, "BENCH_REPEATS_BITS_MAX", 3 * 16)
    code, out = run(capsys, "bench", "-d", "1", "--bits", "16", "--repeats", "3", "--format", "csv")
    assert code == EXIT_OK, run.err
    assert parse_rows(out, "csv")[0]["agree"] == "True"
    monkeypatch.setenv("HERMITIA_PRECISION", "16")
    # cap + 1 = 49 * 1, and 4 repeats at 16 bits from --bits and from the variable
    for argv in (["--bits", "49", "--repeats", "1"], ["--bits", "16", "--repeats", "4"], ["--repeats", "4"]):
        code, out = run(capsys, "bench", "-d", "1", *argv)
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line.startswith("error: --repeats times the precision") and "at most 48" in line


def test_alpha_count_rows_equal_the_form_sum(capsys):
    for d in (1, 2, 3, 7, 11):
        code, out = run(capsys, "alpha", "-d", str(d), "-k", "3", "--count", "40", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        f = field(d)
        assert [row["delta"] for row in rows] == nonnorm_deltas(f, 40)
        for row in rows:
            assert row["alpha"] == forms.alpha_direct(f, 3, row["delta"]), (d, row["delta"])


def hconst_cost(d: int, k: int, delta: int, bits: list[int]) -> int:
    """The cost rule of `cli.cmd_hconst`, restated: 2.6*10^5 per form of
    discriminant Delta, and per point of b bits
    b ((k+2) ((k+2) (b+L)^2 + 5500 F) + 3*10^6), L the bit length of Delta."""
    nforms, k2, lbits = forms.alpha(field(d), 0, delta), k + 2, delta.bit_length()
    return 26 * 10**4 * nforms + sum(b * (k2 * (k2 * (b + lbits) ** 2 + 5500 * nforms) + 3 * 10**6)
                                     for b in bits)


def largest_admitted_k(d: int, delta: int, bits: list[int]) -> int:
    """The largest odd k whose `hconst_cost` is within HCONST_WALK_MAX."""
    lo, hi = 0, cli.HCONST_WALK_MAX  # k = 2 j + 1 for j in [lo, hi]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if hconst_cost(d, 2 * mid + 1, delta, bits) <= cli.HCONST_WALK_MAX:
            lo = mid
        else:
            hi = mid - 1
    return 2 * lo + 1


def test_hconst_k_cap_counts_the_points_denominators(capsys):
    """The cost rule bounds k through (k+2)^2 b (b+L)^2: at a lattice point
    (1 bit) the largest admitted k runs and prints alpha_{k,Delta} whole,
    and a point of denominator 15 (4 bits) lowers it fourfold."""
    top = largest_admitted_k(1, 3, [1])
    base = ["hconst", "-d", "1", "--delta", "3", "-z", "0"]
    code, out = run(capsys, *base, "-k", str(top), "--format", "csv")
    assert code == EXIT_OK, run.err
    want = forms.alpha(field(1), top, 3)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(parse_rows(out, "csv")[0]["value"]) == want
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(SystemExit):
        main([*base, "-k", str(top + 1)])
    assert "argument -k: must be odd" in capsys.readouterr().err
    top4 = largest_admitted_k(1, 3, [4])
    assert top4 <= top // 4 + 1
    for argv in ([*base, "-k", str(top + 2)],
                 ["hconst", "-d", "1", "--delta", "3", "-z", "1/3,1/5", "-k", str(top4 + 2)]):
        code, out = run(capsys, *argv)
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line.startswith("error: the walk's cost") and str(cli.HCONST_WALK_MAX) in line


@pytest.mark.parametrize("argv", [
    ["-d", "1", "-k", "11", "--delta", "3", "--den", str(10**600), "--points", "1"],
    ["-d", "1", "-k", "101", "--delta", "3", "--den", str(2**1000), "--points", "1"],
    ["-d", "1", "-k", "1", "--delta", "3", "--den", str(10**1000), "--points", "20"],
    ["-d", "3", "-k", "1", "--delta", "20000", "-z", f"1/3,{3**40 + 1}/{2**63 + 1}"],
])
def test_hconst_walk_cost_is_capped(capsys, argv):
    """Calls that walked for 12 s to minutes: long walks at small Delta and
    large k, and one 64-bit point at a large Delta, exit 2 before any
    walk."""
    start = time.perf_counter()
    code, out = run(capsys, "hconst", *argv)
    assert time.perf_counter() - start < 2
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: the walk's cost at -k and --delta") and str(cli.HCONST_WALK_MAX) in line


def test_hconst_walk_cost_at_the_cap_and_one_past_it(capsys, monkeypatch):
    # two points of 2 and 4 bits at k = 3 over the 22 forms of Delta = 5
    # (3 bits)
    cost = hconst_cost(2, 3, 5, [2, 4])
    assert cost == 26 * 10**4 * 22 + sum(b * (5 * (5 * (b + 3) ** 2 + 5500 * 22) + 3 * 10**6) for b in (2, 4))
    argv = ["hconst", "-d", "2", "-k", "3", "--delta", "5", "-z", "1/2", "-z", "1/3,1/5"]
    monkeypatch.setattr(cli, "HCONST_WALK_MAX", cost)
    code, out = run(capsys, *argv)
    assert code == EXIT_OK, run.err
    monkeypatch.setattr(cli, "HCONST_WALK_MAX", cost - 1)
    code, out = run(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == ""
    assert f"must be at most {cost - 1}; got {cost}" in run.err


def test_hconst_caps_count_drawn_points_at_the_bits_of_den(capsys, monkeypatch):
    """A point drawn without -z counts the 4 bits of --den 8 whatever
    --seed draws: two of them at k = 1 over the 14 forms of Delta = 3 cost
    the same for every seed."""
    cost = hconst_cost(1, 1, 3, [4, 4])
    base = ["hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", "2", "--den", "8"]
    for seed in map(str, range(4)):
        monkeypatch.setattr(cli, "HCONST_WALK_MAX", cost)
        code, out = run(capsys, *base, "--seed", seed)
        assert code == EXIT_OK, run.err
        monkeypatch.setattr(cli, "HCONST_WALK_MAX", cost - 1)
        code, out = run(capsys, *base, "--seed", seed)
        assert code == EXIT_PRECONDITION and out == ""
        assert f"must be at most {cost - 1}; got {cost}" in run.err


@pytest.mark.parametrize("d, delta, points, den", [(3, 3899, 20, 8), (11, 2, 24459, 8), (3, 43088, 1, 1)])
def test_hconst_cost_admits_its_timed_corners_whatever_the_seed(capsys, monkeypatch, d, delta, points, den):
    """The corners that `scripts/time_caps.py` times pass the cost rule for
    every seed (the walks are skipped): the 20 default points at O_3,
    Delta = 3899, the most cheap points, and one lattice point at the most
    forms.  At the last two one more point is past the cap."""
    monkeypatch.setattr(hsum, "eval_points", lambda f, k, delta, points: [0] * len(points))
    argv = ["hconst", "-d", str(d), "-k", "1", "--delta", str(delta), "--den", str(den)]
    for seed in map(str, range(3)):
        code, out = run(capsys, *argv, "--points", str(points), "--seed", seed, "--format", "json")
        assert code == EXIT_OK, run.err
        assert len(json.loads(out)) == points + 1
    at_the_cap = points != 20
    assert (hconst_cost(d, 1, delta, [den.bit_length()] * (points + 1)) > cli.HCONST_WALK_MAX) == at_the_cap


def test_hconst_points_times_delta_is_capped(capsys, monkeypatch):
    """--points is a factor of the cost, and each -z point counts as well."""
    # 10^18 points are refused before any point is drawn
    start = time.perf_counter()
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", str(10**18))
    assert time.perf_counter() - start < 2
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: the walk's cost") and "--points" in line
    # the rule at ten points and one past it, drawn or given by -z (0 has
    # denominator 1, so its point costs less than a drawn one of 4 bits)
    monkeypatch.setattr(cli, "HCONST_WALK_MAX", hconst_cost(1, 1, 3, [4] * 10))
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", "10",
                    "--format", "json")
    assert code == EXIT_OK, run.err
    assert len(json.loads(out)) == 11
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", "11")
    assert code == EXIT_PRECONDITION and "--points" in run.err
    monkeypatch.setattr(cli, "HCONST_WALK_MAX", hconst_cost(1, 1, 3, [1] * 10))
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", *(f"-z={i}" for i in range(10)))
    assert code == EXIT_OK, run.err
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", *(f"-z={i}" for i in range(11)))
    assert code == EXIT_PRECONDITION and "-z" in run.err


def average_cells_are_finite(out: str) -> bool:
    (row,) = parse_rows(out, "csv")
    return all(math.isfinite(float(row[c])) for c in ("quadrature", "formula", "rel_error"))


def test_average_k_is_bounded_by_the_float_range(capsys):
    # -k 440 printed formula inf and rel_error nan; -k 441 raised OverflowError
    for k in (440, 441):
        code, out = run(capsys, "average", "-d", "2", "-k", str(k), "--delta", "5", "--grid", "2")
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line.startswith("error: -k times") and "--delta" in line and f"{k} * 3" in line
    for d in (1, 2, 3, 7, 11):
        f = field(d)
        delta = nonnorm_deltas(f, 1)[0]
        top = cli.AVERAGE_K_BITS_MAX // (delta + 2).bit_length()
        argv = ["average", "-d", str(d), "--delta", str(delta), "--grid", "2", "--format", "csv"]
        code, out = run(capsys, *argv, "-k", str(top))
        assert code == EXIT_OK and average_cells_are_finite(out), (d, run.err, out)
        code, out = run(capsys, *argv, "-k", str(top + 1))
        assert code == EXIT_PRECONDITION and out == "" and run.err.startswith("error: -k times")
        # the largest Delta that the --delta cap admits bounds every Delta
        # the cost rule admits: check its largest floats, the closed form and
        # the bound on the sum of the grid's values (at most
        # AVERAGE_WALK_MAX / 30 of them), at the -k cap
        delta = max(x for x in range(cli.DELTA_MAX - 99, cli.DELTA_MAX + 1)
                    if not is_norm(f, x))
        top = cli.AVERAGE_K_BITS_MAX // (delta + 2).bit_length()
        bound = hsum.tail_bound(f, top, delta, 1) * (top - 1) * float(mpmath.zeta(top))
        assert math.isfinite(hsum.formula_average(f, top, delta))
        assert math.isfinite(bound * cli.AVERAGE_WALK_MAX / 30)


def test_average_delta_cap_and_cap_plus_one(capsys, monkeypatch):
    # the --delta cap is DELTA_MAX; at it the cost rule refuses, so it is
    # lifted and the walk stubbed out
    asked = []

    def quadrature(f, k, delta, grid, a_max):
        asked.append(delta)
        return hsum.AverageReport(f.d, k, delta, grid, a_max, 1.0, 1.0)

    monkeypatch.setattr(hsum, "average_quadrature", quadrature)
    monkeypatch.setattr(cli, "AVERAGE_WALK_MAX", 10**10)
    top = cli.DELTA_MAX
    assert not is_norm(field(3), top)
    argv = ["average", "-d", "3", "-k", "3", "--grid", "1", "--delta"]
    code, out = run(capsys, *argv, str(top))
    assert code == EXIT_OK and asked == [top], run.err
    code, out = run(capsys, *argv, str(top + 1))
    assert code == EXIT_PRECONDITION and out == "" and asked == [top]
    (line,) = run.err.splitlines()
    assert line == f"error: --delta must be at most {top}; got {top + 1}"


def test_average_caps_grid_squared_times_delta(capsys, monkeypatch):
    """The cost rule: the F forms of --delta times (250 + grid^2), plus
    30 grid^2 for the walk's arrays."""
    # the golden grid 16 and the benchmark's grid 64 over the 22 forms of
    # Delta = 5 stay well inside
    assert 22 * (250 + 64 * 64) + 30 * 64 * 64 <= cli.AVERAGE_WALK_MAX
    # grid 4 over the 246,740 forms of Delta = 4879 in O_3 took 10.2 s
    code, out = run(capsys, "average", "-d", "3", "-k", "3", "--delta", "4879", "--grid", "4")
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    cost = 246740 * (250 + 16) + 30 * 16
    assert line == f"error: the walk's cost at --delta and --grid must be at most {cli.AVERAGE_WALK_MAX}; got {cost}"
    # 10^9 is refused before any grid is built
    start = time.perf_counter()
    code, out = run(capsys, "average", "-d", "2", "-k", "3", "--delta", "5", "--grid", str(10**9))
    assert time.perf_counter() - start < 2
    assert code == EXIT_PRECONDITION and out == "" and "--grid" in run.err
    argv = ["average", "-d", "2", "-k", "3", "--delta", "5", "--grid", "4"]
    monkeypatch.setattr(cli, "AVERAGE_WALK_MAX", 22 * (250 + 16) + 30 * 16)
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK and average_cells_are_finite(out), run.err
    monkeypatch.setattr(cli, "AVERAGE_WALK_MAX", 22 * (250 + 16) + 30 * 16 - 1)
    code, out = run(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == ""
    assert run.err.startswith("error: the walk's cost at --delta and --grid")


def expandp_cost(d: int, k: int, delta: int, check: bool) -> int:
    """The cost rule of `cli.cmd_expandp`, restated: (k+8)^3 (5 Delta + k)
    / w, w the number of units, plus k^4 (L + 5) with --check, L the bit
    length of Delta."""
    return (k + 8) ** 3 * (5 * delta + k) // len(field(d).units()) + (
        k**4 * (delta.bit_length() + 5) if check else 0)


def test_expandp_caps_k_cubed_times_delta(capsys, monkeypatch):
    """The cost rule at k = 3, Delta = 3 in O_1 (four units), with and
    without --check, at the cap and one past it."""
    assert expandp_cost(1, 3, 3, False) == 11**3 * 18 // 4
    assert expandp_cost(1, 3, 3, True) == 11**3 * 18 // 4 + 3**4 * 7
    for check in ([], ["--check"]):
        cost = expandp_cost(1, 3, 3, bool(check))
        argv = ["expandp", "-d", "1", "-k", "3", "--delta", "3", *check, "--format", "csv"]
        monkeypatch.setattr(cli, "EXPANDP_COST_MAX", cost)
        code, out = run(capsys, *argv)
        assert code == EXIT_OK, run.err
        assert parse_rows(out, "csv")[0].get("in_W1", "True") == "True"
        monkeypatch.setattr(cli, "EXPANDP_COST_MAX", cost - 1)
        code, out = run(capsys, *argv)
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line == f"error: the cost at -k and --delta, --check included must be at most {cost - 1}; got {cost}"


@pytest.mark.parametrize("value", ["3", "abc"])
def test_bad_precision_variable_exits_2_naming_it(capsys, monkeypatch, value):
    monkeypatch.setenv("HERMITIA_PRECISION", value)
    code, out = run(capsys, "lvalue", "-d", "1", "-s", "3")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert run.err.startswith("error: HERMITIA_PRECISION")
    # --bits overrides the variable, so the variable is not read
    code, out = run(capsys, "lvalue", "-d", "1", "-s", "3", "--bits", "64")
    assert code == EXIT_OK
    assert "0.968946" in out


def test_smallest_valid_values_are_accepted(capsys):
    code, out = run(capsys, "lvalue", "-d", "1", "-s", "3", "--bits", str(cli.MIN_BITS))
    assert code == EXIT_OK
    assert "0.968946" in out
    code, out = run(capsys, "dims", "-d", "7", "--kmax", "1")
    assert code == EXIT_OK and len(out.splitlines()) == 2


def test_unknown_eigen_label_exits_2_and_lists_the_labels(capsys):
    code, out = run(capsys, "basis", "-d", "1", "-k", "3", "--eigen", "bogus")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--eigen" in run.err
    assert "1, i, -1, -i" in run.err


# ------------------------------------------- internal certificate failures


def assert_certificate_exit(capsys, *argv, prefix="certificate failed: "):
    code, out = run(capsys, *argv)
    assert code == EXIT_ORACLE
    assert out == ""
    lines = run.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


def test_failed_kernel_verification_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(polyspace.WordOperator, "in_kernel", lambda self, cols, vecs, settled=None: False)
    assert_certificate_exit(capsys, "dims", "-d", "2", "--kmax", "3")


def test_non_hermitian_form_action_exits_3(capsys, monkeypatch):
    f = field(7)
    g = forms.gen_T_omega(f)
    h = forms.HermitianForm(1, f.zero, 1)
    # without the conjugation the action leaves the Hermitian forms
    monkeypatch.setattr(forms.GroupElement, "conj", lambda self: self)
    alpha = cli.COMMANDS["alpha"]._replace(fn=lambda args: [{"form": str(forms.act(g, h))}])
    monkeypatch.setitem(cli.COMMANDS, "alpha", alpha)
    assert_certificate_exit(capsys, "alpha", "-d", "1", "-k", "1")


def test_failed_expandp_membership_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(polyspace, "support_membership", lambda f, k, supp, label: False)
    assert_certificate_exit(capsys, "expandp", "-d", "1", "-k", "3", "--delta", "3", "--check",
                            prefix="oracle mismatch: ")


def test_failed_rcount_check_exits_3(capsys, monkeypatch):
    naive = lfun.r_count_naive
    monkeypatch.setattr(lfun, "r_count_naive", lambda f, disc, n: naive(f, disc, n) + 1)
    assert_certificate_exit(capsys, "rcount", "-d", "2", "--delta", "5", "-n", "3", "--check",
                            prefix="oracle mismatch: ")


def test_failed_selftest_check_exits_3_and_names_it(capsys, monkeypatch):
    alpha_direct = forms.alpha_direct
    monkeypatch.setattr(forms, "alpha_direct", lambda f, k, delta: alpha_direct(f, k, delta) + 1)
    code, out = run(capsys, "selftest", "--format", "json")
    assert code == EXIT_ORACLE
    failed = [(r["check"], r["status"][:5]) for r in json.loads(out) if r["status"] != "ok"]
    assert failed == [("alpha: divisor-sum vs form-sum", "FAIL:")]


# ------------------------------------------------------------------ parser


def exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_subcommand_help_equals_the_full_parsers(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    want = exit_and_output(capsys, cli.build_parser().parse_args, [name, "-h"])
    assert want[0] == EXIT_OK and want[1].startswith(f"usage: hermitia {name} ")
    assert exit_and_output(capsys, main, [name, "-h"]) == want


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["nosuch"],
        ["selftest", "-d", "1"],
        ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "0", "--bogus"],
    ],
)
def test_top_level_errors_equal_the_full_parsers(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = exit_and_output(capsys, cli.build_parser().parse_args, argv)
    got = exit_and_output(capsys, main, argv)
    assert got == want
    # the usage line lists every command
    assert "expandp,selftest}" in want[1] + want[2]


def test_main_builds_only_the_invoked_subcommand(capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    code, _ = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "1/3,1/5")
    assert code == EXIT_OK
    assert added == ["hconst"]


# ------------------------------------------------------------- python -m


def run_python(*args, timeout=60):
    """`python args` in a fresh process that imports hermitia from this
    checkout, stopped after `timeout` s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def run_module(*argv, timeout=60):
    """`python -m hermitia argv` in a fresh process, stopped after `timeout` s."""
    return run_python("-m", "hermitia", *argv, timeout=timeout)


def test_python_dash_m_runs_the_cli():
    done = run_module("alpha", "-d", "1", "-k", "1", "--delta", "3")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[1].split() == ["1", "1", "3", "20"]


# makes one call in a fresh interpreter, then reports whether mpmath is loaded
MPMATH_PROBE = """
import contextlib, io, sys
from hermitia import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "mpmath" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads", [
    (["alpha", "-d", "1", "-k", "1", "--count", "3"], False),
    (["theta", "-d", "1", "--delta", "3", "-s", "3"], False),
    (["rcount", "-d", "1", "--delta", "3", "-n", "5", "12", "--check"], False),
    (["hconst", "-d", "2", "-k", "3", "--delta", "5", "-z", "1/3,1/2"], False),
    (["cfrac", "-d", "1", "-z", "7/10,1/3"], False),
    (["expandp", "-d", "1", "-k", "3", "--delta", "3"], False),
    (["expandp", "-d", "1", "-k", "3", "--delta", "3", "--check"], False),
    (["dims", "-d", "2", "--kmax", "5"], False),
    (["basis", "-d", "1", "-k", "5"], False),
    (["selftest"], False),
    (["lvalue", "-d", "1", "-s", "3"], True),
    (["lvalue", "-d", "2", "-s", "-2"], True),
    (["average", "-d", "2", "-k", "3", "--delta", "5", "--grid", "4", "--a-max", "50"], True),
    (["bench", "-d", "1", "--repeats", "1", "--bits", "16"], True),
])
def test_only_the_l_value_commands_import_mpmath(argv, loads):
    """Only `lvalue`, `bench` and `average` compute with multiprecision
    floats; every other command, and `import hermitia`, runs without
    loading mpmath."""
    done = run_python("-c", MPMATH_PROBE, *argv)
    assert done.stdout.split() == [str(EXIT_OK), str(loads)], done.stderr
