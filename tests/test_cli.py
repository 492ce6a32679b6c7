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


@pytest.mark.parametrize("argv", [["alpha", "-d", "2", "-k", "1"], ["lvalue", "-d", "2", "-s", "3"]])
def test_delta_above_the_alpha_cap_exits_2(capsys, argv):
    code, out = run(capsys, *argv, "--delta", str(cli.ALPHA_DELTA_MAX + 1))
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert run.err.startswith("error: --delta") and str(cli.ALPHA_DELTA_MAX) in run.err


@pytest.mark.parametrize("argv,cap", [
    (["hconst", "-d", "2", "-k", "1", "-z", "0"], "FORMS_DELTA_MAX"),
    (["expandp", "-d", "2", "-k", "1"], "FORMS_DELTA_MAX"),
    (["average", "-d", "2", "-k", "3", "--grid", "1"], "AVERAGE_DELTA_MAX"),
])
def test_delta_above_the_forms_caps_exits_2(capsys, argv, cap):
    top = getattr(cli, cap)
    code, out = run(capsys, *argv, "--delta", str(top + 1))
    assert code == EXIT_PRECONDITION
    assert out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: --delta") and str(top) in line


@pytest.mark.parametrize("argv, cap", [
    (["alpha", "-d", "1", "--delta", "3"], "ALPHA_K_MAX"),
    (["expandp", "-d", "3", "--delta", "2"], "EXPANDP_K_MAX"),
])
def test_k_cap_and_cap_plus_one(capsys, argv, cap):
    top = getattr(cli, cap)
    code, out = run(capsys, *argv, "-k", str(top), "--format", "csv")
    assert code == EXIT_OK, run.err
    assert parse_rows(out, "csv")[0]["k"] == str(top)
    for k in (top + 1, top + 2):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-k", str(k)])
        assert exc.value.code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "argument -k:" in err and "Traceback" not in err
    assert f"must be at most {top}, got {top + 2}" in err


def assert_argparse_refuses(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at most" in err and "Traceback" not in err


def test_alpha_count_cap_and_cap_plus_one(capsys):
    top = cli.ALPHA_COUNT_MAX
    code, out = run(capsys, "alpha", "-d", "3", "-k", "1", "--count", str(top), "--format", "csv")
    assert code == EXIT_OK, run.err
    assert len(parse_rows(out, "csv")) == top
    assert_argparse_refuses(capsys, ["alpha", "-d", "3", "-k", "1", "--count", str(top + 1)], "--count")


def test_alpha_caps_k_times_the_sum_of_the_deltas(capsys, monkeypatch):
    # the default three deltas stay legal at the -k cap in every ring
    for d in (1, 2, 3, 7, 11):
        assert cli.ALPHA_K_MAX * sum(nonnorm_deltas(field(d), 3)) <= cli.ALPHA_K_DELTA_MAX
    # the 30 smallest non-norms of O_1 at the -k cap ran for minutes
    done = run_module("alpha", "-d", "1", "-k", str(cli.ALPHA_K_MAX), "--count", "30", timeout=20)
    assert done.returncode == EXIT_PRECONDITION and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: -k times the sum") and str(cli.ALPHA_K_DELTA_MAX) in line
    # the rule at the cap and one past it, for --count and for --delta:
    # the default deltas of O_1 are 3, 6, 7
    monkeypatch.setattr(cli, "ALPHA_K_DELTA_MAX", 3 * 16)
    code, out = run(capsys, "alpha", "-d", "1", "-k", "3", "--format", "csv")
    assert code == EXIT_OK and len(parse_rows(out, "csv")) == 3
    code, out = run(capsys, "alpha", "-d", "1", "-k", "3", "--delta", "7", "--format", "csv")
    assert code == EXIT_OK, run.err
    monkeypatch.setattr(cli, "ALPHA_K_DELTA_MAX", 3 * 16 - 1)
    for argv in (["-k", "3"], ["-k", "7", "--delta", "7"]):
        code, out = run(capsys, "alpha", "-d", "1", *argv)
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line.startswith("error: -k times the sum") and "--count" in line


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


def test_hconst_k_cap_counts_the_points_denominators(capsys):
    """k times the bit lengths of the denominators is capped: at a lattice
    point (1 bit) k may reach the cap, and a point of denominator 15 (4
    bits) lowers it fourfold."""
    top = cli.HCONST_K_BITS_MAX
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
    for argv in ([*base, "-k", str(top + 2)],
                 ["hconst", "-d", "1", "--delta", "3", "-z", "1/3,1/5", "-k", str(top // 4 + 1)],
                 ["hconst", "-d", "1", "--delta", "3", "-z", "1/2", "-k", str(top // 2 + 1)]):
        code, out = run(capsys, *argv)
        assert code == EXIT_PRECONDITION and out == ""
        (line,) = run.err.splitlines()
        assert line.startswith("error: -k times") and str(top) in line


@pytest.mark.parametrize("argv", [
    ["-d", "1", "-k", "11", "--delta", "3", "--den", str(10**600), "--points", "1"],
    ["-d", "1", "-k", "101", "--delta", "3", "--den", str(2**1000), "--points", "1"],
    ["-d", "1", "-k", "1", "--delta", "3", "--den", str(10**1000), "--points", "20"],
    ["-d", "3", "-k", "1", "--delta", "20000", "-z", f"1/3,{3**40 + 1}/{2**63 + 1}"],
])
def test_hconst_walk_cost_is_capped(capsys, argv):
    """Calls inside every other cap that walked for 12 s to minutes: long
    walks at small Delta and large k, and one 64-bit point at a large
    Delta, exit 2 before any walk."""
    start = time.perf_counter()
    code, out = run(capsys, "hconst", *argv)
    assert time.perf_counter() - start < 2
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: the walk's cost at -k and --delta") and str(cli.HCONST_WALK_MAX) in line


def test_hconst_walk_cost_at_the_cap_and_one_past_it(capsys, monkeypatch):
    # two points of 2 and 4 bits at k = 3, Delta = 5: the sum over them of
    # 5 b (5 b^2 + 7*10^4 * 5) + 3*10^6 * 5
    cost = 5 * 2 * (5 * 4 + 350000) + 5 * 4 * (5 * 16 + 350000) + 2 * 15 * 10**6
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
    --seed draws: two of them at k = 1, Delta = 3 cost
    2 * (3 * 4 * (3 * 16 + 7*10^4 * 3) + 3*10^6 * 3) for every seed."""
    cost = 2 * (3 * 4 * (3 * 16 + 210000) + 9 * 10**6)
    base = ["hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", "2", "--den", "8"]
    for seed in map(str, range(4)):
        monkeypatch.setattr(cli, "HCONST_WALK_MAX", cost)
        code, out = run(capsys, *base, "--seed", seed)
        assert code == EXIT_OK, run.err
        monkeypatch.setattr(cli, "HCONST_WALK_MAX", cost - 1)
        code, out = run(capsys, *base, "--seed", seed)
        assert code == EXIT_PRECONDITION and out == ""
        assert f"must be at most {cost - 1}; got {cost}" in run.err


@pytest.mark.parametrize("points, delta", [(20, 3999), (1, 79999), (4000, 19)])
def test_hconst_walk_cap_admits_what_points_times_delta_admits(capsys, monkeypatch, points, delta):
    """At -k 1 and the default --den, every call with --points times
    --delta <= FORMS_DELTA_MAX passes the walk cap, whatever the seed (the
    walks are skipped)."""
    monkeypatch.setattr(hsum, "eval_exact", lambda f, k, delta, z: 0)
    for seed in map(str, range(3)):
        code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", str(delta),
                        "--points", str(points), "--seed", seed, "--format", "json")
        assert code == EXIT_OK, run.err
        assert len(json.loads(out)) == points + 1


def test_hconst_points_times_delta_is_capped(capsys, monkeypatch):
    # 20 default points at Delta = 4003 would walk 80,060 > FORMS_DELTA_MAX
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "4003")
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: --points times --delta") and str(cli.FORMS_DELTA_MAX) in line
    # the rule at the cap and one past it; -z points are not counted
    monkeypatch.setattr(cli, "FORMS_DELTA_MAX", 30)
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", "10",
                    "--format", "json")
    assert code == EXIT_OK, run.err
    assert len(json.loads(out)) == 11
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", "11")
    assert code == EXIT_PRECONDITION and "--points" in run.err
    code, out = run(capsys, "hconst", "-d", "1", "-k", "1", "--delta", "3", "--points", "11",
                    *(f"-z={i}" for i in range(11)))
    assert code == EXIT_OK, run.err


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
        # the largest admitted Delta walks for seconds in each ring: check
        # its largest floats, the closed form and the bound on the sum of the
        # grid's values, at the cap
        delta = max(x for x in range(cli.AVERAGE_DELTA_MAX - 99, cli.AVERAGE_DELTA_MAX + 1)
                    if not is_norm(f, x))
        top = cli.AVERAGE_K_BITS_MAX // (delta + 2).bit_length()
        bound = hsum.tail_bound(f, top, delta, 1) * (top - 1) * float(mpmath.zeta(top))
        assert math.isfinite(hsum.formula_average(f, top, delta))
        assert math.isfinite(bound * cli.AVERAGE_GRID_DELTA_MAX / delta)


def test_average_delta_cap_and_cap_plus_one(capsys, monkeypatch):
    # the benchmark's and the golden file's --delta 5 stay far inside
    assert 5 <= cli.AVERAGE_DELTA_MAX
    # the cap itself passes every check; its walk (about 6 s) is stubbed out
    asked = []

    def quadrature(f, k, delta, grid, a_max):
        asked.append(delta)
        return hsum.AverageReport(f.d, k, delta, grid, a_max, 1.0, 1.0)

    monkeypatch.setattr(hsum, "average_quadrature", quadrature)
    top = cli.AVERAGE_DELTA_MAX
    assert not is_norm(field(3), top)
    argv = ["average", "-d", "3", "-k", "3", "--grid", "1", "--delta"]
    code, out = run(capsys, *argv, str(top))
    assert code == EXIT_OK and asked == [top], run.err
    code, out = run(capsys, *argv, str(top + 1))
    assert code == EXIT_PRECONDITION and out == "" and asked == [top]
    (line,) = run.err.splitlines()
    assert line == f"error: --delta must be at most {top}; got {top + 1}"


def test_average_caps_grid_squared_times_delta(capsys, monkeypatch):
    # the golden grid 16 and the benchmark's grid 64 at Delta = 5 stay well inside
    assert 4 * 64 * 64 * 5 <= cli.AVERAGE_GRID_DELTA_MAX
    # grid 16 at Delta = 4000 would walk 256 points over 4000's forms at once
    code, out = run(capsys, "average", "-d", "3", "-k", "3", "--delta", "4000", "--grid", "16")
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: --grid squared times --delta") and "16 * 16 * 4000" in line
    argv = ["average", "-d", "2", "-k", "3", "--delta", "5", "--grid", "4"]
    monkeypatch.setattr(cli, "AVERAGE_GRID_DELTA_MAX", 4 * 4 * 5)
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK and average_cells_are_finite(out), run.err
    monkeypatch.setattr(cli, "AVERAGE_GRID_DELTA_MAX", 4 * 4 * 5 - 1)
    code, out = run(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == ""
    assert run.err.startswith("error: --grid squared times --delta")


def test_expandp_caps_k_cubed_times_delta(capsys, monkeypatch):
    # the -k cap stays legal at the smallest Delta (test_k_cap_and_cap_plus_one)
    assert cli.EXPANDP_K_MAX**3 * 2 <= cli.EXPANDP_K3_DELTA_MAX
    # -k 81 --delta 8003 took 15 s with each flag inside its own cap
    code, out = run(capsys, "expandp", "-d", "1", "-k", "81", "--delta", "8003")
    assert code == EXIT_PRECONDITION and out == ""
    (line,) = run.err.splitlines()
    assert line.startswith("error: -k cubed times --delta") and "81 * 81 * 81 * 8003" in line
    argv = ["expandp", "-d", "1", "-k", "3", "--delta", "3"]
    monkeypatch.setattr(cli, "EXPANDP_K3_DELTA_MAX", 3**3 * 3)
    code, out = run(capsys, *argv, "--check", "--format", "csv")
    assert code == EXIT_OK and parse_rows(out, "csv")[0]["in_W1"] == "True", run.err
    monkeypatch.setattr(cli, "EXPANDP_K3_DELTA_MAX", 3**3 * 3 - 1)
    code, out = run(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == ""
    assert run.err.startswith("error: -k cubed times --delta")


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


def assert_certificate_exit(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_ORACLE
    assert out == ""
    lines = run.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("certificate failed: ")


def test_failed_kernel_verification_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(polyspace.WordOperator, "in_kernel", lambda self, cols, vec: False)
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


def run_module(*argv, timeout=60):
    """`python -m hermitia argv` in a fresh process, stopped after `timeout` s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "hermitia", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_python_dash_m_runs_the_cli():
    done = run_module("alpha", "-d", "1", "-k", "1", "--delta", "3")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[1].split() == ["1", "1", "3", "20"]
