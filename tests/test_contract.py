"""The exit-code contract of the CLI, as a property over `cli.COMMANDS`.

For every subcommand, hypothesis draws an argv from small valid values, the
edge values 0, -1 and 1, malformed strings, missing flags, and values past
each cap or cost rule on their own (argparse's caps on one flag, and
`cli.at_most`'s on --delta, on a product of flags or on a command's cost),
which are refused before any work.  A cap itself is drawn where a call at
it runs in well under a second; the slower ones run at their caps in
test_cli.py or are timed in the README.  Every call must exit 0 with output that holds no nan
or inf cell, or exit 2 with one error line that names a flag, with its
dashes, or HERMITIA_PRECISION, and never raise.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermitia import cli
from hermitia.cli import EXIT_OK, EXIT_PRECONDITION, main

# the values of each flag besides EDGES; the flags that drive the amount of
# work stay small
POOLS: dict[str, dict[str, list]] = {
    # the cost of alpha is at least u^2 per delta, u = k times the bit length
    # of a delta (at least 2), and at least count^2 for --count; that of
    # expandp at least k^4 / 6: each of these values is past the rule on its
    # own
    "alpha": {
        "-k": [1, 3, 5, math.isqrt(cli.ALPHA_COST_MAX) | 1],
        "--delta": [3, 5, 6, 7, cli.DELTA_MAX + 1],
        "--count": [2, 3, 40, cli.ALPHA_COST_MAX + 1],
    },
    "theta": {"--delta": [2, 3, 5, 6, 12, 3**40], "-s": [2, 3, cli.THETA_S_BITS_MAX + 1]},
    "rcount": {
        "--delta": [2, 3, 5, 7],
        "-n": [2, 6, 12, 2**61 - 1, cli.RCOUNT_CHECK_MAX_N, cli.RCOUNT_CHECK_MAX_N + 1],
        "--check": [],
    },
    "lvalue": {
        "-s": [3, 5, 7, -2, -4, 4],
        "--delta": [2, 3, 5, cli.DELTA_MAX + 1],
        "--bits": [cli.MIN_BITS, 64, cli.MAX_BITS, cli.MAX_BITS + 1],
    },
    "bench": {
        "-s": [-2, -4, 3],
        "--bits": [cli.MIN_BITS, 32, cli.MAX_BITS + 1],
        "--repeats": [1, 2, cli.BENCH_REPEATS_BITS_MAX + 1],
    },
    # the costs of hconst and average are at least (k+2)^2, --points and
    # --grid^2, so each of these values is past the cost cap on its own
    "hconst": {
        "-k": [1, 3, math.isqrt(cli.HCONST_WALK_MAX) | 1],
        "--delta": [30, 6, 10, 2, 3, cli.DELTA_MAX + 1],
        "-z": ["0", "1/3,1/2", "-1/2", "2/7,-3/5", "1/0", "1,2,3", f"1e-{cli.Z_DIGITS_MAX}"],
        "--points": [1, 2, cli.HCONST_WALK_MAX + 1],
        "--den": [1, 5, 10**1000],
        "--seed": [0, 1],
    },
    "average": {
        "-k": [3, 4, 5, cli.AVERAGE_K_BITS_MAX + 1],
        "--delta": [30, 6, 10, 2, 3, cli.DELTA_MAX + 1],
        "--grid": [1, 2, 4, math.isqrt(cli.AVERAGE_WALK_MAX) + 1],
        "--a-max": [50, 200],
    },
    # f"{3**700}/..." and "1e309,1": exact points whose integers exceed the
    # float range
    "cfrac": {
        "-z": ["1/3", "7/10,1/3", "-2/7,3/5", "0", "1/0", f"{3**700}/{2**1100},0", "1e309,1",
               f"1e-{cli.Z_DIGITS_MAX}"],
        "--max-steps": [5, 40, cli.CFRAC_STEPS_BITS_MAX + 1],
    },
    "dims": {"--kmax": [1, 3, 5, cli.WKK_K_MAX + 1], "--method": ["exact", "modular"]},
    "basis": {"-k": [1, 2, 3, 5, cli.WKK_K_MAX + 1], "--eigen": ["1", "-1", "i"]},
    "expandp": {
        "-k": [1, 3, 5, cli.EXPANDP_COST_MAX | 1],
        "--delta": [30, 6, 10, 2, 3, cli.DELTA_MAX + 1],
        "--check": [],
    },
    "selftest": {},
}
RINGS = ["1", "2", "3", "7", "11"]
EDGES = ["0", "-1", "1", "x", "2.5", ""]
PRECISION = [None, None, None, "64", "x", str(cli.MAX_BITS + 1)]
NAN_OR_INF = re.compile(r"(?<![\w.])[-+]?(nan|inf|infinity)(?!\w)", re.IGNORECASE)


def flag_options(name: str) -> list[tuple[str, dict]]:
    """(flag, add_argument keywords) of each of the command's arguments."""
    return [(flags[0], kwargs) for flags, kwargs in cli.COMMANDS[name].arguments]


def odds(draw, yes: int, no: int) -> bool:
    """True with odds `yes` to `no`."""
    return draw(st.sampled_from([True] * yes + [False] * no))


@st.composite
def argvs(draw, name: str) -> list[str]:
    argv = [name]
    if cli.COMMANDS[name].needs_d and odds(draw, 9, 1):
        argv += ["-d", draw(st.sampled_from(RINGS * 2 + ["4", "x"]))]
    if odds(draw, 1, 1):
        argv += ["--format", draw(st.sampled_from(["table", "json", "csv"] * 2 + ["xml"]))]
    for flag, kwargs in flag_options(name):
        # a required flag is left out now and then, an optional one often
        if not (odds(draw, 9, 1) if kwargs.get("required") else odds(draw, 1, 1)):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag)
            continue
        pool = [str(v) for v in POOLS[name][flag]]
        repeat = kwargs.get("nargs") == "+" or kwargs.get("action") == "append"
        for _ in range(draw(st.integers(1, 2)) if repeat else 1):
            value = draw(st.sampled_from(pool if odds(draw, 7, 1) else EDGES))
            # "--flag=value" keeps a value that starts with "-" attached
            argv.append(f"{flag}={value}")
    return argv


@contextlib.contextmanager
def precision(value: str | None):
    old = os.environ.pop("HERMITIA_PRECISION", None)
    if value is not None:
        os.environ["HERMITIA_PRECISION"] = value
    try:
        yield
    finally:
        os.environ.pop("HERMITIA_PRECISION", None)
        if old is not None:
            os.environ["HERMITIA_PRECISION"] = old


def names_a_flag(line: str, name: str) -> bool:
    """Whether `line` names HERMITIA_PRECISION or one of the command's
    flags, with its dashes."""
    words = ["HERMITIA_PRECISION", "-d", "--format", *(flag for flag, _ in flag_options(name))]
    return any(re.search(rf"(?<![\w-]){re.escape(w)}(?![\w-])", line) for w in words)


def test_every_flag_has_a_pool():
    for name in cli.COMMANDS:
        assert sorted(POOLS[name]) == sorted(flag for flag, _ in flag_options(name)), name


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_exit_code_contract(name):
    # selftest takes no argument of its own: a few draws cover its options
    @settings(max_examples=4 if name == "selftest" else 100, deadline=None, database=None,
              derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argvs(name), env=st.sampled_from(PRECISION))
    def check(argv, env):
        out, err = io.StringIO(), io.StringIO()
        with precision(env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (EXIT_OK, EXIT_PRECONDITION), (argv, env, code, err)
        assert "Traceback" not in err
        if code == EXIT_OK:
            assert out.strip() and not NAN_OR_INF.search(out), (argv, env, out)
        else:
            # argparse prints its usage lines before the one error line
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and err.splitlines()[-1] == errors[0], (argv, env, err)
            assert out == "" and names_a_flag(errors[0], name), (argv, env, err)

    check()
