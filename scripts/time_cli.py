"""Time the command-line front door: parser builds, whole `cli.main` calls,
and each command's cold start.

    PYTHONPATH=src python3 scripts/time_cli.py

Prints three lines: the milliseconds per `build_parser()` with every
subcommand, per parser of the one subcommand `hconst`, and the median
milliseconds of 200 `cli.main` calls of one `hconst` point (stdout
discarded, exit code checked).  Parser builds report the best of five rounds of 200 builds.
Then one line per command: the median milliseconds of RUNS fresh
`python3 -m hermitia ARGV` processes, interpreter start and imports
included, which is the time a user waits for a one-shot call.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
import timeit

from hermitia import cli

ARGV = ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "1/3,1/5", "--format", "json"]
CALLS = 200
# one small call per command, timed cold
COLD = {
    "alpha": ["alpha", "-d", "1", "-k", "1", "--count", "3"],
    "theta": ["theta", "-d", "1", "--delta", "3", "-s", "3"],
    "rcount": ["rcount", "-d", "1", "--delta", "3", "-n", "5", "12", "--check"],
    "lvalue": ["lvalue", "-d", "1", "-s", "3"],
    "bench": ["bench", "-d", "1", "--repeats", "1", "--bits", "16"],
    "hconst": ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "1/3,1/5"],
    "average": ["average", "-d", "2", "-k", "3", "--delta", "5", "--grid", "16", "--a-max", "100"],
    "cfrac": ["cfrac", "-d", "1", "-z", "7/10,1/3"],
    "dims": ["dims", "-d", "2", "--kmax", "11"],
    "basis": ["basis", "-d", "1", "-k", "5"],
    "expandp": ["expandp", "-d", "1", "-k", "5", "--delta", "3", "--check"],
    "selftest": ["selftest"],
}
RUNS = 9


def ms_per_build(build) -> float:
    return min(timeit.repeat(build, number=CALLS, repeat=5)) / CALLS * 1e3


def main_call_ms() -> float:
    times = []
    for _ in range(CALLS):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(list(ARGV))
            times.append(time.perf_counter() - start)
        if code != cli.EXIT_OK:
            raise SystemExit(f"{' '.join(ARGV)}: exit {code}")
    return statistics.median(times) * 1e3


def cold_start_ms(argv: list[str]) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "hermitia", *argv], stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if done.returncode != cli.EXIT_OK:
            raise SystemExit(f"{' '.join(argv)}: exit {done.returncode}")
    return statistics.median(times) * 1e3


def main() -> None:
    print(f"build_parser() all commands  {ms_per_build(cli.build_parser):7.3f} ms")
    one = ms_per_build(lambda: cli.build_parser("hconst"))
    print(f"build_parser('hconst')       {one:7.3f} ms")
    print(f"cli.main {' '.join(ARGV)}  median of {CALLS}  {main_call_ms():7.3f} ms")
    for name, argv in COLD.items():
        print(f"cold start {name:9s} median of {RUNS}  {cold_start_ms(argv):7.1f} ms  hermitia {' '.join(argv)}",
              flush=True)


if __name__ == "__main__":
    main()
