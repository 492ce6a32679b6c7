"""Time the command-line front door: parser builds and whole `cli.main` calls.

    PYTHONPATH=src python3 scripts/time_cli.py

Prints three lines: the milliseconds per `build_parser()` with every
subcommand, per parser of the one subcommand `hconst`, and the median
milliseconds of 200 `cli.main` calls of one `hconst` point (stdout
discarded, exit code checked).  Parser builds report the best of five rounds of 200 builds.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
import timeit

from hermitia import cli

ARGV = ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "1/3,1/5", "--format", "json"]
CALLS = 200


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


def main() -> None:
    print(f"build_parser() all commands  {ms_per_build(cli.build_parser):7.3f} ms")
    one = ms_per_build(lambda: cli.build_parser("hconst"))
    print(f"build_parser('hconst')       {one:7.3f} ms")
    print(f"cli.main {' '.join(ARGV)}  median of {CALLS}  {main_call_ms():7.3f} ms")


if __name__ == "__main__":
    main()
