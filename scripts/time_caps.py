"""Time the slowest calls that the CLI caps admit, each in a fresh process.

    PYTHONPATH=src python3 scripts/time_caps.py [NAME ...]

Runs each "slowest call at the cap" of the README cap table, and the
corners of `hconst`'s walk cap, as `python3 -m hermitia ARGV` in a fresh
process started by a fresh wrapper process, so that the wrapper's
`getrusage(RUSAGE_CHILDREN)` covers that one call.  Prints one line per
call: its name, the exit code, the wall seconds, the peak RSS in MB and the
argv (the long points written as the expressions that made them), and
the error line of a call that did not exit 0.  With NAMEs it runs only
those calls.
"""

from __future__ import annotations

import subprocess
import sys


def point(a: int, b: int) -> tuple[str, str]:
    """The point (2^a + 1)/3^b + theta/3^b, whose denominator has about
    1.585 b bits, as its -z value and as shown."""
    return f"{2**a + 1}/{3**b},1/{3**b}", f"(2**{a}+1)/3**{b},1/3**{b}"


CALLS: dict[str, list] = {
    "alpha-delta": ["alpha", "-d", "1", "-k", "3", "--delta", "99999"],
    "hconst-delta": ["hconst", "-d", "3", "-k", "1", "--delta", "80000", "-z", "0"],
    "expandp-delta": ["expandp", "-d", "3", "-k", "1", "--delta", "80000"],
    "hconst-points": ["hconst", "-d", "3", "-k", "1", "--delta", "3899"],
    "average-delta": ["average", "-d", "3", "-k", "3", "--delta", "4879", "--grid", "1"],
    "average-grid": ["average", "-d", "3", "-k", "3", "--delta", "4879", "--grid", "4"],
    "average-k": ["average", "-d", "3", "-k", "73", "--delta", "4879", "--grid", "1"],
    "alpha-k": ["alpha", "-d", "2", "-k", "100001"],
    "alpha-k-delta": ["alpha", "-d", "3", "-k", "25", "--delta", "99998"],
    "alpha-count": ["alpha", "-d", "3", "-k", "1", "--count", "300"],
    "expandp-k": ["expandp", "-d", "11", "-k", "81", "--delta", "2", "--check"],
    "expandp-k3-delta": ["expandp", "-d", "2", "-k", "19", "--delta", "72895", "--check"],
    "expandp-k81-delta": ["expandp", "-d", "2", "-k", "81", "--delta", "940", "--check"],
    "hconst-k-bits": ["hconst", "-d", "1", "-k", "27993", "--delta", "3", "-z", "1/7,1/11"],
    "theta-s": ["theta", "-d", "1", "--delta", "3", "-s", "250000"],
    "dims": ["dims", "-d", "11", "--kmax", "27"],
    "dims-modular": ["dims", "-d", "2", "--kmax", "27", "--method", "modular"],
    "basis": ["basis", "-d", "11", "-k", "27"],
    "rcount-check": ["rcount", "-d", "1", "--delta", "3", "-n", "1000", "--check"],
    "lvalue-bits": ["lvalue", "-d", "11", "-s", "3", "--bits", "3000"],
    "bench-repeats-bits": ["bench", "-d", "11", "-s", "-2", "--bits", "3000", "--repeats", "5"],
    # the walk cap: long walks at small Delta, and a walk at a large Delta
    "walk-k1": ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", point(3244, 2047)],
    "walk-k11": ["hconst", "-d", "1", "-k", "11", "--delta", "3", "-z", point(1219, 769)],
    "walk-k101": ["hconst", "-d", "1", "-k", "101", "--delta", "3", "-z", point(304, 192)],
    "walk-delta": ["hconst", "-d", "3", "-k", "1", "--delta", "20000", "-z", point(59, 37)],
    # one past the walk cap: a 64-bit point there took 11.9 s
    "walk-delta-past-cap": ["hconst", "-d", "3", "-k", "1", "--delta", "20000", "-z", point(63, 40)],
}

# run in a fresh wrapper: one child, so RUSAGE_CHILDREN is that child's
WRAPPER = """
import resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run([sys.executable, "-m", "hermitia", *sys.argv[1:]], stdout=subprocess.DEVNULL)
seconds = time.perf_counter() - start
print(done.returncode, seconds, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def main(names: list[str]) -> None:
    for name in names or CALLS:
        argv = CALLS[name]
        values = [a[0] if isinstance(a, tuple) else a for a in argv]
        shown = " ".join(a[1] if isinstance(a, tuple) else a for a in argv)
        out = subprocess.run([sys.executable, "-c", WRAPPER, *values], capture_output=True, text=True, check=True)
        code, seconds, rss_kb = out.stdout.split()
        print(f"{name:20s} exit={code} {float(seconds):6.2f} s {int(rss_kb) / 1024:6.1f} MB  hermitia {shown}", flush=True)
        if code != "0":
            print(f"{'':20s} {out.stderr.strip()[:200]}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
