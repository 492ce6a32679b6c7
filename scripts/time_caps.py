"""Time the slowest calls that the CLI caps admit, each in a fresh process.

    PYTHONPATH=src python3 scripts/time_caps.py [NAME ...]

Runs each "slowest call at the cap" of the README cap table, the corners
of the cost rules of `alpha`, `expandp`, `hconst` and `average`, and one
call past each of those four rules, as `python3 -m hermitia ARGV` in a fresh
process started by a fresh wrapper process, so that the wrapper's
`getrusage(RUSAGE_CHILDREN)` covers that one call.  Prints one line per
call: its name, the exit code, the wall seconds, the peak RSS in MB and the
argv (the long points written as the expressions that made them), and
the error line of a call that did not exit 0.  With NAMEs it runs only
those calls.  Exits 1 if an admitted call did not exit 0, or a call past a
cap (a `*-past-cap` name) did not exit 2, after running every call.
"""

from __future__ import annotations

import subprocess
import sys


def point(a: int, b: int) -> tuple[str, str]:
    """The point (2^a + 1)/3^b + theta/3^b, whose denominator has about
    1.585 b bits, as its -z value and as shown."""
    return f"{2**a + 1}/{3**b},1/{3**b}", f"(2**{a}+1)/3**{b},1/3**{b}"


CALLS: dict[str, list] = {
    # alpha's cost: printing at the largest k at the smallest delta, at a
    # delta just below a power of two, at the default three deltas and at 30;
    # the sigma_k sieve at the largest k at the --delta cap (O_1, and O_2 with
    # the most norm classes); the largest --count at k = 1 and at k = 1001;
    # the largest k at a middle delta and at 1000 deltas
    "alpha-k": ["alpha", "-d", "1", "-k", "1096043", "--delta", "3"],
    "alpha-k-31": ["alpha", "-d", "1", "-k", "370689", "--delta", "31"],
    "alpha-k-count": ["alpha", "-d", "2", "-k", "311761"],
    "alpha-k-count-30": ["alpha", "-d", "2", "-k", "56323", "--count", "30"],
    "alpha-delta": ["alpha", "-d", "1", "-k", "1083", "--delta", "99999"],
    "alpha-delta-o2": ["alpha", "-d", "2", "-k", "1083", "--delta", "100000"],
    "alpha-count": ["alpha", "-d", "2", "-k", "1", "--count", "9959"],
    "alpha-count-k1001": ["alpha", "-d", "2", "-k", "1001", "--count", "3304"],
    "alpha-mid-delta": ["alpha", "-d", "2", "-k", "3587", "--delta", "20013"],
    "alpha-mid-count": ["alpha", "-d", "2", "-k", "4983", "--count", "1000"],
    # one past alpha's cost: printing 30 values of 600,000 bits took minutes
    "alpha-past-cap": ["alpha", "-d", "1", "-k", "100001", "--count", "30"],
    # expandp's cost: the --delta cap at k = 1 and at the largest k (O_1, the
    # slowest sweep, and O_3); the plan at the largest k at the smallest Delta
    # (O_7, O_11); --check at the largest k (O_11, O_1); and k^3 Delta with
    # --check at k = 27 (O_2, O_3), k = 81 (O_2) and the largest k at
    # Delta = 301 (O_1)
    "expandp-k1-delta": ["expandp", "-d", "1", "-k", "1", "--delta", "99999"],
    "expandp-delta": ["expandp", "-d", "1", "-k", "15", "--delta", "99999"],
    "expandp-delta-o3": ["expandp", "-d", "3", "-k", "19", "--delta", "99998"],
    "expandp-k": ["expandp", "-d", "7", "-k", "235", "--delta", "3"],
    "expandp-k-o11": ["expandp", "-d", "11", "-k", "235", "--delta", "2"],
    "expandp-check": ["expandp", "-d", "11", "-k", "123", "--delta", "2", "--check"],
    "expandp-check-o1": ["expandp", "-d", "1", "-k", "125", "--delta", "3", "--check"],
    "expandp-k3-delta": ["expandp", "-d", "2", "-k", "27", "--delta", "16688", "--check"],
    "expandp-k3-delta-o3": ["expandp", "-d", "3", "-k", "27", "--delta", "50061", "--check"],
    "expandp-k81-delta": ["expandp", "-d", "2", "-k", "81", "--delta", "638", "--check"],
    "expandp-mid-check": ["expandp", "-d", "1", "-k", "97", "--delta", "301", "--check"],
    # one past expandp's cost: -k 81 --delta 8003 took 15 s
    "expandp-past-cap": ["expandp", "-d", "1", "-k", "81", "--delta", "8003"],
    "theta-s": ["theta", "-d", "1", "--delta", "3", "-s", "250000"],
    "dims": ["dims", "-d", "11", "--kmax", "27"],
    # the O_2 corner of `dims`: --method modular runs the same certified
    # route as --method exact, and prints the same table
    "dims-modular": ["dims", "-d", "2", "--kmax", "27", "--method", "modular"],
    "basis": ["basis", "-d", "11", "-k", "27"],
    "rcount-check": ["rcount", "-d", "1", "--delta", "3", "-n", "1000", "--check"],
    "lvalue-bits": ["lvalue", "-d", "11", "-s", "3", "--bits", "3000"],
    "bench-repeats-bits": ["bench", "-d", "11", "-s", "-2", "--bits", "3000", "--repeats", "5"],
    # hconst's cost: the most forms at one lattice point (O_3, 1,084,786
    # forms), the 20 default points, many cheap points (O_11, 4 forms), long
    # walks at small Delta, long walks at a large Delta, and large k
    "hconst-forms": ["hconst", "-d", "3", "-k", "1", "--delta", "43088", "-z", "0"],
    "hconst-points": ["hconst", "-d", "3", "-k", "1", "--delta", "3899"],
    "hconst-many-points": ["hconst", "-d", "11", "-k", "1", "--delta", "2", "--points", "24459"],
    "hconst-many-60-bit": ["hconst", "-d", "11", "-k", "1", "--delta", "2", "--points", "1585",
                           "--den", str(2**60)],
    "walk-k1": ["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", point(3177, 2005)],
    "walk-k11": ["hconst", "-d", "1", "-k", "11", "--delta", "3", "-z", point(1201, 758)],
    "walk-k101": ["hconst", "-d", "1", "-k", "101", "--delta", "3", "-z", point(301, 190)],
    "walk-delta": ["hconst", "-d", "3", "-k", "1", "--delta", "20000", "-z", point(28, 18)],
    "walk-delta-o11": ["hconst", "-d", "11", "-k", "1", "--delta", "20000", "-z", point(39, 25)],
    "hconst-k": ["hconst", "-d", "1", "-k", "178341", "--delta", "3", "-z", "0"],
    "hconst-k-den77": ["hconst", "-d", "1", "-k", "22527", "--delta", "3", "-z", "1/7,1/11"],
    # one past hconst's cost: 2,508,602 forms, which took 16 s and 462 MB
    "hconst-past-cap": ["hconst", "-d", "1", "-k", "1", "--delta", "79999", "--points", "1"],
    # average's cost: the most forms at --grid 1 (O_2, 159,320 forms) at the
    # smallest and at the largest k, and the largest grids at the fewest
    # forms (O_11, 4), at the benchmark's Delta (O_2, 22) and at 1014 forms
    "average-forms": ["average", "-d", "2", "-k", "3", "--delta", "7581", "--grid", "1"],
    "average-k": ["average", "-d", "2", "-k", "73", "--delta", "7581", "--grid", "1"],
    "average-grid": ["average", "-d", "11", "-k", "3", "--delta", "2", "--grid", "1084"],
    "average-grid-22": ["average", "-d", "2", "-k", "3", "--delta", "5", "--grid", "876"],
    "average-grid-1014": ["average", "-d", "2", "-k", "3", "--delta", "101", "--grid", "195"],
    # one past average's cost: O_3 at Delta = 4879 (246,740 forms), --grid 4
    # took 10.2 s
    "average-past-cap": ["average", "-d", "3", "-k", "3", "--delta", "4879", "--grid", "4"],
}

# run in a fresh wrapper: one child, so RUSAGE_CHILDREN is that child's
WRAPPER = """
import resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run([sys.executable, "-m", "hermitia", *sys.argv[1:]], stdout=subprocess.DEVNULL)
seconds = time.perf_counter() - start
print(done.returncode, seconds, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def main(names: list[str]) -> int:
    failed = False
    for name in names or CALLS:
        argv = CALLS[name]
        values = [a[0] if isinstance(a, tuple) else a for a in argv]
        shown = " ".join(a[1] if isinstance(a, tuple) else a for a in argv)
        out = subprocess.run([sys.executable, "-c", WRAPPER, *values], capture_output=True, text=True, check=True)
        code, seconds, rss_kb = out.stdout.split()
        print(f"{name:20s} exit={code} {float(seconds):6.2f} s {int(rss_kb) / 1024:6.1f} MB  hermitia {shown}", flush=True)
        if code != "0":
            print(f"{'':20s} {out.stderr.strip()[:200]}", flush=True)
        failed |= code != ("2" if name.endswith("-past-cap") else "0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
