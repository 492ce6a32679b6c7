"""The hermitia benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's CLI calls (see
workloads.py) run closed loop, one after the other, through
`hermitia.cli.main(argv)` in a worker process (worker.py); passes repeat,
each in a fresh worker, until S seconds have passed (at least one pass).
Every call's output is then checked against an independent oracle.  Times
are scaled to a reference speed (speed.py).

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced run (spans.py) and the tracing overhead, and writes the
spans to bench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the run's context.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from spans import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_STARTS = 11
PASS_TIMEOUT_S = 170
# A fresh interpreter imports the CLI, builds its parser and constructs the
# five rings: the set-up every CLI invocation pays.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from hermitia import cli; from hermitia.field import field; "
    "cli.build_parser(); [field(d) for d in (1, 2, 3, 7, 11)]"
)


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("HERMITIA_PRECISION", "PYTHONPATH")}
    # numpy's BLAS would otherwise start a thread per CPU; a fixed hash seed
    # keeps set and dict orders, and so the work done, the same in every pass
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def setup_seconds() -> tuple[float, float]:
    """Median over several cold starts, each in a new interpreter, of the
    start's wall time: (scaled to the reference speed, raw).

    No timeout: with one, the wait polls at up to 50 ms intervals, which
    would quantize the measurement."""
    scaled, raw = [], []
    for _ in range(SETUP_STARTS):
        ref = speed.reference_now()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], env=_env(), check=True)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.NOMINAL_REF_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def run_passes(argvs: list[list[str]], seconds: float, trace: bool) -> list[dict]:
    """Fresh-worker passes over the calls until `seconds` have passed."""
    job = json.dumps({"src": str(SRC), "calls": argvs, "trace": trace})
    passes: list[dict] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=job, capture_output=True, text=True, env=_env(), timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        passes.append(json.loads(proc.stdout))
    return passes


def check_outputs(calls: list, passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every call of every pass.  A call fails on a
    nonzero exit code, an exception, or output its oracle rejects."""
    attempted = failed = 0
    for p in passes:
        by_argv = {}
        for call, (code, out, _) in zip(calls, p["results"]):
            if code == 0:
                try:
                    by_argv[call.argv] = json.loads(out)
                except json.JSONDecodeError:
                    pass  # the call fails below, on the missing rows
        for call, (code, _, err) in zip(calls, p["results"]):
            attempted += 1
            try:
                ok = code == 0 and call.check(by_argv[call.argv], by_argv)
            except Exception as exc:  # noqa: BLE001 - malformed output fails the call
                ok, err = False, f"{err}check raised {exc!r}"
            if not ok:
                failed += 1
                if failed <= 5:
                    print(f"FAILED {' '.join(call.argv)} (exit {code}) {err.strip()}", file=sys.stderr)
    return attempted, failed


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(workload: str, seed: int, trace: bool) -> dict:
    import mpmath
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _git_commit(),
    }


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, context)."""
    from workloads import WORKLOADS

    calls = WORKLOADS[workload](seed, small)
    argvs = [list(c.argv) for c in calls]
    ctx = context(workload, seed, trace)
    setup_s, raw_setup_s = (None, None) if trace else setup_seconds()
    plain = run_passes(argvs, seconds, trace=False)
    traced = run_passes(argvs, seconds, trace=True) if trace else []
    attempted, failed = check_outputs(calls, plain + traced)

    raw_wall_s = statistics.median(p["wall_s"] for p in plain)
    call_s = [t for p in plain for t in p["scaled_call_s"]]
    raw_call_s = [t for p in plain for t in p["call_s"]]
    ctx.update(
        passes=len(plain),
        traced_passes=len(traced),
        calls_per_pass=len(calls),
        latency_samples=len(call_s),
        fail_rate=f"{failed}/{attempted}",
        raw={
            "setup_s": raw_setup_s,
            "wall_s": raw_wall_s,
            "call_p50_ms": _quantile(raw_call_s, 50) * 1e3,
            "call_p95_ms": _quantile(raw_call_s, 95) * 1e3,
            "reference_s": statistics.median(t for p in plain for t in p["reference_s"]),
        },
    )
    if trace:
        metrics = layer_metrics(traced)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace_overhead_s"] = (traced_wall - raw_wall_s, "s")
        ctx["missing_functions"] = traced[0]["missing"]
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload}-seed{seed}.json"
        with spans_file.open("w") as fh:
            json.dump({"context": ctx, "passes": [p["spans"] for p in traced]}, fh)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(sum(p["scaled_call_s"]) for p in plain), "s"),
            "call_p50_ms": (_quantile(call_s, 50) * 1e3, "ms"),
            "call_p95_ms": (_quantile(call_s, 95) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in plain) / 1024, "MB"),
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return line, ctx


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "hermitia" / "cli.py").is_file():
        print(f"error: no hermitia sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import hermitia

    if Path(hermitia.__file__).resolve().parent != SRC / "hermitia":
        print(f"error: imported hermitia from {hermitia.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    line, ctx = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps({"context": ctx}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
