"""One timed pass of a workload, in a fresh interpreter.

Reads {"src": path, "calls": [argv, ...], "trace": bool} as JSON on stdin,
makes each call through `hermitia.cli.main(argv)` in this process, one after
the other, and writes one JSON object to stdout: the pass's wall time, each
call's latency (raw and, untraced, scaled to the reference speed), exit code
and captured output, the process's peak RSS, and (when traced) the spans
and derived counts.  `run.py` starts one worker per pass so that every pass
starts cold, as a CLI invocation does.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from speed import Speedometer


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from hermitia import cli

    tracer = None
    missing: list[str] = []
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        missing = tracer.install()

    # untraced passes sample the machine's speed (speed.py); traced ones
    # report raw times only, so no sampling shows in their spans
    meter = Speedometer()
    clock = time.perf_counter
    results, timed = [], []
    with contextlib.nullcontext() if tracer else meter:
        spent0, t0 = meter.spent, clock()
        for i, argv in enumerate(job["calls"]):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.call_id = i
            spent, start = meter.spent, clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a crashing call is a failed call
                code = None
                err.write(traceback.format_exc())
            end = clock()
            timed.append((start, end, end - start - (meter.spent - spent)))
            results.append([code, out.getvalue(), err.getvalue()])
        wall_s = clock() - t0 - (meter.spent - spent0)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    call_s = [raw for _, _, raw in timed]
    report = {"wall_s": wall_s, "call_s": call_s, "rss_kb": rss_kb, "results": results}
    if tracer is None:
        report["scaled_call_s"] = [raw * meter.scale(s, e) for s, e, raw in timed]
        report["reference_s"] = meter.durations
    else:
        report.update(
            spans=tracer.spans,
            counts=dict(tracer.counts),
            distinct={name: len(keys) for name, keys in tracer.inputs.items()},
            missing=missing,
        )
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
