"""Tests of the benchmark itself (not of hermitia):

    python3 -m pytest -q bench

They run reduced-size workloads, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_run_emits_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    ctx_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    ctx = json.loads(ctx_line)["context"]
    assert {"seed", "cpus", "python", "numpy", "mpmath", "commit", "traced"} <= set(ctx)
    assert ctx["seed"] == 3 and ctx["traced"] == bool(trace)


def test_workload_names_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_inputs_depend_only_on_seed():
    for build in workloads.WORKLOADS.values():
        assert [c.argv for c in build(5, False)] == [c.argv for c in build(5, False)]
    hconst = workloads.hconst_points
    assert [c.argv for c in hconst(5, False)] != [c.argv for c in hconst(6, False)]
    assert len(hconst(5, False)) == 360


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: they
    # cover [1, 6]) and c [8, 12] (clipped to [8, 10]); a has child a1 [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_scale_uses_samples_near_the_measurement():
    meter = speed.Speedometer()
    meter.times = [0.0, 0.1, 0.2, 0.3, 0.4, 5.0, 5.1, 5.2, 5.3, 5.4, 5.5]
    meter.durations = [0.002] * 5 + [0.004] * 6
    # a call in [5.2, 5.3] sees the six slow samples within 1 s of it
    assert meter.scale(5.2, 5.3) == pytest.approx(speed.NOMINAL_REF_S / 0.004)
    # a call at 2.5 has none within 1 s and takes the five nearest
    assert meter.scale(2.5, 2.5) == pytest.approx(speed.NOMINAL_REF_S / 0.002)


def test_speedometer_samples_during_a_long_call():
    with speed.Speedometer() as meter:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(meter.durations) >= 4  # entry, exit and at least two alarms
    assert meter.spent == pytest.approx(sum(meter.durations), rel=0.5)


def test_layer_metrics_report_zero_for_uncalled_functions():
    tree = [["cli.main", 0.0, 2.0, -1, 0], ["hsum.eval_exact", 0.5, 1.5, 0, 0]]
    passes = [{"spans": tree, "counts": {"hsum.eval_exact.window_a": 12}, "distinct": {}}] * 2
    metrics = spans.layer_metrics(passes)
    assert metrics["cli.main.calls"] == (1, "count")
    assert metrics["cli.main.self_s"] == pytest.approx((1.0, "s"))
    assert metrics["hsum.eval_exact.window_a"] == (12, "count")
    assert metrics["linalg.quad_kernel.calls"] == (0, "count")
    assert metrics["forms.expand_P.repeat_ratio"] == (0, "ratio")


def test_install_wraps_every_alias_and_skips_missing(monkeypatch):
    import hermitia
    from hermitia import cli, field, forms, hsum, lfun  # noqa: F401 - cli imports every module

    # monkeypatch restores every hermitia binding the tracer replaces
    for name, mod in list(sys.modules.items()):
        if name == "hermitia" or name.startswith("hermitia."):
            for attr, value in list(vars(mod).items()):
                if callable(value):
                    monkeypatch.setattr(mod, attr, value)
    monkeypatch.setattr(spans, "FUNCTIONS", spans.FUNCTIONS + ["linalg.removed_fn"])
    tracer = spans.Tracer()
    assert tracer.install() == ["linalg.removed_fn"]
    assert hsum.expand_P is forms.expand_P is hermitia.expand_P
    assert lfun.alpha is forms.alpha is hermitia.alpha

    lfun.l_closed_form(field(1), -2)
    names = [s[0] for s in tracer.spans]
    assert "forms.alpha" in names  # reached through lfun's by-name binding
    child = tracer.spans[names.index("forms.alpha")]
    assert tracer.spans[child[3]][0] == "lfun.l_closed_form"
    z = hermitia.QuadElem.from_display(field(1), 1, 0)
    hsum.eval_exact(field(1), 1, 3, z)
    assert tracer.counts["hsum.eval_exact.window_a"] == 3
    metrics = spans.layer_metrics(
        [{"spans": tracer.spans, "counts": tracer.counts, "distinct": {}}]
    )
    assert metrics["linalg.removed_fn.calls"] == (0, "count")


def test_wrong_expected_value_fails_calls(monkeypatch):
    table = {d: dict(t) for d, t in workloads.DIM_TABLES.items()}
    table[2]["1"] = [1, 99, 3, 4, 5, 6]
    monkeypatch.setattr(workloads, "DIM_TABLES", table)
    calls = workloads.cocycle_dims(0, small=True)
    passes = run.run_passes([list(c.argv) for c in calls], 0, trace=False)
    attempted, failed = run.check_outputs(calls, passes)
    assert attempted == 10
    assert failed == 2  # d = 2, exact and modular
