"""Self-tests of the benchmark (slow: they run the workloads' child
processes).  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import meter  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from g2forge.g2 import standard_frame  # noqa: E402
from tracer import Tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _child(tmp_path: Path, mode: str, seed: int, count: int,
           trace: bool = True) -> dict:
    out = tmp_path / f"{mode}-{seed}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--out", str(out),
           "--seed", str(seed), "--count", str(count)]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, cwd=ROOT, env=ENV, check=True, timeout=170)
    return json.loads(out.read_text())


def _counts(summary: dict) -> dict:
    """Everything in a tracer summary except the timings."""
    return {"spans": {k: v["calls"] for k, v in summary["spans"].items()},
            "leaves": {k: v["calls"] for k, v in summary["leaves"].items()},
            "counts": summary["counts"], "nested": summary["nested"]}


@pytest.mark.parametrize("mode,count", [("operators", 18), ("su3", 5)])
def test_same_seed_repeats_counts_and_outputs(tmp_path, mode, count):
    first = _child(tmp_path, mode, 3, count)
    second = _child(tmp_path, mode, 3, count)
    assert first["failed"] == second["failed"] == 0
    assert first["inputs_digest"] == second["inputs_digest"]
    assert first["outputs_digest"] == second["outputs_digest"]
    assert _counts(first["trace"]) == _counts(second["trace"])
    metrics = layers.per_layer([first["trace"]], [], [], 0.0)
    again = layers.per_layer([second["trace"]], [], [], 0.0)
    assert set(metrics) == {name for name, _ in layers.metric_names()}
    for name, unit in layers.metric_names():
        if unit == "count":
            assert metrics[name] == again[name], name
    if mode == "su3":
        assert metrics["pairing.interpolate_p_coefficients.points"] == 120
        assert metrics["pairing.haar_su3.samples"] == 3 * wl.MC_SAMPLES
        assert metrics["aw.first_principles_value.two_route_calls"] == count


def test_different_seed_changes_inputs():
    def op_inputs(seed):
        return [[k, s, [wl.to_json(a) for a in args]]
                for k, s, args in wl.operator_inputs(seed, 18, standard_frame())]

    def su3_inputs(seed):
        mc_seeds, elements = wl.su3_inputs(seed, 5)
        return mc_seeds, [xi.to_json() for xi in elements]

    assert op_inputs(1) == op_inputs(1)
    assert op_inputs(1) != op_inputs(2)
    assert su3_inputs(1) == su3_inputs(1)
    assert su3_inputs(1) != su3_inputs(2)
    assert run.stream(1, "suites").randrange(2 ** 31) != \
        run.stream(2, "suites").randrange(2 ** 31)


def test_ledger_matches_a_fresh_aw_report(tmp_path):
    report = tmp_path / "aw.json"
    proc = subprocess.run(
        [sys.executable, "-m", "g2forge", "run", "--suite", "aw", "--seed",
         "0", "--random", "1", "--format", "json", "--output", str(report)],
        cwd=ROOT, env=ENV, timeout=170)
    assert proc.returncode == 1
    assert run._failing_ids(report) == run.AW_LEDGER
    # a suite that crashed before writing its report fails the gate
    assert run._failing_ids(tmp_path / "missing.json") is None


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        layers.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_self_time_is_duration_minus_children():
    tracer = Tracer("unit")

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.span("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    tracer.span("outer", outer)()
    summ = tracer.summary()
    spans = summ["spans"]
    assert spans["outer"]["calls"] == 1 and spans["inner"]["calls"] == 2
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["total_s"] - spans["inner"]["total_s"])
    assert 0.005 < spans["outer"]["self_s"] < spans["inner"]["self_s"]
    assert summ["nested"] == {"outer>inner": 2}


def test_hook_time_is_in_no_self_time():
    tracer = Tracer("unit")
    traced_inner = tracer.span("inner", lambda: None,
                               hook=lambda args, kwargs: time.sleep(0.02))
    tracer.span("outer", traced_inner)()
    spans = tracer.summary()["spans"]
    assert spans["inner"]["total_s"] > 0.02
    assert spans["inner"]["self_s"] < 0.005
    assert spans["outer"]["self_s"] < 0.005


def test_meter_scales_work_by_the_probes_around_it():
    m = meter.Meter()
    # a probe every 0.1 s; for the first second the machine runs at half
    # the reference speed, so its probes take twice the reference time
    for k in range(21):
        slow = 2 if k < 10 else 1
        m.record(k * 0.1, k * 0.1 + slow * meter.REF_PROBE_S)
    slow_work = m.raw(0.25, 0.65)
    assert slow_work == pytest.approx(0.4 - 4 * 2 * meter.REF_PROBE_S)
    assert m.scaled(0.25, 0.65) == pytest.approx(slow_work / 2)
    fast_work = m.raw(1.25, 1.65)
    assert m.scaled(1.25, 1.65) == pytest.approx(fast_work)
    # time outside the probed span takes the nearest gap's scale
    assert m.scaled(-0.5, 0.0) == pytest.approx(0.25)
    assert m.scaled(3.0, 4.0) == pytest.approx(1.0)
