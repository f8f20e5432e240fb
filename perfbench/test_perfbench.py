"""Self-tests of the campaign benchmark.

Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    MAX_END_TO_END,
    MAX_PER_LAYER,
    METRIC_NAME,
    PER_LAYER,
    WORKLOADS,
)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_counts():
    names = [metric.name for metric in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(name) for name in names), names
    assert 1 <= len(END_TO_END) <= MAX_END_TO_END
    assert 1 <= len(PER_LAYER) <= MAX_PER_LAYER
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in END_TO_END)
    assert max(m.bound for m in END_TO_END) == next(
        m.bound for m in END_TO_END if m.name == "setup_s"
    )
    for metric in PER_LAYER:
        assert set(metric.on) <= set(WORKLOADS), metric
        assert set(metric.moves) <= {m.name for m in END_TO_END}, metric


def test_benchmark_json_matches_workloads():
    data = _benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in data["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert data["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert data["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_recorder_restores_originals(tmp_path):
    recorder = spans.Recorder(tmp_path)
    before = []
    for module_name, path, _decorate in recorder.targets():
        owner = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part)
        before.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
    assert recorder.install() == []
    try:
        for owner, attr, original, _present in before:
            assert getattr(owner, attr) is not original, attr
    finally:
        recorder.uninstall()
    for owner, attr, original, present in before:
        assert getattr(owner, attr) is original, attr
        assert (attr in vars(owner)) == present, attr


def test_self_time_and_layer_metrics(tmp_path):
    recorder = spans.Recorder(tmp_path)
    unit = recorder._unit_span(lambda shared, task: recorder.call(spans.TRIALS, lambda: 1))
    assert unit(None, (3, "sobel", "default", "aes", "tight", "dfg")) == 1
    recorded = spans.load_spans(tmp_path)
    by_name = {span["name"]: span for span in recorded}
    outer, inner = by_name[spans.UNIT], by_name[spans.TRIALS]
    assert inner["unit"] == outer["unit"] == 3
    assert inner["parent"] == spans.UNIT
    assert outer["self_ns"] == outer["dur_ns"] - inner["dur_ns"]
    metrics = spans.layer_metrics(recorded, jobs=1)
    from_stamps = {"setup.import_s", "runtime.plan_s", "trace.overhead_s"}
    assert set(metrics) == {m.name for m in PER_LAYER} - from_stamps
    assert metrics["metrics.trials_self_s"] == inner["self_ns"] / 1e9
    trace = spans.chrome_trace(recorded, outer["ts_ns"], {"workload": "test"})
    assert [event["ph"] for event in trace["traceEvents"]] == ["X", "X"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_prints_every_metric(trace):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "1", "--seed", "3", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert set(last["metrics"]) == {f"{w}.{m.name}" for w in WORKLOADS for m in expected}
    for workload in WORKLOADS:
        for metric in expected:
            entry = last["metrics"][f"{workload}.{metric.name}"]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))
            assert f" {metric.name} " in result.stdout


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keys-deep", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
