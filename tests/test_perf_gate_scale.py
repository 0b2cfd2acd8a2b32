"""The scale-suite perf gate on the committed ``BENCH_scale.json``.

Every scale point the baseline also holds must reproduce its simulated
``latency_us``, ``events`` and ``stage_table`` exactly: all three are
deterministic, so any drift is a change of the simulated program.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "BENCH_scale.json"
BASELINE = ROOT / "benchmarks" / "perf" / "baseline" / "BENCH_scale.json"


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "ci" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gate(perf_gate, tmp_path, fresh: dict) -> int:
    fresh_path = tmp_path / "BENCH_scale.json"
    fresh_path.write_text(json.dumps(fresh))
    return perf_gate.main([str(fresh_path), "--baseline", str(BASELINE)])


def test_committed_artifact_passes(perf_gate, capsys):
    assert perf_gate.main([str(COMMITTED), "--baseline",
                           str(BASELINE)]) == 0
    assert "perf gate passed" in capsys.readouterr().out


def _perturbed(mutate) -> tuple[dict, str]:
    doc = copy.deepcopy(json.loads(COMMITTED.read_text()))
    point = next(r for r in doc["results"]
                 if r.get("stage_table") and "events" in r)
    mutate(point)
    return doc, point["name"]


def test_stage_value_drift_fails_naming_the_point(perf_gate, tmp_path,
                                                  capsys):
    def bump_stage(point):
        point["stage_table"][0][1] += 0.001

    doc, name = _perturbed(bump_stage)
    assert _gate(perf_gate, tmp_path, doc) == 1
    err = capsys.readouterr().err
    assert f"simulated stage_table drift in {name}" in err


def test_event_count_drift_fails_naming_the_point(perf_gate, tmp_path,
                                                  capsys):
    def add_event(point):
        point["events"] += 1

    doc, name = _perturbed(add_event)
    assert _gate(perf_gate, tmp_path, doc) == 1
    err = capsys.readouterr().err
    assert f"simulated events drift in {name}" in err
    assert "stage_table drift" not in err
