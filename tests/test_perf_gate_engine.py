"""The engine-suite perf gate on synthetic ``BENCH_engine.json`` docs.

``ci/perf_gate.py`` holds the engine to two checks: the ``churn``
calendar/reference ratio must clear ``--ratio-floor`` on any platform,
and each scenario's events/sec may not drop more than ``--tolerance``
below the baseline when both runs report the same platform.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "ci" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(churn_eps=600_000.0, ratio=0.65, platform="Linux-x86_64"):
    doc = {
        "schema": "repro-bench/1", "suite": "engine",
        "meta": {"platform": platform},
        "results": [
            {"name": "churn", "events": 400_000,
             "events_per_sec": churn_eps},
            {"name": "cascade", "events": 200_008,
             "events_per_sec": 1_000_000.0},
        ],
    }
    if ratio is not None:
        doc["calendar_vs_reference"] = {"churn": ratio, "cascade": 1.0}
    return doc


def _gate(perf_gate, tmp_path, fresh):
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps(_doc()))
    fresh_path.write_text(json.dumps(fresh))
    return perf_gate.main([str(fresh_path), "--baseline", str(base_path)])


def test_matching_run_passes(perf_gate, tmp_path, capsys):
    assert _gate(perf_gate, tmp_path, _doc()) == 0
    out = capsys.readouterr().out
    assert "ok: calendar/reference churn ratio" in out
    assert "ok: churn: 600,000 events/s" in out


def test_ratio_below_floor_fails(perf_gate, tmp_path, capsys):
    assert _gate(perf_gate, tmp_path, _doc(ratio=0.40)) == 1
    assert "below the 0.510x floor" in capsys.readouterr().err


def test_missing_ratio_fails(perf_gate, tmp_path, capsys):
    assert _gate(perf_gate, tmp_path, _doc(ratio=None)) == 1
    assert "no calendar_vs_reference.churn ratio" in capsys.readouterr().err


def test_events_per_sec_drop_on_matching_platform_fails(perf_gate, tmp_path,
                                                        capsys):
    assert _gate(perf_gate, tmp_path, _doc(churn_eps=600_000 * 0.79)) == 1
    assert "events/sec regression in churn" in capsys.readouterr().err


def test_events_per_sec_drop_on_other_platform_is_not_compared(
        perf_gate, tmp_path, capsys):
    fresh = _doc(churn_eps=600_000 * 0.79, platform="Darwin-arm64")
    assert _gate(perf_gate, tmp_path, fresh) == 0
    assert "skipping absolute events/sec" in capsys.readouterr().out
