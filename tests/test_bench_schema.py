"""BENCH_*.json artifact contract: schema, units, provenance, determinism.

The perf trajectory is only comparable over time if every artifact
carries the same keys, spells out its units, and records provenance
(git sha, python, platform, timestamp, seed) — and if the simulated
quantities (event counts, final clocks) are deterministic, so two
same-seed runs differ only in wall-clock noise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import bench_engine, bench_scale, bench_serve  # noqa: E402
from benchmarks.perf.common import (  # noqa: E402
    REQUIRED_KEYS, REQUIRED_META_KEYS, SCHEMA, write_bench)


@pytest.fixture
def small_engine(monkeypatch):
    """Shrink the engine scenarios so two full runs stay test-sized."""
    monkeypatch.setattr(bench_engine, "CHURN_EVENTS", 2_000)
    monkeypatch.setattr(bench_engine, "LOCKSTEP_PROCS", 32)
    monkeypatch.setattr(bench_engine, "LOCKSTEP_ROUNDS", 10)
    monkeypatch.setattr(bench_engine, "CASCADE_PROCS", 2)
    monkeypatch.setattr(bench_engine, "CASCADE_ROUNDS", 500)
    monkeypatch.setattr(bench_engine, "OPEN_LOOP_ARRIVALS", 600)
    monkeypatch.setattr(bench_engine, "OPEN_LOOP_BURST", 1_600)
    return bench_engine


def _check_schema(doc: dict) -> None:
    for key in REQUIRED_KEYS:
        assert key in doc, f"missing top-level key {key!r}"
    assert doc["schema"] == SCHEMA
    for key in REQUIRED_META_KEYS:
        assert key in doc["meta"], f"missing meta key {key!r}"
    assert re.fullmatch(r"[0-9a-f]{40}|unknown", doc["meta"]["git_sha"])
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                        doc["meta"]["timestamp_utc"])
    assert isinstance(doc["results"], list) and doc["results"]
    assert all(isinstance(r, dict) and "name" in r for r in doc["results"])
    assert isinstance(doc["units"], dict)


def _check_units(doc: dict) -> None:
    """Every numeric result field has a declared unit."""
    numeric = {k for r in doc["results"] for k, v in r.items()
               if isinstance(v, (int, float))}
    assert numeric <= set(doc["units"]), \
        f"undeclared units for {numeric - set(doc['units'])}"


def test_engine_schema_and_units(small_engine, tmp_path):
    out = tmp_path / "BENCH_engine.json"
    doc = small_engine.run(out_path=out)
    _check_schema(doc)
    assert doc["suite"] == "engine"
    _check_units(doc)
    assert set(doc["calendar_vs_reference"]) == {s for s, _ in
                                                 small_engine.SCENARIOS}
    assert all(ratio > 0 for ratio in doc["calendar_vs_reference"].values())
    # the file on disk round-trips to the same document
    assert json.loads(out.read_text()) == doc


def test_scale_schema_and_units(monkeypatch, tmp_path):
    # One small cell stands for the sweep: every row has the same keys.
    monkeypatch.setattr(bench_scale, "_points", lambda smoke: [
        ("barrier", "single_switch", 16, "host")])
    doc = bench_scale.run(out_path=tmp_path / "BENCH_scale.json")
    _check_schema(doc)
    assert doc["suite"] == "scale"
    _check_units(doc)


def test_serve_schema_and_units(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVE_REQUESTS", "40")
    monkeypatch.setattr(bench_serve, "_points",
                        lambda smoke: [("poisson", 0.8)])
    doc = bench_serve.run(out_path=tmp_path / "BENCH_serve.json")
    _check_schema(doc)
    assert doc["suite"] == "serve"
    _check_units(doc)


def test_committed_artifacts_declare_every_unit():
    for suite in ("engine", "scale", "serve"):
        for path in (ROOT / f"BENCH_{suite}.json",
                     ROOT / "benchmarks" / "perf" / "baseline"
                     / f"BENCH_{suite}.json"):
            _check_units(json.loads(path.read_text()))


def test_two_same_seed_runs_identical_event_counts(small_engine, tmp_path):
    a = small_engine.run(out_path=tmp_path / "a.json")
    b = small_engine.run(out_path=tmp_path / "b.json")

    def sim_facts(doc):
        return [(r["name"], r["events"], r["final_sim_ns"])
                for r in doc["results"]]

    assert sim_facts(a) == sim_facts(b)
    assert a["meta"]["seed"] == b["meta"]["seed"]


def test_write_bench_sorted_and_newline_terminated(tmp_path):
    out = tmp_path / "x.json"
    write_bench(out, "engine", units={"n": "count"},
                results=[{"name": "r", "n": 1}], seed=7)
    text = out.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["meta"]["seed"] == 7
    assert list(doc) == sorted(doc)              # sort_keys on disk


def test_committed_baselines_conform():
    """The baselines the CI gate compares against obey the schema."""
    baseline_dir = ROOT / "benchmarks" / "perf" / "baseline"
    paths = sorted(baseline_dir.glob("BENCH_*.json"))
    assert [p.name for p in paths] == \
        ["BENCH_engine.json", "BENCH_scale.json", "BENCH_serve.json"]
    for path in paths:
        _check_schema(json.loads(path.read_text()))


def test_serve_baseline_crosses_saturation():
    """The serve baseline spans pre- and post-saturation loads for both
    arrival processes, so the gate has a knee to hold on to."""
    doc = json.loads((ROOT / "benchmarks" / "perf" / "baseline" /
                      "BENCH_serve.json").read_text())
    assert doc["suite"] == "serve"
    by_arrivals: dict[str, list] = {}
    for r in doc["results"]:
        by_arrivals.setdefault(r["arrivals"], []).append(r)
        assert r["goodput_rps"] > 0
        assert r["p50_us"] <= r["p99_us"] <= r["p999_us"]
    for arrivals in ("poisson", "bursty"):
        rhos = {r["rho"] for r in by_arrivals[arrivals]}
        assert min(rhos) < 1.0 < max(rhos)
    overloaded = [r for r in by_arrivals["poisson"] if r["rho"] > 1.0]
    assert all(r["shed"] > 0 for r in overloaded)


def test_scale_baseline_names_and_bounding_stages():
    """The scale baseline covers the host/nic grid and every result
    names its critical-path bounding stage."""
    doc = json.loads((ROOT / "benchmarks" / "perf" / "baseline" /
                      "BENCH_scale.json").read_text())
    assert doc["suite"] == "scale"
    names = {r["name"] for r in doc["results"]}
    for topology in ("single_switch", "fat_tree"):
        for ranks in (16, 64, 256, 1024):
            for policy in ("host", "nic"):
                assert f"barrier/{topology}/{ranks}/{policy}" in names
    for r in doc["results"]:
        assert r["latency_us"] > 0
        assert isinstance(r["bounding_stage"], str) and r["bounding_stage"]
