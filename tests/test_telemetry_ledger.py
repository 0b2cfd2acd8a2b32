"""Run ledgers: schema, digests, normalization of ledger/BENCH views."""

from __future__ import annotations

import json
import os

import pytest

from repro.config import DAWNING_3000
from repro.telemetry.ledger import (
    BENCH_SCHEMA,
    SCHEMA,
    RunView,
    config_digest,
    load_run,
    make_ledger,
    write_ledger,
)
from repro.telemetry.observe import run_ping_pong


# ----------------------------------------------------------- provenance
def test_config_digest_is_stable_and_short():
    d1 = config_digest(DAWNING_3000)
    d2 = config_digest(DAWNING_3000)
    assert d1 == d2
    assert len(d1) == 16
    assert all(c in "0123456789abcdef" for c in d1)


def test_config_digest_tracks_every_field():
    base = config_digest(DAWNING_3000)
    slowed = config_digest(DAWNING_3000.replace(pindown_lookup_us=20.0))
    assert slowed != base
    # Round-tripping back to the original values restores the digest.
    restored = DAWNING_3000.replace(pindown_lookup_us=20.0).replace(
        pindown_lookup_us=DAWNING_3000.pindown_lookup_us)
    assert config_digest(restored) == base


# ------------------------------------------------------------- assembly
def test_make_ledger_shape_and_stage_order():
    doc = make_ledger("evaluate", seed=7, cfg=DAWNING_3000, events=1234,
                      stages={"wire": 10_000, "trap": 40_000,
                              "poll": 10_000})
    assert doc["schema"] == SCHEMA
    assert doc["kind"] == "evaluate"
    assert doc["meta"]["seed"] == 7
    assert doc["config_digest"] == config_digest(DAWNING_3000)
    assert doc["events_processed"] == 1234
    # Stages are sorted by descending ns, ties broken by name.
    assert doc["stages"] == [["trap", 40_000], ["poll", 10_000],
                             ["wire", 10_000]]


def test_write_ledger_creates_parent_dirs(tmp_path):
    doc = make_ledger("observe", stages={"wire": 5})
    path = tmp_path / "a" / "b" / "ledger.json"
    out = write_ledger(path, doc)
    assert os.path.exists(out)
    assert json.loads(open(out).read())["schema"] == SCHEMA


def test_chrome_trace_writer_creates_parent_dirs(tmp_path):
    """All CLI artifact writers share the mkdir-parents contract."""
    from repro.cluster import Cluster
    from repro.instrument.export import write_chrome_trace
    from repro.instrument.measure import measure_one_way

    cluster = Cluster(n_nodes=2, trace=True)
    measure_one_way(cluster, 0, repeats=1, warmup=0)
    dest = tmp_path / "fresh" / "dir" / "trace.json"
    n = write_chrome_trace(cluster.tracer, str(dest))
    assert n > 0 and dest.exists()


# -------------------------------------------------------------- loading
def test_load_run_normalizes_a_ledger(tmp_path):
    doc = make_ledger(
        "observe", seed=3, cfg=DAWNING_3000, events=500, wall_s=0.25,
        stages={"wire": 9_000, "trap": 1_000},
        percentiles={"repro_message_latency_ns": {
            "p50": 100.0, "p99": 200.0, "p999": 250.0}},
        metrics=[{"name": "repro_sent_total", "kind": "counter",
                  "labels": {"node": "0"}, "value": 4},
                 {"name": "repro_message_latency_ns", "kind": "histogram",
                  "labels": {}, "count": 4, "sum": 400.0,
                  "p50": 100.0, "p95": 190.0, "p99": 200.0}])
    path = write_ledger(tmp_path / "run.json", doc)
    view = load_run(path)
    assert view.schema == SCHEMA and view.kind == "observe"
    assert view.config_digest == config_digest(DAWNING_3000)
    assert view.stages == {"wire": 9_000, "trap": 1_000}
    assert view.total_stage_ns == 10_000
    assert view.metrics["events_processed"] == 500.0
    assert view.metrics["wall_s"] == 0.25
    assert view.metrics["repro_message_latency_ns.p99"] == 200.0
    assert view.metrics["repro_sent_total{node=0}"] == 4.0
    assert view.metrics["repro_message_latency_ns.count"] == 4.0
    assert view.label == "run.json"


def test_load_run_normalizes_a_bench_artifact():
    doc = {
        "schema": BENCH_SCHEMA,
        "suite": "engine",
        "meta": {"config_digest": "abc123"},
        "results": [
            {"name": "churn", "events_per_sec": 1e6, "events": 1000,
             "wall_s": 0.001, "note": "not-a-number"},
            {"name": "pingpong", "events": 200,
             "stage_table": [["wire", 12.5], ["trap", 1.0]]},
        ],
        "calendar_vs_reference": {"churn": 0.65},
    }
    view = load_run(doc)
    assert view.schema == BENCH_SCHEMA
    assert view.kind == "bench-engine"
    assert view.config_digest == "abc123"
    assert view.metrics["churn/events_per_sec"] == 1e6
    assert view.metrics["calendar_vs_reference/churn"] == 0.65
    assert "pingpong/note" not in view.metrics
    # stage_table microseconds normalize to nanoseconds
    assert view.stages == {"wire": 12_500, "trap": 1_000}
    assert view.events == 1200
    assert view.metrics["events_processed"] == 1200.0


def test_load_run_accepts_views_and_rejects_unknown_schemas():
    view = RunView(path="", schema=SCHEMA, kind="run")
    assert load_run(view) is view
    with pytest.raises(ValueError, match="unknown schema"):
        load_run({"schema": "not-a-run/9"})


# ---------------------------------------------------- session.to_ledger
def test_session_to_ledger_from_a_live_run():
    cluster, sample = run_ping_pong(nbytes=4096, messages=4)
    assert sample.received_payloads_ok
    doc = cluster.telemetry.to_ledger("observe", seed=1, wall_s=0.5)

    assert doc["schema"] == SCHEMA and doc["kind"] == "observe"
    assert doc["config_digest"] == config_digest(cluster.cfg)
    assert doc["events_processed"] == cluster.env.events_processed
    assert doc["wall_s"] == 0.5

    stages = dict(doc["stages"])
    assert stages, "a completed run must produce a stage table"
    assert "wire" in stages and "translate/pin" in stages
    # The stage table sums to the end-to-end latency of every message.
    total = sum(r.total_ns for r in cluster.telemetry.reports())
    assert sum(stages.values()) == total

    assert doc["percentiles"], "populated histograms must be summarized"
    for quantiles in doc["percentiles"].values():
        assert quantiles["p50"] <= quantiles["p99"] <= quantiles["p999"]
    assert any(m["name"] == "repro_stage_ns_total"
               for m in doc["metrics"])
