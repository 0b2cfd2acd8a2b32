"""Crash flight recorder: ring capture, failure-path dumps, rendering."""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.audit import AuditError
from repro.cli import main
from repro.cluster import Cluster, disable, enable, enabled
from repro.fuzz.campaign import run_campaign
from repro.fuzz.oracles import OracleFailure
from repro.instrument.measure import measure_one_way
from repro.telemetry.recorder import (
    POSTMORTEM_SCHEMA,
    FlightRecorder,
    load_postmortem,
    render_postmortem,
)


# -------------------------------------------------------------- capture
def test_recorder_captures_heartbeats_and_spans():
    cluster = Cluster(n_nodes=2, trace=True,
                      observers=enabled() | {"recorder"})
    sample = measure_one_way(cluster, 4096, repeats=2, warmup=0)
    assert sample.received_payloads_ok
    rec = cluster.recorder
    assert rec is not None
    assert rec.heartbeats, "clock advances must heartbeat the recorder"
    assert rec.records, "tracing on => span openings must be captured"
    # Heartbeats are (virtual time, events processed), monotone in time.
    times = [when for when, _ in rec.heartbeats]
    assert times == sorted(times)
    assert rec.heartbeats[-1][0] <= cluster.env.now
    assert rec.open_messages(), "completed messages appear in the window"


def test_recorder_rings_are_bounded():
    cluster = Cluster(n_nodes=2, trace=True)
    rec = FlightRecorder(cluster, capacity=8)
    measure_one_way(cluster, 4096, repeats=3, warmup=0)
    assert len(rec.heartbeats) <= 8
    assert len(rec.records) <= 8
    with pytest.raises(ValueError):
        FlightRecorder(cluster, capacity=0)


def test_recorder_without_tracing_still_heartbeats():
    cluster = Cluster(n_nodes=2, observers=enabled() | {"recorder"})
    measure_one_way(cluster, 0, repeats=1, warmup=0)
    assert cluster.recorder.heartbeats
    assert not cluster.recorder.records


def test_detach_stops_observation():
    cluster = Cluster(n_nodes=2, trace=True,
                      observers=enabled() | {"recorder"})
    rec = cluster.recorder
    rec.detach()
    measure_one_way(cluster, 0, repeats=1, warmup=0)
    assert not rec.heartbeats and not rec.records
    assert cluster.env._recorder is None


# ------------------------------------------------------------ documents
def test_to_doc_carries_timeline_note_and_metrics():
    cluster = Cluster(n_nodes=2, trace=True,
                      observers=enabled() | {"recorder", "telemetry"})
    measure_one_way(cluster, 4096, repeats=2, warmup=0)
    doc = cluster.recorder.to_doc("unit-test crash", note="details here")
    assert doc["schema"] == POSTMORTEM_SCHEMA
    assert doc["reason"] == "unit-test crash"
    assert doc["note"] == "details here"
    assert doc["t_ns"] == cluster.env.now
    assert doc["events_processed"] == cluster.env.events_processed
    assert doc["heartbeats"] and doc["records"] and doc["open_messages"]
    assert doc["metrics"]["metrics"], "telemetry on => snapshot attached"
    rendered = render_postmortem(doc)
    assert "unit-test crash" in rendered
    assert "heartbeats" in rendered and "recent spans" in rendered


def test_dump_writes_artifact_and_is_exception_safe(tmp_path):
    cluster = Cluster(n_nodes=2, trace=True,
                      observers=enabled() | {"recorder"})
    measure_one_way(cluster, 0, repeats=1, warmup=0)
    rec = cluster.recorder
    path = rec.dump("unit: forced / dump", directory=str(tmp_path))
    assert path is not None and os.path.exists(path)
    assert os.path.basename(path).startswith("postmortem-unit")
    assert load_postmortem(path)["reason"] == "unit: forced / dump"
    assert rec.dumps == [path]
    # A second same-reason dump in the same second must not overwrite.
    again = rec.dump("unit: forced / dump", directory=str(tmp_path))
    assert again is not None and again != path
    # Unwritable destination (a file where a directory is needed):
    # dump must swallow the error, not mask the original failure.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert rec.dump("x", path=str(blocker / "sub" / "x.json")) is None


def test_load_postmortem_rejects_other_schemas(tmp_path):
    path = tmp_path / "not-a-postmortem.json"
    path.write_text(json.dumps({"schema": "repro-run/1"}))
    with pytest.raises(ValueError, match="unknown schema"):
        load_postmortem(path)


# ---------------------------------------------------------- crash paths
def test_audit_violation_dumps_a_postmortem(tmp_path, monkeypatch):
    """The acceptance scenario: a forced pin leak produces a
    postmortem-*.json that `repro postmortem` renders."""
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    cluster = Cluster(n_nodes=1, observers=("audit", "recorder"), trace=True)
    proc = cluster.spawn(0)
    vaddr = proc.space.alloc(8192)
    proc.space.pin(vaddr, 8192)          # never unpinned
    with pytest.raises(AuditError):
        cluster.nodes[0].exit_process(proc.pid)

    dumps = glob.glob(str(tmp_path / "postmortem-*.json"))
    assert len(dumps) == 1
    doc = load_postmortem(dumps[0])
    assert doc["reason"].startswith("audit:")
    assert "pin-leak-at-exit" in doc["reason"]
    assert "pin-leak-at-exit" in doc["note"]

    assert main(["postmortem", dumps[0]]) == 0


def test_cli_postmortem_renders_and_rejects(tmp_path, capsys):
    cluster = Cluster(n_nodes=2, trace=True,
                      observers=enabled() | {"recorder"})
    measure_one_way(cluster, 4096, repeats=1, warmup=0)
    path = cluster.recorder.dump("manual", directory=str(tmp_path))
    assert main(["postmortem", path, "--last", "5"]) == 0
    out = capsys.readouterr().out
    assert "postmortem: manual" in out
    assert "recent spans" in out
    assert main(["postmortem", str(tmp_path / "absent.json")]) == 2


def test_fuzz_oracle_failure_dumps_the_last_recorder(tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))

    def failing_check(spec, schedule_seeds):
        # The workload under test built a cluster (recorder attached
        # via the global switch) and its oracle failed.
        cluster = Cluster(n_nodes=1)
        cluster.env.run()
        return OracleFailure(oracle="schedule", spec=spec,
                             schedule_seed=None, detail="forced")

    enable("recorder")
    try:
        result = run_campaign(base_seed=5, runs=1, check=failing_check)
    finally:
        disable("recorder")
    assert len(result.failures) == 1
    dumps = glob.glob(str(tmp_path / "postmortem-fuzz-*.json"))
    assert len(dumps) == 1
    assert load_postmortem(dumps[0])["reason"] == \
        "fuzz: oracle schedule (workload 0)"
