"""TelemetrySession wiring, layer metric registration, and the
``repro observe`` CLI surface."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.cluster import Cluster, disable, enable, enabled
from repro.instrument.measure import measure_one_way
from repro.telemetry.observe import (
    render_drilldown,
    render_summary,
    render_top,
    run_ping_pong,
)


# ----------------------------------------------------------- session wiring
def test_session_registers_layer_metrics():
    cluster = run_ping_pong(nbytes=4096, messages=2).cluster
    registry = cluster.telemetry.registry
    text = registry.render_prometheus()
    # one registered family per absorbed layer
    assert 'repro_traps_total{node="0"}' in text            # kernel
    assert 'repro_wire_data_packets_total{nic="0"}' in text  # firmware
    assert "repro_nic_open_ports" in text                    # NIC
    assert "repro_link_busy_ns" in text                      # link
    assert "repro_switch_packets_forwarded_total" in text    # switch
    assert "repro_stage_ns_total" in text                    # tracer feed
    # the absorbed PathCounters still match their live source
    sent = registry.get("repro_traps_send_path_total", node=0)
    assert sent.value() == cluster.nodes[0].kernel.counters.traps_send_path


def test_session_registers_eadi_endpoints():
    from repro.upper.job import run_spmd

    cluster = Cluster(n_nodes=2, observers=enabled() | {"telemetry"})
    n = 64

    def worker(ep):
        proc = ep.lib.proc
        buf = proc.alloc(n)
        if ep.rank == 0:
            proc.write(buf, b"x" * n)
            yield from ep.send(1, buf, n, tag=5)
        else:
            status = yield from ep.recv(0, 5, buf, n)
            assert status.length == n

    run_spmd(cluster, 2, worker, layer="eadi")
    text = cluster.telemetry.registry.render_prometheus()
    assert "repro_eadi_credit_stalls_total" in text
    assert "repro_eadi_unexpected_total" in text


def test_cluster_telemetry_flag_and_global_switch(monkeypatch):
    monkeypatch.delenv("REPRO_OBSERVERS", raising=False)
    assert Cluster(n_nodes=1).telemetry is None
    assert Cluster(n_nodes=1, observers=()).telemetry is None
    enable("telemetry")
    assert enabled() == {"telemetry"}
    assert os.environ["REPRO_OBSERVERS"] == "telemetry"  # workers inherit
    assert Cluster(n_nodes=1).telemetry is not None
    assert Cluster(n_nodes=1, observers=()).telemetry is None
    enable("recorder", "audit")
    assert os.environ["REPRO_OBSERVERS"] == "audit,telemetry,recorder"
    disable("audit", "recorder", "telemetry")
    assert enabled() == frozenset()
    assert "REPRO_OBSERVERS" not in os.environ
    # misuse fails fast and names the known observers
    with pytest.raises(ValueError, match="choose from"):
        Cluster(n_nodes=1, observers=("telemetry", "tracer"))
    with pytest.raises(ValueError, match="'tracer'"):
        enable("tracer")
    with pytest.raises(TypeError, match="iterable of names"):
        Cluster(n_nodes=1, observers="telemetry")
    monkeypatch.setenv("REPRO_OBSERVERS", "telemetry, tracer")
    with pytest.raises(ValueError, match=r"\['tracer'\]"):
        Cluster(n_nodes=1)


def test_session_detach_stops_observing():
    cluster = run_ping_pong(nbytes=0, messages=1).cluster
    session = cluster.telemetry
    before = len(session.spans.message_ids())
    session.detach()
    measure_one_way(cluster, 0, repeats=1, warmup=0)
    assert len(session.spans.message_ids()) == before
    assert getattr(cluster.env, "_telemetry", None) is None


# -------------------------------------------------------------- renderers
def test_render_summary_and_top():
    cluster = run_ping_pong(nbytes=0, messages=3).cluster
    session = cluster.telemetry
    summary = render_summary(session, 0)
    assert "message lifecycles" in summary
    assert "p50" in summary and "p99" in summary
    assert "SRQ fill" in summary and "translate/pin" in summary
    assert "bounding stage:" in summary
    top = render_top(session, 2)
    assert "slowest" in top
    assert top.count("\n") == 3                  # header + title + 2 rows

    drill = render_drilldown(session, session.message_ids()[-1])
    assert "end-to-end" in drill and "span tree:" in drill
    assert "wire_inject" in drill


def test_run_ping_pong_variants():
    cluster, sample, recovery = run_ping_pong(nbytes=0, messages=1,
                                              intra_node=True)
    assert sample.received_payloads_ok
    assert cluster.telemetry.message_ids()
    assert recovery is None

    cluster, sample, recovery = run_ping_pong(nbytes=8192, messages=2,
                                              drop=0.2, seed=5)
    assert sample.received_payloads_ok          # recovered via go-back-N
    assert cluster.telemetry.message_ids()
    assert recovery["retransmissions"] > 0

    cluster, sample, _ = run_ping_pong(nbytes=0, messages=1,
                                       architecture="kernel_level")
    assert cluster.architecture == "kernel_level"
    assert sample.samples_us == [27.696]


# -------------------------------------------------------------------- CLI
def test_cli_observe_summary(capsys):
    assert main(["observe", "--bytes", "0", "--messages", "2"]) == 0
    out = capsys.readouterr().out
    assert "critical path (aggregate across messages):" in out
    assert "SRQ fill" in out and "bounding stage:" in out


def test_cli_observe_top_drilldown_and_metrics(capsys):
    assert main(["observe", "--bytes", "0", "--messages", "2",
                 "--top", "2", "--message-id", "-1",
                 "--metrics", "prom"]) == 0
    out = capsys.readouterr().out
    assert "top 2 slowest messages:" in out
    assert "span tree:" in out
    assert "# TYPE repro_stage_ns_total counter" in out


def test_cli_observe_metrics_json(capsys):
    assert main(["observe", "--bytes", "0", "--messages", "1",
                 "--metrics", "json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    names = {entry["name"] for entry in doc["metrics"]}
    assert "repro_message_latency_ns" in names
    assert "repro_traps_total" in names


def test_cli_observe_spans_out(tmp_path, capsys):
    path = tmp_path / "spans.json"
    assert main(["observe", "--bytes", "0", "--messages", "1",
                 "--spans-out", str(path)]) == 0
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["ph"] for e in events} >= {"X", "s", "f", "M"}


def test_cli_observe_unknown_message(capsys):
    assert main(["observe", "--bytes", "0", "--messages", "1",
                 "--message-id", "999"]) == 2
    assert "no traced message 999" in capsys.readouterr().err


def test_cli_trace_message_id_filter(tmp_path, capsys):
    path = tmp_path / "one.json"
    assert main(["observe", "--bytes", "0", "--messages", "1",
                 "--spans-out", str(path), "--message-id", "-1"]) == 0
    out = capsys.readouterr().out
    assert "for message " in out
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    assert len({e["args"]["message_id"] for e in spans}) == 1
