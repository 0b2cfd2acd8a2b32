"""CLI commands and chrome-trace export."""

from __future__ import annotations

import io
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.cluster import Cluster
from repro.instrument.measure import measure_one_way
from repro.sim.trace import Tracer
from repro.telemetry.spans import chrome_trace_events, write_chrome_trace


# ------------------------------------------------------------------ export
def test_chrome_trace_event_structure():
    tracer = Tracer()
    tracer.record(1000, 3000, "cpu", "work", "node0.cpu0", message_id=7,
                  nbytes=64)
    tracer.record(3000, 4000, "dma", "xfer", "node0.pci", message_id=7)
    events = chrome_trace_events(tracer)
    spans = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(spans) == 2 and len(metas) == 2
    work = next(e for e in spans if e["name"] == "work")
    assert work["ts"] == 1.0 and work["dur"] == 2.0
    assert work["args"]["message_id"] == 7
    assert work["args"]["nbytes"] == 64
    names = {m["args"]["name"] for m in metas}
    assert names == {"node0.cpu0", "node0.pci"}
    # distinct components get distinct rows
    assert len({e["tid"] for e in spans}) == 2


def test_chrome_trace_message_filter():
    tracer = Tracer()
    tracer.record(0, 10, "cpu", "a", "c0", message_id=1)
    tracer.record(0, 10, "cpu", "b", "c0", message_id=2)
    events = chrome_trace_events(tracer, message_id=1)
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["a"]


def test_write_chrome_trace_roundtrips(tmp_path):
    cluster = Cluster(n_nodes=2, trace=True)
    measure_one_way(cluster, 512, repeats=1, warmup=1)
    path = tmp_path / "trace.json"
    count = write_chrome_trace(cluster.tracer, str(path))
    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == count > 10
    stages = {e["name"] for e in payload["traceEvents"]}
    assert "fill_send_descriptor" in stages
    assert "mcp_send_processing" in stages


def test_write_chrome_trace_to_file_object():
    tracer = Tracer()
    tracer.record(0, 10, "cpu", "x", "c0")
    buf = io.StringIO()
    write_chrome_trace(tracer, buf)
    assert json.loads(buf.getvalue())["traceEvents"]


# --------------------------------------------------------------------- CLI
def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _row(out: str) -> list[str]:
    """The bandwidth-table row every ``repro observe`` run prints."""
    header, row = out.splitlines()[:2]
    assert header.split() == ["bytes", "latency", "us", "MB/s"]
    return row.split()


def test_cli_latency(capsys):
    assert main(["observe", "--bytes", "0", "--messages", "2"]) == 0
    out = capsys.readouterr().out
    assert _row(out)[1] == "18.33"


def test_cli_latency_intra(capsys):
    assert main(["observe", "--bytes", "0", "--intra-node",
                 "--messages", "2"]) == 0
    assert _row(capsys.readouterr().out)[1] == "2.70"


def test_cli_latency_intra_honours_architecture(capsys, monkeypatch):
    """``--intra-node`` measures on a one-node cluster of the requested
    architecture (it used to build a semi-user cluster whatever the
    flag said)."""
    import repro.cluster
    built = []
    real = repro.cluster.Cluster

    def spy(*args, **kwargs):
        cluster = real(*args, **kwargs)
        built.append((len(cluster.nodes), cluster.architecture))
        return cluster

    monkeypatch.setattr(repro.cluster, "Cluster", spy)
    assert main(["observe", "--bytes", "0", "--intra-node",
                 "--architecture", "user_level", "--messages", "2"]) == 0
    assert built == [(1, "user_level")]
    direct = measure_one_way(real(n_nodes=1, architecture="user_level"),
                             0, repeats=2, warmup=1).latency_us
    assert _row(capsys.readouterr().out) == ["0", f"{direct:.2f}", "0.0"]


def test_cli_latency_intra_kernel_level_is_an_error(capsys):
    """Kernel-level sockets have no intra-node path: exit 2 with the
    reason, not a traceback or a semi-user number."""
    assert main(["observe", "--bytes", "0", "--intra-node",
                 "--architecture", "kernel_level"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro observe: error: kernel-level "
                                   "sockets have no intra-node path")


def test_cli_bandwidth(capsys):
    assert main(["observe", "--bytes", "4096", "65536"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "MB/s" in lines[0]
    assert [line.split()[0] for line in lines[1:]] == ["4096", "65536"]


def test_cli_bandwidth_rejects_per_run_views(capsys):
    """The views describe one run: a size list with one of them exits 2
    before anything runs."""
    assert main(["observe", "--bytes", "0", "4096", "--top", "2",
                 "--report"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro observe: error: --top, "
                                   "--report describe one run")


def test_cli_timeline(capsys):
    assert main(["evaluate", "--only", "fig7", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "fill_send_descriptor" in out
    assert "18.3" in out


def test_cli_trace(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    assert main(["observe", "--bytes", "1024", "--messages", "1",
                 "--spans-out", str(out_file)]) == 0
    assert out_file.exists()
    assert json.loads(out_file.read_text())["traceEvents"]


@pytest.mark.parametrize("message_id", ["-99", "12345"])
def test_cli_trace_rejects_unknown_message_id(tmp_path, capsys, message_id):
    out_file = tmp_path / "t.json"
    assert main(["observe", "--bytes", "1024", "--messages", "1",
                 "--spans-out", str(out_file),
                 "--message-id", message_id]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"no traced message {message_id} (have [" in captured.err
    assert not out_file.exists()


def test_cli_trace_message_id_selects_one_message(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    assert main(["observe", "--bytes", "1024", "--messages", "1",
                 "--spans-out", str(out_file), "--message-id", "-1"]) == 0
    events = json.loads(out_file.read_text())["traceEvents"]
    mids = {e["args"]["message_id"] for e in events
            if "message_id" in e.get("args", {})}
    assert len(mids) == 1
    assert "for message" in capsys.readouterr().out


def test_cli_report(capsys):
    assert main(["observe", "--bytes", "4096", "--messages", "2",
                 "--report"]) == 0
    out = capsys.readouterr().out
    assert "node0" in out and "pindown" in out


def test_cli_faults(tmp_path, capsys):
    out_file = tmp_path / "faults.json"
    assert main(["observe", "--bytes", "20000", "--messages", "2",
                 "--drop", "0.2", "--seed", "3",
                 "--spans-out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "FaultPlan" in out and "payloads intact" in out
    assert "retx_amplification" in out
    events = json.loads(out_file.read_text())["traceEvents"]
    markers = [e for e in events if e.get("ph") == "i"]
    assert markers and all(e["cat"] == "fault" for e in markers)


def test_cli_faults_drain_before_the_recovery_summary(capsys):
    """The last episode's retransmission lands before its ack advances
    the sender's base; read without draining, the summary called it
    unrecovered next to "payloads intact"."""
    assert main(["observe", "--drop", "0.15", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "payloads intact" in out
    assert re.search(r"^  recovered_episodes +2$", out, re.M)
    assert re.search(r"^  unrecovered_episodes +0$", out, re.M)


def test_cli_serve(capsys):
    assert main(["serve", "--loads", "0.8", "--requests", "100"]) == 0
    row = capsys.readouterr().out.splitlines()[3].split()
    assert row[0] == "0.80" and row[6] == "100"      # rho, ok


@pytest.mark.parametrize("argv", [["--loads", "x"], ["--workers", "0"]],
                         ids=["loads-x", "workers-0"])
def test_cli_serve_rejects_bad_config(argv, capsys):
    assert main(["serve", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro serve: error: ")


def test_cli_fuzz(capsys):
    assert main(["fuzz", "--seed", "1", "--runs", "2", "--quiet"]) == 0
    assert capsys.readouterr().out.endswith("fuzz: all oracles passed\n")


def test_cli_audit_selftest_keeps_the_global_observers(capsys):
    """The auditor runs for the command only: an in-process caller's
    observer set is the same after it."""
    from repro.cluster import enabled
    before = enabled()
    assert main(["audit", "--messages", "2", "--selftest"]) == 0
    assert enabled() == before
    out = capsys.readouterr().out
    assert "audit: zero violations" in out
    assert out.endswith("selftest PASS: all checkers fire\n")
