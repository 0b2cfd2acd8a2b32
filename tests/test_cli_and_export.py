"""CLI commands and chrome-trace export."""

from __future__ import annotations

import io
import json

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


def test_cli_latency(capsys):
    assert main(["latency", "--bytes", "0", "--repeats", "2"]) == 0
    out = capsys.readouterr().out
    assert "18.3" in out


def test_cli_latency_intra(capsys):
    assert main(["latency", "--bytes", "0", "--intra-node",
                 "--repeats", "2"]) == 0
    assert "2.70" in capsys.readouterr().out


def test_cli_latency_intra_honours_architecture(capsys, monkeypatch):
    """``--intra-node`` measures on a one-node cluster of the requested
    architecture (it used to build a semi-user cluster whatever the
    flag said)."""
    import repro.cli as cli
    built = []

    def spy(*args, **kwargs):
        cluster = Cluster(*args, **kwargs)
        built.append((len(cluster.nodes), cluster.architecture))
        return cluster

    monkeypatch.setattr(cli, "Cluster", spy)
    assert main(["latency", "--bytes", "0", "--intra-node",
                 "--architecture", "user_level", "--repeats", "2"]) == 0
    assert built == [(1, "user_level")]
    direct = measure_one_way(Cluster(n_nodes=1, architecture="user_level"),
                             0, repeats=2).latency_us
    assert capsys.readouterr().out == \
        f"0-byte one-way latency (intra-node): {direct:.2f} us\n"


def test_cli_latency_intra_kernel_level_is_an_error(capsys):
    """Kernel-level sockets have no intra-node path: exit 2 with the
    reason, not a traceback or a semi-user number."""
    assert main(["latency", "--bytes", "0", "--intra-node",
                 "--architecture", "kernel_level"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro latency: error: kernel-level "
                                   "sockets have no intra-node path")


def test_cli_bandwidth(capsys):
    assert main(["bandwidth", "--sizes", "4096"]) == 0
    out = capsys.readouterr().out
    assert "4096" in out and "MB/s" in out


def test_cli_timeline(capsys):
    assert main(["timeline"]) == 0
    out = capsys.readouterr().out
    assert "fill_send_descriptor" in out
    assert "18.3" in out


def test_cli_trace(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    assert main(["trace", "--output", str(out_file),
                 "--bytes", "1024"]) == 0
    assert out_file.exists()
    assert json.loads(out_file.read_text())["traceEvents"]


@pytest.mark.parametrize("message_id", ["-99", "12345"])
def test_cli_trace_rejects_unknown_message_id(tmp_path, capsys, message_id):
    out_file = tmp_path / "t.json"
    assert main(["trace", "--output", str(out_file), "--bytes", "1024",
                 "--message-id", message_id]) == 2
    err = capsys.readouterr().err
    assert f"no traced message {message_id} (have [" in err
    assert not out_file.exists()


def test_cli_trace_message_id_selects_one_message(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    assert main(["trace", "--output", str(out_file), "--bytes", "1024",
                 "--message-id", "-1"]) == 0
    events = json.loads(out_file.read_text())["traceEvents"]
    mids = {e["args"]["message_id"] for e in events
            if "message_id" in e.get("args", {})}
    assert len(mids) == 1
    assert "for message" in capsys.readouterr().out


def test_cli_report(capsys):
    assert main(["report", "--bytes", "4096", "--messages", "2"]) == 0
    out = capsys.readouterr().out
    assert "node0" in out and "pindown" in out


def test_cli_faults(tmp_path, capsys):
    out_file = tmp_path / "faults.json"
    assert main(["faults", "--bytes", "20000", "--messages", "2",
                 "--drop", "0.2", "--seed", "3",
                 "--trace-output", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "FaultPlan" in out and "payloads intact" in out
    assert "retx_amplification" in out
    events = json.loads(out_file.read_text())["traceEvents"]
    markers = [e for e in events if e.get("ph") == "i"]
    assert markers and all(e["cat"] == "fault" for e in markers)
