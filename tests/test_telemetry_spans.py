"""Causal span trees: stitching, adoption, JSONL and flow-linked export."""

from __future__ import annotations

import io
import json

import pytest

from repro.cluster import Cluster, enabled
from repro.instrument.measure import measure_one_way
from repro.sim.trace import Tracer
from repro.telemetry.spans import (
    LAYER_OF_CATEGORY,
    SpanBuilder,
    chrome_trace_events,
    write_spans_jsonl,
)


def _traced_cluster(nbytes=0, repeats=2):
    cluster = Cluster(n_nodes=2, trace=True)
    measure_one_way(cluster, nbytes, repeats=repeats, warmup=1)
    return cluster


# ------------------------------------------------------------- stitching
def test_builder_from_tracer_matches_listener():
    cluster = Cluster(n_nodes=2, observers=enabled() | {"telemetry"})
    measure_one_way(cluster, 0, repeats=2, warmup=1)
    live = cluster.telemetry.spans
    post = SpanBuilder.from_tracer(cluster.tracer)
    assert live.message_ids() == post.message_ids()
    for mid in live.message_ids():
        assert ([r for r in live.records_for(mid)]
                == [r for r in post.records_for(mid)])


def test_span_tree_shape():
    builder = SpanBuilder.from_tracer(_traced_cluster().tracer)
    mid = builder.message_ids()[-1]
    root = builder.build(mid)
    assert root.parent_id is None
    assert root.message_id == mid
    # root covers every descendant
    for span in root.walk():
        assert root.start_ns <= span.start_ns <= span.end_ns <= root.end_ns
        if span.parent_id is not None:
            assert span.span_id.startswith(span.parent_id + ".")
    # hops are component groups; leaves are stages with categories
    hops = root.children
    assert len(hops) >= 4                       # cpu, pci, mcp, ... cpu
    components = [h.component for h in hops]
    assert components[0].startswith("node0.")
    assert any(c.startswith("node1.") for c in components)
    for hop in hops:
        assert hop.children, "component hop without stage leaves"
        assert all(s.component == hop.component for s in hop.children)
    stages = {s.name for h in hops for s in h.children}
    assert {"compose_send_request", "fill_send_descriptor",
            "wire_inject", "check_recv_event"} <= stages


def test_root_extent_is_record_extent():
    builder = SpanBuilder.from_tracer(_traced_cluster().tracer)
    for mid in builder.message_ids():
        start, end = builder.extent(mid)
        root = builder.build(mid)
        assert (root.start_ns, root.end_ns) == (start, end)


def test_layers_annotated():
    builder = SpanBuilder.from_tracer(_traced_cluster().tracer)
    root = builder.build(builder.message_ids()[-1])
    layers = {s.layer for h in root.children for s in h.children}
    assert {"bcl", "kernel", "firmware", "wire", "hw"} <= layers
    assert set(LAYER_OF_CATEGORY.values()) >= layers


def test_anonymous_poll_adopted_by_adjacency():
    """The receiver's poll is charged before the message id is known;
    the span tree must still include it via the check_recv_event
    adjacency."""
    builder = SpanBuilder.from_tracer(_traced_cluster().tracer)
    mid = builder.message_ids()[-1]
    records = builder.records_for(mid)
    polls = [r for r in records if r.stage == "poll_recv_event"]
    checks = [r for r in records if r.stage == "check_recv_event"]
    assert polls and checks
    assert polls[0].message_id is None          # genuinely anonymous
    assert any(p.end_ns == c.start_ns and p.component == c.component
               for p in polls for c in checks)


def test_unknown_message_raises():
    builder = SpanBuilder()
    with pytest.raises(KeyError):
        builder.build(99)
    with pytest.raises(KeyError):
        builder.extent(99)


# ---------------------------------------------------------------- exports
def test_jsonl_roundtrip(tmp_path):
    builder = SpanBuilder.from_tracer(_traced_cluster().tracer)
    spans = builder.build_all()
    path = tmp_path / "spans.jsonl"
    count = write_spans_jsonl(spans, str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == count == sum(1 for root in spans
                                     for _ in root.walk())
    by_id = {row["span_id"]: row for row in rows}
    for row in rows:                            # parent links are intact
        if row["parent_id"] is not None:
            parent = by_id[row["parent_id"]]
            assert parent["start_ns"] <= row["start_ns"]
            assert parent["end_ns"] >= row["end_ns"]

    buf = io.StringIO()                         # file-object destination
    assert write_spans_jsonl(spans, buf) == count


def test_chrome_flow_events_pair_up(tmp_path):
    """Satellite: flow start/finish ids must pair after a JSON
    round-trip, linking consecutive component hops of one message."""
    tracer = _traced_cluster().tracer
    builder = SpanBuilder.from_tracer(tracer)
    events = chrome_trace_events(tracer, flows=builder.build_all())
    path = tmp_path / "flows.json"
    path.write_text(json.dumps({"traceEvents": events}))
    events = json.loads(path.read_text())["traceEvents"]

    starts = {e["id"]: e for e in events if e["ph"] == "s"}
    finishes = {e["id"]: e for e in events if e["ph"] == "f"}
    assert starts and set(starts) == set(finishes)
    assert all(e["cat"] == "message-flow" for e in starts.values())
    assert all(e["bp"] == "e" for e in finishes.values())
    tid_name = {e["tid"]: e["args"]["name"] for e in events
                if e["ph"] == "M"}
    for flow_id, start in starts.items():
        finish = finishes[flow_id]
        # the arrow points forward in time, across components
        assert start["ts"] <= finish["ts"]
        assert tid_name[start["tid"]] != tid_name[finish["tid"]]
    # each message with >= 2 hops contributes hops-1 arrows
    roots = builder.build_all()
    expected = sum(len(r.children) - 1 for r in roots if len(r.children) > 1)
    assert len(starts) == expected


def test_chrome_stage_events_on_component_rows():
    tracer = _traced_cluster().tracer
    builder = SpanBuilder.from_tracer(tracer)
    events = chrome_trace_events(tracer, flows=builder.build_all())
    spans = [e for e in events if e["ph"] == "X"]
    tid_name = {e["tid"]: e["args"]["name"] for e in events
                if e["ph"] == "M"}
    assert spans
    for event in spans:
        assert tid_name[event["tid"]]        # every row is labelled
    # every record of every stitched message is on its component's row
    for mid in builder.message_ids():
        for record in builder.records_for(mid):
            if record.message_id is None:
                continue                     # adopted anonymous poll
            assert any(e["name"] == record.stage
                       and e["args"].get("message_id") == mid
                       and tid_name[e["tid"]] == record.component
                       for e in spans)


def test_observe_export_is_the_tracer_export_plus_flows(tmp_path,
                                                         monkeypatch):
    """``repro observe --spans-out`` writes exactly the tracer's Chrome
    trace, plus one flow start/finish pair per hop of each message."""
    from repro import cli
    from repro.telemetry import observe

    real = observe.run_ping_pong
    clusters = []

    def run_ping_pong(**kwargs):
        run = real(**kwargs)
        clusters.append(run.cluster)
        return run

    monkeypatch.setattr(observe, "run_ping_pong", run_ping_pong)
    path = tmp_path / "spans.json"
    assert cli.main(["observe", "--spans-out", str(path)]) == 0
    cluster, = clusters
    events = json.loads(path.read_text())["traceEvents"]
    flows = [e for e in events if e["ph"] in ("s", "f")]
    rest = [e for e in events if e["ph"] not in ("s", "f")]
    assert rest == chrome_trace_events(cluster.tracer)
    hops = sum(len(root.children) - 1
               for root in cluster.telemetry.span_trees())
    assert len(flows) == 2 * hops > 0


# ------------------------------------------------- tracer listener safety
def test_tracer_isolates_failing_listener():
    """A raising listener is detached and recorded; the run survives and
    healthy listeners keep observing."""
    tracer = Tracer()
    good: list[str] = []

    def bad(record):
        raise RuntimeError("observer bug")

    tracer.add_listener(bad)
    tracer.add_listener(lambda r: good.append(r.stage))
    tracer.record(0, 10, "cpu", "a", "c0")      # must not raise
    tracer.record(10, 20, "cpu", "b", "c0")
    assert good == ["a", "b"]
    assert len(tracer.records) == 2
    # failure recorded exactly once, listener detached
    assert len(tracer.listener_errors) == 1
    listener, exc = tracer.listener_errors[0]
    assert listener is bad
    assert isinstance(exc, RuntimeError)


def test_tracer_survives_all_listeners_failing():
    tracer = Tracer()
    tracer.add_listener(lambda r: 1 / 0)
    tracer.add_listener(lambda r: [][1])
    tracer.record(0, 10, "cpu", "a", "c0")
    assert len(tracer.listener_errors) == 2
    assert {type(e) for _, e in tracer.listener_errors} \
        == {ZeroDivisionError, IndexError}
    tracer.record(10, 20, "cpu", "b", "c0")     # nothing left to fail
    assert len(tracer.listener_errors) == 2
    assert len(tracer.records) == 2


def test_tracer_run_survives_failing_listener_end_to_end():
    cluster = Cluster(n_nodes=2, trace=True)
    calls = {"n": 0}

    def flaky(record):
        calls["n"] += 1
        raise ValueError("boom")

    cluster.tracer.add_listener(flaky)
    sample = measure_one_way(cluster, 0, repeats=1, warmup=1)
    assert sample.received_payloads_ok
    assert calls["n"] == 1                      # detached after first record
    assert len(cluster.tracer.listener_errors) == 1
