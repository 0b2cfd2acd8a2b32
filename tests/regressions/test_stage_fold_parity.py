"""Stage tables, serve payloads and the listener stream, pinned by digest.

The digests were recorded while the scale/serve stage fold was still an
``add_listener`` listener that folded full :class:`TraceRecord` objects
and trimmed ``tracer.records`` at 65,536.  It now folds raw spans
(:class:`~repro.telemetry.critical_path.StageFold`) and the tracer
keeps no records while it is attached; everything an observer can see
must reproduce byte for byte:

* the ``measure_scale_point`` payloads (latency, events, stage table,
  bounding stage) for barrier and allreduce, host and NIC collectives,
  on a 16-rank ``single_switch`` and a 64-rank ``fat_tree``;
* one small ``measure_serve_point`` payload, ``events`` included;
* every field, in order, of the records an ``add_listener`` listener
  sees on a traced 4 KB one-way run, with message ids renumbered by
  first appearance (they are process-global);
* the telemetry session's ``repro_stage_ns_total`` series on ``repro
  observe``'s ping-pong at 0 B and 4 KB, recorded while the session
  kept one registry counter per stage, and equal to a fold over the
  records the tracer kept.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import Cluster
from repro.experiments.scale import measure_scale_point
from repro.experiments.serve import measure_serve_point
from repro.instrument.measure import measure_one_way
from repro.telemetry.critical_path import StageFold
from repro.telemetry.observe import run_ping_pong
from repro.upper.job import run_spmd


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


SCALE_KEYS = ("latency_us", "events", "stage_table", "bounding_stage")

SCALE_DIGESTS = {
    ("single_switch", 16, "barrier", "host"):
        "9e543e2e5a6be5d488e2431056076bd68dffc942ca364cc8545ff465c13cb680",
    ("single_switch", 16, "barrier", "nic"):
        "8f8f9034457db033f82aa06d5acc278b7ec5769a4c449d5783578c26b7a3dfe6",
    ("single_switch", 16, "allreduce", "host"):
        "2bee0e1f2e0cce38fb019eea4f3a215933d99aa90fbb7bc4451c774506f6ea1b",
    ("single_switch", 16, "allreduce", "nic"):
        "a055cdad5a5aaa6bf79256913c8ffe9228f7ec6d191e06a8f577235ae0b0f74f",
    ("fat_tree", 64, "barrier", "host"):
        "587b7f9e625dc15cdcdf7e19fd87d97d6ebea043b6ee76d95e7ff14b49a0d9bf",
    ("fat_tree", 64, "barrier", "nic"):
        "4ab066f43d62117058b39531f324425f05c1ac10f89eeb6cb09e7b020fcaefcd",
    ("fat_tree", 64, "allreduce", "host"):
        "6ab1949fbee75824f4c28b7feeafcde77cfbf71cfa5fc50a2a528f2589b7574d",
    ("fat_tree", 64, "allreduce", "nic"):
        "466455ed6d7efdd9736438101faa21ea91ed469c339849d3cd96195a1bf448a0",
}


@pytest.mark.parametrize("topology,n_ranks,op,collectives",
                         sorted(SCALE_DIGESTS))
def test_scale_point_digest(topology, n_ranks, op, collectives):
    payload = measure_scale_point(n_ranks=n_ranks, topology=topology,
                                  collectives=collectives, op=op)
    assert _sha({key: payload[key] for key in SCALE_KEYS}) == \
        SCALE_DIGESTS[(topology, n_ranks, op, collectives)]


SERVE_DIGEST = \
    "527e4da8de09c5d9b4bd407eb33528fdb3f45ce2460604b15cef112f5f9d288f"


def test_serve_point_digest(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_REQUESTS", "200")
    payload = measure_serve_point(rho=0.8)
    assert "events" in payload
    assert _sha(payload) == SERVE_DIGEST


LISTENER_DIGEST = \
    "10c0c50b22060ad6fa88095e7702f7c474d1f3352fbac0042693d047bdb65aeb"


def test_listener_stream_digest():
    cluster = Cluster(n_nodes=2, trace=True)
    seen = []
    cluster.tracer.add_listener(seen.append)
    measure_one_way(cluster, 4096, repeats=2, warmup=1)
    renumber: dict[int, int] = {}
    stream = [
        [r.start_ns, r.end_ns, r.category, r.stage, r.component,
         None if r.message_id is None
         else renumber.setdefault(r.message_id, len(renumber)),
         sorted(r.data.items())]
        for r in seen]
    assert _sha(stream) == LISTENER_DIGEST
    # a listener sees the very records the tracer keeps
    assert len(seen) == len(cluster.tracer.records)
    assert all(a is b for a, b in zip(seen, cluster.tracer.records))


#: records a listener receives over one 16-rank host barrier, with a
#: stage aggregator attached beside it
BARRIER_RECORDS = 3089
BARRIER_TABLE_DIGEST = \
    "8db9b40ea818ce5bbd4101ff5439b1e0c1e94462a79968b621dcfb0557850828"


def test_aggregator_keeps_no_records_and_listeners_see_all():
    cluster = Cluster(n_nodes=16, trace=True)
    agg = StageFold(cluster.tracer)
    agg.armed = True
    count = [0]

    def on_record(_rec) -> None:
        count[0] += 1

    cluster.tracer.add_listener(on_record)

    def prog(ep):
        yield from ep.barrier()

    run_spmd(cluster, 16, prog)
    assert cluster.tracer.records == []
    assert count[0] == BARRIER_RECORDS
    assert _sha(agg.table()) == BARRIER_TABLE_DIGEST


#: sha256 of ``[[labels, value], ...]`` over ``repro_stage_ns_total``
STAGE_SERIES_DIGESTS = {
    0: "d2490a14a84646c2e26d59aef9f83af7db5897308fcf752e74638698343bff63",
    4096: "027cf3e5e95fbb8a0032c21a2387dee89588f01bd1760eadb76203ac160b2281",
}


@pytest.mark.parametrize("nbytes", sorted(STAGE_SERIES_DIGESTS))
def test_stage_ns_total_series(nbytes):
    cluster = run_ping_pong(nbytes=nbytes).cluster
    series = [[dict(i.labels), i.value()]
              for i in cluster.telemetry.registry
              if i.name == "repro_stage_ns_total"]
    assert _sha(series) == STAGE_SERIES_DIGESTS[nbytes]
    fold = StageFold()
    fold.armed = True
    for record in cluster.tracer.records:
        fold._on_record(*record[:6])
    assert series == [[{"stage": group}, float(ns)]
                      for group, ns in sorted(fold.group_ns().items())
                      if ns]
