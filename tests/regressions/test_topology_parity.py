"""Default-topology parity guard for the scale-out fabric work.

Pins fingerprints (sample latencies, event counts, final sim time and
a canonical trace digest) of canonical runs over the three pre-existing
topologies, captured on the tree *before* fat_tree/ECMP, build-time
route validation, NIC-offloaded collectives and sparse physical memory
landed.  Those features must be strictly additive: any drift in these
numbers means the default path changed behaviour, not just grew
capability.

The trace digest remaps message ids to first-seen order so the guard
pins the *event stream*, not the global id counter (which other tests
in the same process advance).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.instrument.measure import measure_one_way
from repro.telemetry.spans import chrome_trace_events
from repro.upper.job import run_spmd


def _trace_digest(cluster) -> str:
    events = chrome_trace_events(cluster.tracer)
    id_map: dict = {}
    for event in events:
        mid = event.get("args", {}).get("message_id")
        if mid is not None:
            event["args"]["message_id"] = id_map.setdefault(
                mid, len(id_map))
    return hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()).hexdigest()


PING_EXPECTED = {
    # topology, n_nodes -> (samples_us, final_ns, events, trace sha256)
    ("single_switch", 4): (
        [53.685, 53.685, 53.685], 276970, 526,
        "87ed826b3a4d67705108e648ff263fea77cd320329e9797b3c76228efe754d41"),
    ("switch_tree", 9): (
        [53.685, 53.685, 53.685], 276970, 569,
        "87ed826b3a4d67705108e648ff263fea77cd320329e9797b3c76228efe754d41"),
    ("mesh2d", 9): (
        [54.991, 54.991, 54.991], 282194, 679,
        "290c3596217ae314f8713d3b5e12b4b0a949437dff2cd1a5c716706d6ed79aeb"),
}

COLL_EXPECTED = {
    # topology, n_nodes, n_ranks ->
    #   (allreduce, alltoall sha256, final_ns, events, trace sha256)
    #
    # Event counts re-pinned when the eager-credit wakeup discipline
    # changed (wake at most `count` waiters, withdraw stale gates): the
    # collective runs park a handful of credit waiters, and the stale
    # gates that used to fire as no-op events at the same instant no
    # longer do.  Results, final sim times and trace digests are
    # byte-identical to the pre-fix pins.
    ("single_switch", 4, 8): (
        36.0,
        "f1ab0d0e105c60a3bb3631f7497077a121bfeda827e2fd05019453bab873f1cb",
        816308, 15502,
        "b46996b4ae61f24996b536d8389c67e9dfbcb4a311a632737c5a69dd35fe403e"),
    ("switch_tree", 9, 9): (
        45.0,
        "302f4a1c4c152119bd1430ee9996d002a2b51e5c174d7c8a97dc373f39c75403",
        987785, 26052,
        "3e6189f5e1bbdbf48098fb062766909140422b5a29cc42befb3b9c907f5ccf5e"),
    ("mesh2d", 9, 9): (
        45.0,
        "302f4a1c4c152119bd1430ee9996d002a2b51e5c174d7c8a97dc373f39c75403",
        977008, 31335,
        "f236988f6a7ee8dde081b6a6bbfcf086206431f9ec04795b9c71c8d7581dfe9d"),
}


@pytest.mark.parametrize("topology,n_nodes", sorted(PING_EXPECTED))
def test_ping_pong_stream_unchanged(topology, n_nodes):
    samples, final_ns, events, digest = PING_EXPECTED[(topology, n_nodes)]
    cluster = Cluster(n_nodes=n_nodes, topology=topology, trace=True)
    sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    assert sample.received_payloads_ok
    assert [round(s, 3) for s in sample.samples_us] == samples
    assert cluster.env.now == final_ns
    assert cluster.env.events_processed == events
    assert _trace_digest(cluster) == digest


@pytest.mark.parametrize("topology,n_nodes,n_ranks", sorted(COLL_EXPECTED))
def test_host_collective_stream_unchanged(topology, n_nodes, n_ranks):
    (allreduce, alltoall_sha, final_ns, events,
     digest) = COLL_EXPECTED[(topology, n_nodes, n_ranks)]
    cluster = Cluster(n_nodes=n_nodes, topology=topology, trace=True)
    out = {}

    def prog(ep):
        yield from ep.barrier()
        total = yield from ep.allreduce(np.array([ep.rank + 1.0]))
        vals = yield from ep.alltoall(
            [bytes([ep.rank, d]) * 32 for d in range(ep.size)], 64)
        if ep.rank == 0:
            out["allreduce"] = float(total[0])
            out["alltoall"] = hashlib.sha256(b"".join(vals)).hexdigest()

    run_spmd(cluster, n_ranks, prog)
    assert out["allreduce"] == allreduce
    assert out["alltoall"] == alltoall_sha
    assert cluster.env.now == final_ns
    assert cluster.env.events_processed == events
    assert _trace_digest(cluster) == digest
