"""Golden event digests: the engine's schedule, byte for byte.

The calendar queue replaced a classic ``(time, seq)`` binary heap with
the same pop order, and the heap ran beside it as a differential
reference until the digests below were recorded from both.  Every
observable — the latency samples, payload verdicts, the final clock,
the event count and the full canonicalized trace — must still match
those digests in clean, faulted and telemetry-enabled runs.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import Cluster
from repro.config import LOSSY_DAWNING
from repro.faults import FaultPlan
from repro.instrument.measure import measure_one_way
from repro.sim import Environment
from repro.telemetry.spans import chrome_trace_events


def _observe(env, **cluster_kwargs):
    """One measurement; returns a sha256 over every observable the
    guard compares, and the cluster it ran on."""
    cluster = Cluster(n_nodes=2, env=env, trace=True, **cluster_kwargs)
    sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    events = chrome_trace_events(cluster.tracer)
    id_map: dict[int, int] = {}
    for event in events:
        mid = event.get("args", {}).get("message_id")
        if mid is not None:
            event["args"]["message_id"] = id_map.setdefault(
                mid, len(id_map))
    return hashlib.sha256(json.dumps(
        [sample.samples_us, sample.received_payloads_ok, cluster.env.now,
         cluster.env.events_processed, events],
        sort_keys=True).encode()).hexdigest(), cluster


FAULTED = {"cfg": LOSSY_DAWNING,
           "fault_plan": FaultPlan(seed=11, drop_rate=0.15)}
#: same loss rate, but this seed's drops land on the measured packets,
#: so the MCP's go-back-N actually retransmits (``FAULTED`` fires none)
RETRANSMITTING = {"cfg": LOSSY_DAWNING,
                  "fault_plan": FaultPlan(seed=1, drop_rate=0.15)}

#: recorded while the binary-heap scheduler still ran beside the
#: calendar queue; both produced each digest byte for byte
EXPECTED = {
    "default":
        "3a6d96218300f3e9303cba929611d19c0dfb33fd8b755ae4a8fa2111d141babe",
    "faulted":
        "939f48d6211e4750db0af0cbca75595bd452b6a25b83ae2a122a7911c8a3bac7",
    "telemetry-on":
        "3a6d96218300f3e9303cba929611d19c0dfb33fd8b755ae4a8fa2111d141babe",
}
#: recorded on the calendar queue alone, before the legacy fault
#: callback hook was removed from the links
RETRANSMITTING_DIGEST = (
    "0d653cd5fc0a1cf3dffd3a634c4ef7783894f6195dbfae733b30954f4da17cce")


@pytest.mark.parametrize("name,kwargs", [
    pytest.param("default", {}, id="default"),
    pytest.param("faulted", FAULTED, id="faulted"),
    pytest.param("telemetry-on", {"observers": ("telemetry",)},
                 id="telemetry-on"),
])
def test_heap_and_calendar_byte_identical(name, kwargs):
    """The calendar queue reproduces the heap's recorded digest."""
    assert _observe(Environment(), **kwargs)[0] == EXPECTED[name]


def test_retransmitting_run_byte_identical():
    """A faulted run whose recovery path really fires keeps its digest."""
    digest, cluster = _observe(Environment(), **RETRANSMITTING)
    assert cluster.total_retransmissions > 0
    assert digest == RETRANSMITTING_DIGEST


def test_events_processed_counts_and_matches():
    env = Environment()
    for i in range(100):
        env.timeout(i % 7)
    env.run()
    assert env.events_processed == 100
    assert env.now == 6

