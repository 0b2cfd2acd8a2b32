"""Golden event digests: the engine's schedule, byte for byte.

The calendar queue replaced a classic ``(time, seq)`` binary heap with
the same pop order, and the heap ran beside it as a differential
reference until the digests below were recorded from both.  Every
observable — the latency samples, payload verdicts, the final clock,
the event count and the full canonicalized trace — must still match
those digests in clean, faulted and telemetry-enabled runs.  Flyweight
payloads are a time-exact fast path, so they join the same equivalence
class on the simulated-time observables.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import Cluster
from repro.config import DAWNING_3000, LOSSY_DAWNING
from repro.faults import FaultPlan
from repro.instrument.export import chrome_trace_events
from repro.instrument.measure import measure_one_way
from repro.sim import Environment


def _observe(env, **cluster_kwargs):
    """One measurement; returns a sha256 over every observable the
    guard compares."""
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
        sort_keys=True).encode()).hexdigest()


FAULTED = {"cfg": LOSSY_DAWNING,
           "fault_plan": FaultPlan(seed=11, drop_rate=0.15)}

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


@pytest.mark.parametrize("name,kwargs", [
    pytest.param("default", {}, id="default"),
    pytest.param("faulted", FAULTED, id="faulted"),
    pytest.param("telemetry-on", {"telemetry": True}, id="telemetry-on"),
])
def test_heap_and_calendar_byte_identical(name, kwargs):
    """The calendar queue reproduces the heap's recorded digest."""
    assert _observe(Environment(), **kwargs) == EXPECTED[name]


def test_events_processed_counts_and_matches():
    env = Environment()
    for i in range(100):
        env.timeout(i % 7)
    env.run()
    assert env.events_processed == 100
    assert env.now == 6


def _time_observables(cfg, nbytes=65536):
    cluster = Cluster(n_nodes=2, cfg=cfg)
    sample = measure_one_way(cluster, nbytes, repeats=3, warmup=1)
    return (tuple(sample.samples_us), sample.received_payloads_ok,
            cluster.env.now)


def test_flyweight_payloads_time_identical():
    """Length-only payloads never change the simulated clock."""
    real = _time_observables(DAWNING_3000)
    fly = _time_observables(DAWNING_3000.replace(flyweight_payloads=True))
    assert fly == real


def test_flyweight_time_identical_under_faults():
    """CRC, retransmit and recovery schedules are length-derived too."""
    def run(cfg):
        cluster = Cluster(n_nodes=2, cfg=cfg,
                          fault_plan=FaultPlan(seed=11, drop_rate=0.15))
        sample = measure_one_way(cluster, 65536, repeats=3, warmup=1)
        return (tuple(sample.samples_us), sample.received_payloads_ok,
                cluster.env.now)

    assert run(LOSSY_DAWNING.replace(flyweight_payloads=True)) \
        == run(LOSSY_DAWNING)
