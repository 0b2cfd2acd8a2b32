"""Telemetry must be a pure observer: byte-identical runs on or off.

Mirrors the FIFO schedule-equivalence guard (tests/test_fuzz_policies):
the same measurement is run with telemetry disabled and enabled, and
the full canonicalized chrome trace, the per-message latency samples,
the payload verdict and the final simulation clock must match byte for
byte — including under an explicit FIFO tie-break policy, so the
telemetry hook composes with the scheduling hook.
"""

from __future__ import annotations

import json

from repro.cluster import Cluster, disable, enable, enabled
from repro.config import LOSSY_DAWNING
from repro.faults import FaultPlan
from repro.fuzz import FifoTieBreak
from repro.instrument.measure import measure_one_way
from repro.sim import Environment
from repro.telemetry.spans import chrome_trace_events


def _run(on: bool, env=None, **cluster_kwargs):
    """One measurement with telemetry added to or taken out of the
    global observer set; returns every observable the guard compares."""
    observers = (enabled() | {"telemetry"} if on
                 else enabled() - {"telemetry"})
    cluster = Cluster(n_nodes=2, env=env, trace=True, observers=observers,
                      **cluster_kwargs)
    sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    events = chrome_trace_events(cluster.tracer)
    # message ids are process-global; canonicalize by first appearance
    id_map: dict[int, int] = {}
    for event in events:
        mid = event.get("args", {}).get("message_id")
        if mid is not None:
            event["args"]["message_id"] = id_map.setdefault(
                mid, len(id_map))
    return (tuple(sample.samples_us), sample.received_payloads_ok,
            cluster.env.now, json.dumps(events, sort_keys=True))


def test_telemetry_off_and_on_byte_identical():
    assert _run(on=True) == _run(on=False)


def test_telemetry_parity_under_fifo_tie_break():
    baseline = _run(on=False, env=Environment())
    hooked = _run(on=True,
                  env=Environment(tie_break=FifoTieBreak()))
    assert hooked == baseline


def test_telemetry_parity_under_faults():
    """Retransmission/recovery schedules are unchanged by observation."""
    kwargs = {"cfg": LOSSY_DAWNING,
              "fault_plan": FaultPlan(seed=11, drop_rate=0.15)}
    off = _run(on=False, **kwargs)
    on = _run(on=True, **kwargs)
    assert on == off
    assert off[1]                        # payloads recovered intact


def test_global_switch_parity():
    """Cluster(observers=None) taking telemetry from the global set is
    still byte-identical to an explicitly disabled run."""
    baseline = _run(on=False)
    enable("telemetry")
    try:
        cluster = Cluster(n_nodes=2, trace=True)
        assert cluster.telemetry is not None
        sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    finally:
        disable("telemetry")
    assert tuple(sample.samples_us) == baseline[0]
    assert cluster.env.now == baseline[2]
