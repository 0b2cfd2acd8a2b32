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

from repro.cluster import Cluster
from repro.config import LOSSY_DAWNING
from repro.faults import FaultPlan
from repro.fuzz import FifoTieBreak
from repro.instrument.measure import measure_one_way
from repro.sim import Environment
from repro.telemetry.spans import chrome_trace_events


def _run(telemetry: bool, env=None, **cluster_kwargs):
    """One measurement; returns every observable the guard compares."""
    cluster = Cluster(n_nodes=2, env=env, trace=True, telemetry=telemetry,
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
    assert _run(telemetry=True) == _run(telemetry=False)


def test_telemetry_parity_under_fifo_tie_break():
    baseline = _run(telemetry=False, env=Environment())
    hooked = _run(telemetry=True,
                  env=Environment(tie_break=FifoTieBreak()))
    assert hooked == baseline


def test_telemetry_parity_under_faults():
    """Retransmission/recovery schedules are unchanged by observation."""
    kwargs = {"cfg": LOSSY_DAWNING,
              "fault_plan": FaultPlan(seed=11, drop_rate=0.15)}
    off = _run(telemetry=False, **kwargs)
    on = _run(telemetry=True, **kwargs)
    assert on == off
    assert off[1]                        # payloads recovered intact


def test_global_switch_parity():
    """Cluster(telemetry=None) deferring to the global switch is still
    byte-identical to an explicitly disabled run."""
    from repro import telemetry

    baseline = _run(telemetry=False)
    telemetry.enable()
    try:
        cluster = Cluster(n_nodes=2, trace=True)
        assert cluster.telemetry is not None
        sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    finally:
        telemetry.disable()
    assert tuple(sample.samples_us) == baseline[0]
    assert cluster.env.now == baseline[2]
