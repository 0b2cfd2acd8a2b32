"""The flight recorder must be a pure observer: byte-identical runs.

Mirrors tests/regressions/test_telemetry_parity.py for the crash
flight recorder (repro.telemetry.recorder): the same measurement is
run with the recorder disabled and enabled, and the full canonicalized
chrome trace, the per-message latency samples, the payload verdict and
the final simulation clock must match byte for byte — including under
fault injection, where the recorder's ring buffers see the densest
traffic, and under the global REPRO_OBSERVERS switch.
"""

from __future__ import annotations

import json

from repro.cluster import Cluster, disable, enable, enabled
from repro.config import LOSSY_DAWNING
from repro.faults import FaultPlan
from repro.instrument.measure import measure_one_way
from repro.telemetry.spans import chrome_trace_events


def _run(on: bool, names=("recorder",), **cluster_kwargs):
    """One measurement with ``names`` added to (``on``) or taken out of
    the global observer set; returns every observable the guard
    compares."""
    observers = enabled() | set(names) if on else enabled() - set(names)
    cluster = Cluster(n_nodes=2, trace=True, observers=observers,
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


def test_recorder_off_and_on_byte_identical():
    assert _run(on=True) == _run(on=False)


def test_recorder_parity_under_faults():
    """Retransmission/recovery schedules are unchanged by recording."""
    kwargs = {"cfg": LOSSY_DAWNING,
              "fault_plan": FaultPlan(seed=11, drop_rate=0.15)}
    off = _run(on=False, **kwargs)
    on = _run(on=True, **kwargs)
    assert on == off
    assert off[1]                        # payloads recovered intact


def test_recorder_parity_with_telemetry_stacked():
    """All three observers together (audit rides in the harness's
    --audit mode) still perturb nothing."""
    off = _run(on=False, names=("recorder", "telemetry"))
    on = _run(on=True, names=("recorder", "telemetry"))
    assert on == off


def test_global_switch_parity():
    """Cluster(observers=None) taking the recorder from the global set
    is still byte-identical to an explicitly disabled run."""
    baseline = _run(on=False)
    enable("recorder")
    try:
        cluster = Cluster(n_nodes=2, trace=True)
        assert cluster.recorder is not None
        sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    finally:
        disable("recorder")
    assert tuple(sample.samples_us) == baseline[0]
    assert cluster.env.now == baseline[2]
