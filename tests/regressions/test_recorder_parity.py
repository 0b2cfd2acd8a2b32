"""The flight recorder must be a pure observer: byte-identical runs.

Mirrors tests/regressions/test_telemetry_parity.py for the crash
flight recorder (repro.telemetry.recorder): the same measurement is
run with the recorder disabled and enabled, and the full canonicalized
chrome trace, the per-message latency samples, the payload verdict and
the final simulation clock must match byte for byte — including under
fault injection, where the recorder's ring buffers see the densest
traffic, and under the global REPRO_RECORDER switch.
"""

from __future__ import annotations

import json

from repro.cluster import Cluster
from repro.config import LOSSY_DAWNING
from repro.faults import FaultPlan
from repro.instrument.measure import measure_one_way
from repro.telemetry import recorder as recorder_mod
from repro.telemetry.spans import chrome_trace_events


def _run(recorder: bool, **cluster_kwargs):
    """One measurement; returns every observable the guard compares."""
    cluster = Cluster(n_nodes=2, trace=True, recorder=recorder,
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
    assert _run(recorder=True) == _run(recorder=False)


def test_recorder_parity_under_faults():
    """Retransmission/recovery schedules are unchanged by recording."""
    kwargs = {"cfg": LOSSY_DAWNING,
              "fault_plan": FaultPlan(seed=11, drop_rate=0.15)}
    off = _run(recorder=False, **kwargs)
    on = _run(recorder=True, **kwargs)
    assert on == off
    assert off[1]                        # payloads recovered intact


def test_recorder_parity_with_telemetry_stacked():
    """All three observers together (audit rides in the harness's
    --audit mode) still perturb nothing."""
    off = _run(recorder=False, telemetry=False)
    on = _run(recorder=True, telemetry=True)
    assert on == off


def test_global_switch_parity():
    """Cluster(recorder=None) deferring to REPRO_RECORDER is still
    byte-identical to an explicitly disabled run."""
    baseline = _run(recorder=False)
    recorder_mod.enable()
    try:
        cluster = Cluster(n_nodes=2, trace=True)
        assert cluster.recorder is not None
        sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    finally:
        recorder_mod.disable()
    assert tuple(sample.samples_us) == baseline[0]
    assert cluster.env.now == baseline[2]
