"""Determinism guarantees: identical runs, bit for bit.

The calibration, the exact-value assertions across the suite, and the
resume-ability of traces all rest on the engine being deterministic —
so test the property itself, end to end.
"""

from __future__ import annotations

import json

from repro.cluster import Cluster
from repro.instrument.measure import measure_one_way
from repro.telemetry.spans import chrome_trace_events
from repro.upper.job import run_spmd

from tests.conftest import load_example


def test_identical_latency_measurements():
    def run():
        cluster = Cluster(n_nodes=2)
        sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
        return (tuple(sample.samples_us), cluster.env.now)

    assert run() == run()


def test_identical_stage_traces():
    """Identical timing and stage structure.  Message ids come from a
    process-global counter (they keep incrementing across runs), so
    they are normalised to first-appearance order before comparing."""
    def run():
        cluster = Cluster(n_nodes=2, trace=True)
        measure_one_way(cluster, 1024, repeats=2, warmup=1)
        events = chrome_trace_events(cluster.tracer)
        id_map: dict[int, int] = {}
        for event in events:
            mid = event.get("args", {}).get("message_id")
            if mid is not None:
                event["args"]["message_id"] = id_map.setdefault(
                    mid, len(id_map))
        return json.dumps(events, sort_keys=True)

    trace_a = run()
    trace_b = run()
    assert trace_a == trace_b


def test_identical_mpi_job_timing():
    def run():
        cluster = Cluster(n_nodes=4)

        def fn(ep):
            import numpy as np
            out = yield from ep.allreduce(np.full(64, ep.rank + 1.0))
            return float(out[0])

        results = run_spmd(cluster, 4, fn)
        return (results, cluster.env.now, cluster.total_traps)

    assert run() == run()


def test_identical_workload_results():
    run_sample_sort = load_example("parallel_sort").run_sample_sort

    def run():
        result = run_sample_sort(Cluster(n_nodes=3), n_ranks=3,
                                 elements_per_rank=512)
        return (result.total_elements, result.elapsed_us)

    assert run() == run()


def test_lossy_runs_are_deterministic_too():
    """Seeded fault injection: the retransmission storm replays exactly."""
    from repro.config import DAWNING_3000
    from repro.faults import FaultPlan

    def run():
        cfg = DAWNING_3000.replace(retransmit_timeout_us=200.0)
        cluster = Cluster(n_nodes=2, cfg=cfg,
                          fault_plan=FaultPlan(seed=5, drop_rate=0.2))
        sample = measure_one_way(cluster, 20000, repeats=2, warmup=1)
        return (tuple(sample.samples_us), cluster.total_retransmissions)

    first = run()
    assert first[1] > 0                    # the storm really happened
    assert first == run()
