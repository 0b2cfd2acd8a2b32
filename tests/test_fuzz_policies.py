"""Tie-break policies: FIFO parity (byte-identical traces) and the
seeded shuffle's determinism/divergence properties.

The FIFO parity tests are the schedule-equivalence guard for the
experiment numbers: the tie-break hook with the default (or explicit
FIFO) policy must reproduce the seed trace byte for byte, so every
number in EXPERIMENTS.md survives the hook's introduction.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster
from repro.fuzz import (
    FifoTieBreak,
    ShuffledTieBreak,
    generate_workload,
    run_workload,
)
from repro.instrument.measure import measure_one_way
from repro.sim import Environment, SimulationError
from repro.telemetry.spans import chrome_trace_events


# ------------------------------------------------------------ unit level
def test_fifo_policy_key_is_scheduling_order():
    policy = FifoTieBreak()
    assert [policy.key(123, s) for s in range(5)] == [0, 1, 2, 3, 4]


def test_shuffled_keys_deterministic_and_unique():
    a, b = ShuffledTieBreak(7), ShuffledTieBreak(7)
    keys = [a.key(50, s) for s in range(200)]
    assert keys == [b.key(50, s) for s in range(200)]
    assert len(set(keys)) == 200            # unique even at one instant
    # the permutation actually shuffles (not order-preserving)
    assert sorted(keys) != keys


def test_shuffled_seeds_give_distinct_orders():
    at = lambda policy: sorted(range(32), key=lambda s: policy.key(9, s))
    orders = {tuple(at(ShuffledTieBreak(seed))) for seed in range(6)}
    assert len(orders) == 6


def test_environment_rejects_policy_without_key():
    with pytest.raises(SimulationError):
        Environment(tie_break=object())


def test_environment_exposes_policy():
    policy = ShuffledTieBreak(3)
    assert Environment(tie_break=policy).tie_break is policy
    assert Environment().tie_break is None


# -------------------------------------------------- FIFO parity (guard)
def _traced_run(env):
    """A full measurement on ``env``; returns (samples, now, trace)."""
    cluster = Cluster(n_nodes=2, env=env, trace=True)
    sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
    events = chrome_trace_events(cluster.tracer)
    id_map: dict[int, int] = {}
    for event in events:
        mid = event.get("args", {}).get("message_id")
        if mid is not None:
            event["args"]["message_id"] = id_map.setdefault(
                mid, len(id_map))
    return (tuple(sample.samples_us), env.now,
            json.dumps(events, sort_keys=True))


def test_fifo_policy_trace_byte_identical_to_no_policy():
    """The hook + explicit FIFO policy is the hook-less engine."""
    baseline = _traced_run(Environment())
    with_hook = _traced_run(Environment(tie_break=FifoTieBreak()))
    assert with_hook == baseline


def test_fifo_policy_workload_identical_to_no_policy():
    for seed in (0, 3, 5):                 # bcl, eadi and pvm layers
        spec = generate_workload(seed, max_ops=6)
        assert run_workload(spec, tie_break=FifoTieBreak()) \
            == run_workload(spec)


# ----------------------------------------------------- shuffled behaviour
def test_shuffled_schedule_is_reproducible():
    spec = generate_workload(3, max_ops=8)
    first = run_workload(spec, tie_break=ShuffledTieBreak(1))
    again = run_workload(spec, tie_break=ShuffledTieBreak(1))
    assert first == again


def test_shuffled_schedule_actually_diverges():
    """At least one shuffle seed must produce a genuinely different
    schedule (different finish time) on a busy multi-rank workload —
    otherwise the fuzzer is only ever re-testing the FIFO order."""
    spec = generate_workload(3, max_ops=8)   # eadi, 4 ranks
    base = run_workload(spec)
    alts = [run_workload(spec, tie_break=ShuffledTieBreak(seed))
            for seed in (1, 2, 3, 4)]
    assert any(alt.now != base.now for alt in alts)
    # ...while delivery stays identical (the core oracle property)
    assert all(alt.delivery == base.delivery for alt in alts)
