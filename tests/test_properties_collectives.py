"""Property-based collective correctness vs numpy references.

Each example spins a small simulated cluster, so the example counts are
kept low; determinism means failures replay exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.experiments.scale import measure_scale_point
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd

_SETTINGS = dict(max_examples=6, deadline=None)


def _values(n_ranks: int, length: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(-50, 50, size=length).astype(np.float64)
            for _ in range(n_ranks)]


@settings(**_SETTINGS)
@given(n_ranks=st.integers(min_value=2, max_value=5),
       length=st.integers(min_value=1, max_value=32),
       op=st.sampled_from(["sum", "max", "min"]),
       seed=st.integers(min_value=0, max_value=999))
def test_allreduce_matches_numpy(n_ranks, length, op, seed):
    contributions = _values(n_ranks, length, seed)
    cluster = Cluster(n_nodes=min(n_ranks, 4))

    def fn(ep):
        result = yield from ep.allreduce(contributions[ep.rank], op=op)
        return result

    results = run_spmd(cluster, n_ranks, fn,
                       placement=[r % len(cluster.nodes)
                                  for r in range(n_ranks)])
    expected = {"sum": np.sum, "max": np.max,
                "min": np.min}[op](contributions, axis=0)
    for result in results:
        np.testing.assert_allclose(result, expected)


@settings(**_SETTINGS)
@given(n_ranks=st.integers(min_value=2, max_value=5),
       root=st.data(),
       nbytes=st.integers(min_value=1, max_value=4096),
       seed=st.integers(min_value=0, max_value=999))
def test_bcast_any_root_any_size(n_ranks, root, nbytes, seed):
    root = root.draw(st.integers(min_value=0, max_value=n_ranks - 1))
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=nbytes).astype(np.uint8).tobytes()
    cluster = Cluster(n_nodes=min(n_ranks, 4))

    def fn(ep):
        buf = ep.alloc(nbytes)
        if ep.rank == root:
            ep.proc.write(buf, payload)
        yield from ep.bcast(buf, nbytes, root=root)
        return ep.proc.read(buf, nbytes)

    results = run_spmd(cluster, n_ranks, fn,
                       placement=[r % len(cluster.nodes)
                                  for r in range(n_ranks)])
    assert all(r == payload for r in results)


@settings(**_SETTINGS)
@given(n_ranks=st.integers(min_value=2, max_value=4),
       length=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=999))
def test_scan_matches_cumulative_numpy(n_ranks, length, seed):
    contributions = _values(n_ranks, length, seed)
    cluster = Cluster(n_nodes=min(n_ranks, 4))

    def fn(ep):
        result = yield from ep.scan(contributions[ep.rank], op="sum")
        return result

    results = run_spmd(cluster, n_ranks, fn,
                       placement=[r % len(cluster.nodes)
                                  for r in range(n_ranks)])
    running = np.zeros(length)
    for rank, result in enumerate(results):
        running = running + contributions[rank]
        np.testing.assert_allclose(result, running)


@settings(**_SETTINGS)
@given(n_ranks=st.integers(min_value=2, max_value=4),
       nbytes=st.integers(min_value=1, max_value=512),
       seed=st.integers(min_value=0, max_value=999))
def test_alltoall_permutes_blocks_correctly(n_ranks, nbytes, seed):
    rng = np.random.default_rng(seed)
    blocks = {(src, dst): rng.integers(0, 256, size=nbytes)
              .astype(np.uint8).tobytes()
              for src in range(n_ranks) for dst in range(n_ranks)}
    cluster = Cluster(n_nodes=min(n_ranks, 4))

    def fn(ep):
        mine = [blocks[(ep.rank, dst)] for dst in range(n_ranks)]
        out = yield from ep.alltoall(mine, nbytes)
        return out

    results = run_spmd(cluster, n_ranks, fn,
                       placement=[r % len(cluster.nodes)
                                  for r in range(n_ranks)])
    for dst, out in enumerate(results):
        assert out == [blocks[(src, dst)] for src in range(n_ranks)]


@pytest.mark.parametrize("n_ranks", [32, 128])
def test_single_switch_host_barrier_is_log2_rounds(n_ranks):
    """Closed form at rank counts the scale sweep does not run: the
    single-switch host barrier costs exactly 39.14 us per round of its
    log2(n)-round exchange."""
    point = measure_scale_point(n_ranks=n_ranks, topology="single_switch",
                                collectives="host", op="barrier")
    rounds = int(math.log2(n_ranks))
    assert point["latency_us"] == ns_to_us(39_140 * rounds)


def _tree_levels(n_ranks: int, fanout: int = 4) -> int:
    """Levels of the MCP fan-in tree over ``n_ranks`` one-rank nodes."""
    return round(math.log(n_ranks, fanout))


@pytest.mark.parametrize("n_ranks", [4])
def test_single_switch_nic_barrier_is_log4_levels(n_ranks):
    """Closed form at a rank count the scale sweep does not run: the
    single-switch NIC barrier costs 3.413 us plus 27.516 us per level
    of the fanout-4 firmware tree (58.445 us at 16 ranks, in the
    sweep)."""
    point = measure_scale_point(n_ranks=n_ranks, topology="single_switch",
                                collectives="nic", op="barrier")
    assert point["latency_us"] == \
        ns_to_us(3_413 + 27_516 * _tree_levels(n_ranks))


@pytest.mark.parametrize("n_ranks", [4, 16, 64])
def test_single_switch_nic_allreduce_adds_one_step_per_level(n_ranks):
    """The single-switch NIC allreduce of one float64 costs 3.893 us
    plus 27.566 us per tree level: 31.459 / 59.025 / 86.591 us at 4 /
    16 / 64 ranks."""
    point = measure_scale_point(n_ranks=n_ranks, topology="single_switch",
                                collectives="nic", op="allreduce")
    assert point["latency_us"] == \
        ns_to_us(3_893 + 27_566 * _tree_levels(n_ranks))


@pytest.mark.parametrize("n_ranks", [8, 16, 32, 64, 128])
def test_single_switch_host_allreduce_adds_one_step_per_doubling(n_ranks):
    """From 8 ranks up, the single-switch host allreduce of one float64
    costs 168.858 us plus exactly 57.876 us per doubling of the ranks
    (458.238 us at 256 ranks, in the sweep)."""
    point = measure_scale_point(n_ranks=n_ranks, topology="single_switch",
                                collectives="host", op="allreduce")
    doublings = int(math.log2(n_ranks)) - 3
    assert point["latency_us"] == ns_to_us(168_858 + 57_876 * doublings)


def test_single_switch_host_allreduce_small_rank_steps():
    """Below 8 ranks the doubling step is not the affine one: 2 -> 4
    ranks adds 70.035 us and 4 -> 8 ranks adds 56.286 us (42.537 /
    112.572 / 168.858 us)."""
    latency_ns = [round(measure_scale_point(
        n_ranks=n, topology="single_switch", collectives="host",
        op="allreduce")["latency_us"] * 1000) for n in (2, 4, 8)]
    assert latency_ns == [42_537, 112_572, 168_858]
    assert [b - a for a, b in zip(latency_ns, latency_ns[1:])] == \
        [70_035, 56_286]
