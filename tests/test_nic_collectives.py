"""NIC-offloaded collectives: the MCP fan-in/fan-out tree engine.

``collectives="nic"`` moves barrier/bcast/allreduce coordination into
the MCP firmware: each node's MCP accounts arrivals from its local
ranks and its tree children, combines reduction payloads NIC-side,
and fans the result out — the host only posts a descriptor and reaps a
completion event.  Programs are unchanged; the policy is a Job knob.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.firmware.collectives import build_node_tree
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd


# ------------------------------------------------------------ tree shape
def test_build_node_tree_fanout_and_connectivity():
    nodes = list(range(13))
    tree = build_node_tree(nodes, fanout=4)
    assert tree[0][0] is None                      # first node is root
    for node, (parent, children) in tree.items():
        assert len(children) <= 4
        for child in children:
            assert tree[child][0] == node
    reached, frontier = set(), [0]
    while frontier:
        node = frontier.pop()
        reached.add(node)
        frontier.extend(tree[node][1])
    assert reached == set(nodes)


def test_build_node_tree_single_node():
    assert build_node_tree([7], fanout=4) == {7: (None, ())}


# ---------------------------------------------------------- correctness
@pytest.mark.parametrize("topology,n_nodes,n_ranks", [
    ("single_switch", 4, 4),
    ("fat_tree", 16, 16),
    ("single_switch", 4, 8),       # two ranks per node: local fan-in
])
def test_nic_allreduce_matches_host(topology, n_nodes, n_ranks):
    expected = float(sum(r + 1.0 for r in range(n_ranks)))

    def prog(ep):
        out = yield from ep.allreduce(np.array([ep.rank + 1.0]))
        return float(out[0])

    results = {}
    for policy in ("host", "nic"):
        cluster = Cluster(n_nodes=n_nodes, topology=topology)
        results[policy] = run_spmd(cluster, n_ranks, prog,
                                   collectives=policy)
    assert results["host"] == [expected] * n_ranks
    assert results["nic"] == [expected] * n_ranks


def test_nic_allreduce_max_and_dtype():
    cluster = Cluster(n_nodes=4)

    def prog(ep):
        out = yield from ep.allreduce(
            np.array([float(ep.rank), -float(ep.rank)]), op="max")
        return tuple(float(v) for v in out)

    assert run_spmd(cluster, 4, prog, collectives="nic") == \
        [(3.0, 0.0)] * 4


def test_nic_bcast_delivers_root_payload():
    cluster = Cluster(n_nodes=8, topology="fat_tree")
    payload = bytes(range(64))

    def prog(ep):
        buf = ep.proc.alloc(64)
        if ep.rank == 3:
            ep.proc.write(buf, payload)
        yield from ep.bcast(buf, 64, root=3)
        return ep.proc.read(buf, 64)

    assert run_spmd(cluster, 8, prog, collectives="nic") == [payload] * 8


def test_nic_barrier_separates_phases():
    """No rank may leave the barrier before the last rank arrives."""
    cluster = Cluster(n_nodes=8)
    env = cluster.env
    arrived, left = [], []

    def prog(ep):
        yield env.timeout(1000 * (ep.rank + 1))      # staggered arrival
        arrived.append(env.now)
        yield from ep.barrier()
        left.append(env.now)

    run_spmd(cluster, 8, prog, collectives="nic")
    assert min(left) >= max(arrived)


def test_oversize_payload_falls_back_to_host_path():
    """Payloads past nic_coll_max_bytes take the host algorithms (the
    firmware engine sees no posts)."""
    cluster = Cluster(n_nodes=4)
    big = cluster.cfg.nic_coll_max_bytes // 8 + 1

    def prog(ep):
        out = yield from ep.allreduce(np.ones(big))
        return float(out[0])

    assert run_spmd(cluster, 4, prog, collectives="nic") == [4.0] * 4
    assert all(mcp.coll.posts == 0 for mcp in cluster.mcps)


def test_mixed_collectives_still_work():
    """Ops without a NIC implementation (alltoall) interleave with
    offloaded ones on the same endpoints."""
    cluster = Cluster(n_nodes=4, topology="fat_tree")

    def prog(ep):
        yield from ep.barrier()
        total = yield from ep.allreduce(np.array([1.0]))
        blocks = yield from ep.alltoall(
            [bytes([ep.rank, d]) for d in range(ep.size)], 2)
        yield from ep.barrier()
        return float(total[0]), b"".join(blocks)

    results = run_spmd(cluster, 4, prog, collectives="nic")
    for rank, (total, gathered) in enumerate(results):
        assert total == 4.0
        assert gathered == b"".join(bytes([s, rank]) for s in range(4))


# ------------------------------------------------------------ accounting
def test_engine_counters_and_metrics():
    from repro.telemetry.metrics import MetricsRegistry

    cluster = Cluster(n_nodes=4)

    def prog(ep):
        yield from ep.barrier()
        yield from ep.allreduce(np.array([1.0]))

    run_spmd(cluster, 4, prog, collectives="nic")
    posts = sum(mcp.coll.posts for mcp in cluster.mcps)
    completions = sum(mcp.coll.completions for mcp in cluster.mcps)
    packets = sum(mcp.coll.packets for mcp in cluster.mcps)
    assert posts == 8                  # 4 ranks x 2 collectives
    assert completions == 8
    assert packets > 0                 # non-root nodes exchanged UP/DOWN
    registry = MetricsRegistry()
    for mcp in cluster.mcps:
        mcp.coll.register_metrics(registry)
    rendered = registry.render_prometheus()
    assert "repro_nic_coll_posts_total" in rendered
    assert "repro_nic_coll_completions_total" in rendered


def test_pending_state_garbage_collected():
    cluster = Cluster(n_nodes=4)

    def prog(ep):
        for _ in range(3):
            yield from ep.barrier()

    run_spmd(cluster, 4, prog, collectives="nic")
    assert all(not mcp.coll._pending for mcp in cluster.mcps)


# -------------------------------------------------------------- latency
def test_nic_barrier_beats_host_dissemination():
    def timed_barrier(policy):
        cluster = Cluster(n_nodes=16, topology="fat_tree")
        env = cluster.env
        out = {}

        def prog(ep):
            yield from ep.barrier()
            t0 = env.now
            yield from ep.barrier()
            if ep.rank == 0:
                out["us"] = ns_to_us(env.now - t0)

        run_spmd(cluster, 16, prog, collectives=policy)
        return out["us"]

    host, nic = timed_barrier("host"), timed_barrier("nic")
    assert nic < host / 1.5, (host, nic)
