"""Fat-tree (k-ary Clos) topology: structure, ECMP, degenerate forms."""

from __future__ import annotations

import pytest

from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.firmware.packet import ChannelKind
from repro.hw.network import _ecmp_pick, _fat_tree_k, build_network
from repro.sim import Environment, Store

from tests.conftest import all_routes, run_procs


def _net(n, cfg=DAWNING_3000):
    return build_network(Environment(), cfg, n, topology="fat_tree")


def test_auto_k_selection():
    assert _fat_tree_k(2, 0) == 2
    assert _fat_tree_k(16, 0) == 4     # 4^3/4 = 16
    assert _fat_tree_k(17, 0) == 6     # 6^3/4 = 54
    assert _fat_tree_k(64, 0) == 8     # 8^3/4 = 128... 6^3/4=54 < 64
    assert _fat_tree_k(1024, 0) == 16  # 16^3/4 = 1024


def test_k_override_too_small_rejected():
    with pytest.raises(ValueError, match="fat_tree_k=4"):
        _fat_tree_k(17, 4)


def test_full_fabric_structure():
    """16 hosts at k=4: 4 pods x (2 edge + 2 agg) + 4 cores."""
    net = _net(16)
    assert net.meta["k"] == 4
    assert net.meta["n_pods"] == 4
    levels = [net.switch_level[s.name] for s in net.switches]
    assert levels.count(0) == 8       # edges
    assert levels.count(1) == 8       # aggs
    assert levels.count(2) == 4       # cores
    # 16 host links + 8*2 edge-agg + 8*2 agg-core
    assert len(net.links) == 48
    assert all(all_routes(net).values())     # every ordered pair routes


def test_route_shapes_by_locality():
    net = _net(16)
    # same edge (hosts 0,1 share ft.p0.e0): eject directly
    assert net.route(0, 1) == (1,)
    # same pod, different edge: up to an agg, down, eject = 3 hops
    assert len(net.route(0, 2)) == 3
    # cross-pod: up, up, down, down, eject = 5 hops
    assert len(net.route(0, 4)) == 5


def test_single_pod_has_no_cores():
    """4 hosts fit one k=4 pod: cores (and their links) collapse."""
    net = _net(4)
    assert net.meta["n_pods"] == 1
    assert all(net.switch_level[s.name] < 2 for s in net.switches)
    assert max(len(r) for r in all_routes(net).values()) == 3


def test_single_edge_has_no_aggs():
    """2 hosts on one k=4 edge: the whole tree is one crossbar."""
    net = build_network(Environment(), DAWNING_3000.replace(fat_tree_k=4),
                        2, topology="fat_tree")
    assert len(net.switches) == 1
    assert net.switch_level[net.switches[0].name] == 0
    assert net.route(0, 1) == (1,)


def test_ecmp_is_seed_deterministic():
    for args in ((0, 5, 1, 4), (3, 900, 7, 8)):
        assert _ecmp_pick(*args) == _ecmp_pick(*args)
    routes_a = all_routes(_net(16))
    routes_b = all_routes(_net(16))
    assert routes_a == routes_b


def test_ecmp_seed_changes_path_selection():
    base = all_routes(_net(16))
    other = all_routes(build_network(Environment(),
                                     DAWNING_3000.replace(ecmp_seed=2), 16,
                                     topology="fat_tree"))
    assert base != other
    # ... but only among equal-cost choices: same hop counts throughout.
    assert {p: len(r) for p, r in base.items()} == \
        {p: len(r) for p, r in other.items()}


def test_ecmp_spreads_uplinks():
    """Cross-pod flows from one host use more than one core."""
    net = _net(16)
    first_hops = {net.route(0, dst)[:2] for dst in range(4, 16)}
    assert len(first_hops) > 1


def test_cross_pod_traffic_end_to_end():
    """A BCL exchange across pods arrives intact with zero route errors."""
    cluster = Cluster(n_nodes=16, topology="fat_tree")
    env = cluster.env
    ready: Store = Store(env)
    got = {}
    payload = b"clos" * 64

    def receiver():
        proc = cluster.spawn(13)       # pod 3
        port = yield from BclLibrary(proc).create_port()
        buf = proc.alloc(len(payload))
        yield from port.post_recv(0, buf, len(payload))
        ready.try_put(port.address)
        yield from port.wait_recv()
        got["data"] = proc.read(buf, len(payload))

    def sender():
        proc = cluster.spawn(2)        # pod 0
        port = yield from BclLibrary(proc).create_port()
        address = yield ready.get()
        buf = proc.alloc(len(payload))
        proc.write(buf, payload)
        dest = address.with_channel(ChannelKind.NORMAL, 0)
        yield from port.send(dest, buf, len(payload))

    run_procs(cluster, receiver(), sender())
    assert got["data"] == payload
    assert all(sw.route_errors == 0 for sw in cluster.network.switches)
