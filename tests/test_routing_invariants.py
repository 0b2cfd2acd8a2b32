"""Routing invariants, enforced for every topology builder.

Every source route must (a) consume only ports within the radix of the
switch it is consumed at, (b) follow physically wired links hop by hop,
and (c) eject at the destination's host port on its final hop.
Fat-tree routes must additionally be up*/down* (never descend a level
and climb again — the structure that makes the Clos deadlock-free), and
ECMP selection must be a pure function of ``(src, dst, ecmp_seed)``.

Routes are composed from per-switch up-prefixes and per-pivot down
paths.  ``build_network`` proves every piece and checks every ECMP
tier's coverage at build time, so a buggy builder fails fast instead
of bleeding ``Switch.route_errors`` at forwarding time.
"""

from __future__ import annotations

import pytest

from repro.config import DAWNING_3000
from repro.hw import network
from repro.hw.network import _ecmp_pick, build_network
from repro.sim import Environment

from tests.conftest import all_routes

TOPOLOGY_SIZES = [
    ("single_switch", 1), ("single_switch", 2), ("single_switch", 9),
    ("switch_tree", 1), ("switch_tree", 7), ("switch_tree", 8),
    ("switch_tree", 20),
    ("mesh2d", 1), ("mesh2d", 4), ("mesh2d", 9), ("mesh2d", 12),
    ("fat_tree", 2), ("fat_tree", 4), ("fat_tree", 16), ("fat_tree", 17),
    ("fat_tree", 54), ("fat_tree", 60),
]


def _net(topology, n, cfg=DAWNING_3000):
    return build_network(Environment(), cfg, n, topology=topology)


@pytest.mark.parametrize("topology,n", TOPOLOGY_SIZES)
def test_every_route_walks_the_wired_fabric(topology, n):
    """walk_route() — radix, wiring, and host termination combined."""
    net = _net(topology, n)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            steps = net.walk_route(src, dst)
            assert len(steps) == len(net.route(src, dst))
            # Final step must eject exactly at dst's host port.
            assert net.port_map[steps[-1]] == ("host", dst)
            for sw_name, port in steps:
                sw = net._switch_by_name[sw_name]
                assert 0 <= port < sw.n_ports


@pytest.mark.parametrize("n", [4, 16, 17, 54, 60])
def test_fat_tree_routes_never_go_down_then_up(n):
    """Level sequence along any route climbs, then only descends."""
    net = _net("fat_tree", n)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            levels = [net.switch_level[sw]
                      for sw, _ in net.walk_route(src, dst)]
            descending = False
            for prev, cur in zip(levels, levels[1:]):
                if cur < prev:
                    descending = True
                elif cur > prev:
                    assert not descending, (
                        f"route {src}->{dst} climbs again after "
                        f"descending: levels {levels}")


def test_ecmp_choice_is_pure_function_of_flow_and_seed():
    a = all_routes(_net("fat_tree", 16))
    b = all_routes(_net("fat_tree", 16))
    assert a == b
    reseeded = all_routes(_net("fat_tree", 16,
                               DAWNING_3000.replace(ecmp_seed=99)))
    assert {p: len(r) for p, r in a.items()} == \
        {p: len(r) for p, r in reseeded.items()}


def test_out_of_radix_route_rejected_at_validation_time():
    """An up-prefix leaving its edge switch on a port beyond the radix."""
    net = _net("fat_tree", 16)
    tiers = net._up["ft.p0.e0"]
    (pivot, prefix), *rest = tiers[-1]            # the core tier
    tiers[-1] = ((pivot, (999,) + prefix[1:]), *rest)
    with pytest.raises(ValueError, match="outside .*radix"):
        net.validate_routes()


def test_unwired_port_rejected_at_validation_time():
    """A port inside the radix but with no cable on it."""
    net = _net("switch_tree", 20)
    # 20 hosts put hosts 14-19 on leaf2's ports 0-5 and its uplink on
    # port 7; port 6 is within radix 8 but unwired.
    net._up["leaf2"][1] = (("root", (6,)),)
    with pytest.raises(ValueError, match="not wired|ejects"):
        net.validate_routes()


def test_route_must_terminate_at_destination():
    net = _net("single_switch", 4)
    net._down["sw0"][1] = (2,)          # ejects at host 2, not 1
    with pytest.raises(ValueError, match="ejects at host 2"):
        net.validate_routes()


def test_truncated_route_rejected():
    net = _net("fat_tree", 16)
    down = net._down["ft.c0_0"]
    down[15] = down[15][:-1]
    with pytest.raises(ValueError, match="not at node"):
        net.validate_routes()


def test_unreachable_node_rejected_at_validation_time():
    """Coverage: a node no tier of some switch serves."""
    net = _net("switch_tree", 20)
    del net._down["root"][19]
    with pytest.raises(ValueError, match="leaves node 19 unreachable "
                                         "from switch leaf0"):
        net.validate_routes()


def _corrupt_fat_tree_build(monkeypatch, corrupt):
    """Make the fat-tree builder hand its pieces to ``corrupt`` before
    ``build_network`` validates them."""
    build = network._build_fat_tree

    def corrupted(net):
        build(net)
        corrupt(net)

    monkeypatch.setattr(network, "_build_fat_tree", corrupted)


def test_unpicked_uplink_rejected_at_build(monkeypatch):
    """A miswired agg->core uplink fails the build even when no pair
    picks that ECMP candidate under the configured seed, so a walk of
    every pair's seed-1 route would pass it."""
    edge = "ft.p1.e2"                   # k=6, n=17: hosts 15 and 16
    clean = _net("fat_tree", 17)
    half, tier = clean.meta["half"], clean._up[edge][-1]
    picked = {_ecmp_pick(src, dst, 1, len(tier))
              for src in (15, 16) for dst in range(9)}
    unpicked = min(set(range(len(tier))) - picked)

    def corrupt(net):
        pivot, (up, across) = tier[unpicked]
        wrong = half + (across - half + 1) % half  # the agg's next core
        net._up[edge][-1] = (tier[:unpicked] + ((pivot, (up, wrong)),)
                             + tier[unpicked + 1:])

    _corrupt_fat_tree_build(monkeypatch, corrupt)
    # Built without build_network's validation walk.
    net = network.Network(Environment(), DAWNING_3000, 17, "fat_tree")
    network._build_fat_tree(net)
    for src, dst in all_routes(net):
        net.walk_route(src, dst)
    with pytest.raises(ValueError, match=f"up-prefix {edge}->.* not at "
                                         "its pivot"):
        _net("fat_tree", 17)


def test_pivot_missing_down_path_rejected_at_build(monkeypatch):
    """Coverage: every candidate of a tier must serve what the tier
    routes to, or some seed would send a packet nowhere."""
    def corrupt(net):
        net._down["ft.c1_1"] = {node: ports for node, ports
                                in net._down["ft.c1_1"].items() if node != 5}

    _corrupt_fat_tree_build(monkeypatch, corrupt)
    with pytest.raises(ValueError, match="ECMP pivot ft.c1_1 has no down "
                                         "path to node 5"):
        _net("fat_tree", 16)


def test_host_port_beyond_radix_rejected_at_build_at_1024_ranks(
        monkeypatch):
    """A host port index that overflows the radix only in the last pod
    of a thousand-rank fabric — the scale-only bug class that small
    builds never reach."""
    def corrupt(net):
        down = net._down["ft.c0_0"]
        pod, edge, _ = down[1023]
        down[1023] = (pod, edge, net.meta["k"])

    _corrupt_fat_tree_build(monkeypatch, corrupt)
    with pytest.raises(ValueError, match="port 16 is outside ft.p15.e7's "
                                         "radix 16"):
        _net("fat_tree", 1024)


def test_core_piece_off_its_agg_piece_rejected_at_1024_ranks(monkeypatch):
    """A core's down path whose first hop is fine but whose tail no
    longer matches the aggregation switch it lands on is walked in full,
    so the bad last hop is still caught and named on the core's piece."""
    def corrupt(net):
        down = net._down["ft.c0_0"]
        pod, edge, port = down[1023]
        down[1023] = (pod, edge, port - 1)

    _corrupt_fat_tree_build(monkeypatch, corrupt)
    with pytest.raises(ValueError, match=r"down path ft\.c0_0->1023 hop 2: "
                                         "ejects at host 1022"):
        _net("fat_tree", 1024)


def test_agg_piece_corruption_rejected_at_1024_ranks(monkeypatch):
    """A bad aggregation-switch piece is named on that switch, not
    proven away by a core piece that reuses its tail.  The pod's aggs
    share one table, so one agg gets its own corrupted copy."""
    def corrupt(net):
        down = net._down["ft.p15.a3"] = dict(net._down["ft.p15.a3"])
        down[1023] = (net.meta["k"],) + down[1023][1:]

    _corrupt_fat_tree_build(monkeypatch, corrupt)
    with pytest.raises(ValueError, match=r"down path ft\.p15\.a3->1023 hop 0:"
                                         r" port 16 is outside ft\.p15\.a3's"
                                         " radix 16"):
        _net("fat_tree", 1024)


@pytest.mark.parametrize("topology", ["single_switch", "switch_tree",
                                      "mesh2d", "fat_tree"])
@pytest.mark.parametrize("src,dst", [(3, 3), (0, 9), (9, 0), (-1, 0),
                                     (0, -1), (0, 10 ** 6)])
def test_route_refuses_self_and_nonexistent_nodes(topology, src, dst):
    net = _net(topology, 9)
    with pytest.raises(ValueError, match="no route from node"):
        net.route(src, dst)
    assert net._memo == {}


@pytest.mark.parametrize("topology,n,free", [("fat_tree", 17, 17),
                                             ("mesh2d", 10, 10)])
def test_route_refuses_unattached_node(topology, n, free):
    """``free`` lands on a live switch's free port in the builder's
    layout, but no node is attached there."""
    net = _net(topology, n)
    for src, dst in ((0, free), (free, 0)):
        with pytest.raises(ValueError, match="no route from node"):
            net.route(src, dst)


def test_build_network_validates_when_strict(monkeypatch):
    """build_network itself runs the validation walk, on every build;
    a fabric built through a builder directly is unvalidated until
    walked by hand."""
    walked = []
    monkeypatch.setattr(network.Network, "validate_routes",
                        lambda net: walked.append(net))
    net = build_network(Environment(), DAWNING_3000, 9, topology="mesh2d")
    assert walked == [net]
    monkeypatch.undo()
    net = network.Network(Environment(), DAWNING_3000, 9, "mesh2d")
    network._build_mesh2d(net)
    net.validate_routes()
