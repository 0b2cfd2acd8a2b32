"""Link, switch and topology tests."""

from __future__ import annotations

import pytest

from repro.config import DAWNING_3000
from repro.faults import FaultInjector, FaultPlan
from repro.firmware.packet import Packet, PacketType
from repro.hw.link import Link
from repro.hw.network import build_network
from repro.hw.switch import Switch
from repro.sim import Environment, us


def data_packet(route, src=0, dst=1, payload=b""):
    return Packet(ptype=PacketType.DATA, src_nic=src, dst_nic=dst,
                  route=tuple(route), payload=payload,
                  total_length=len(payload))


def test_link_delivers_after_propagation(env, cfg):
    link = Link(env, cfg, "l")
    arrived = []
    link.b.attach(lambda pkt: arrived.append((env.now, pkt)))
    link.a.attach(lambda pkt: None)

    def sender():
        yield link.a.send(data_packet(route=()))

    env.process(sender())
    env.run()
    assert len(arrived) == 1
    assert arrived[0][0] == us(cfg.link_propagation_us)


def test_link_serialization_limits_throughput(env, cfg):
    """Back-to-back packets are spaced by the serialization window."""
    link = Link(env, cfg, "l")
    times = []
    link.b.attach(lambda pkt: times.append(env.now))
    link.a.attach(lambda pkt: None)
    payload = b"x" * 4096

    def sender():
        for _ in range(3):
            yield link.a.send(data_packet(route=(), payload=payload))

    env.process(sender())
    env.run()
    assert len(times) == 3
    gap = times[1] - times[0]
    wire_bytes = cfg.wire_header_bytes + 4096
    expected = round(wire_bytes * 1e3 / cfg.wire_mb_s)
    assert gap == expected
    assert times[2] - times[1] == gap


def test_link_fault_injector_drop(env, cfg):
    link = Link(env, cfg, "l")
    link.injector = FaultInjector(
        env, FaultPlan(drop_rate=1.0, first_hop_only=False), link.name)
    arrived = []
    link.b.attach(arrived.append)
    link.a.attach(lambda pkt: None)

    def sender():
        yield link.a.send(data_packet(route=()))

    env.process(sender())
    env.run()
    assert arrived == []
    assert link.packets_dropped == 1
    assert link.injector.drops == 1


def test_switch_routes_by_source_route(env, cfg):
    sw = Switch(env, cfg, "sw", n_ports=4)
    links = [Link(env, cfg, f"l{i}") for i in range(4)]
    arrived = {}
    for i, link in enumerate(links):
        sw.connect(i, link.b)
        link.a.attach(lambda pkt, i=i: arrived.setdefault(i, []).append(pkt))

    def sender():
        yield links[0].a.send(data_packet(route=(2,)))

    env.process(sender())
    env.run()
    assert list(arrived) == [2]
    assert arrived[2][0].route == ()
    assert sw.packets_forwarded == 1


def test_switch_dead_port_counts_route_error(env, cfg):
    sw = Switch(env, cfg, "sw", n_ports=4)
    link = Link(env, cfg, "l0")
    sw.connect(0, link.b)
    link.a.attach(lambda pkt: None)

    def sender():
        yield link.a.send(data_packet(route=(3,)))   # port 3 unconnected

    env.process(sender())
    env.run()
    assert sw.route_errors == 1


def test_switch_rejects_double_connect(env, cfg):
    sw = Switch(env, cfg, "sw", n_ports=2)
    l1, l2 = Link(env, cfg, "a"), Link(env, cfg, "b")
    sw.connect(0, l1.b)
    with pytest.raises(RuntimeError):
        sw.connect(0, l2.b)


# ---------------------------------------------------------------- topologies
@pytest.mark.parametrize("topology,n", [
    ("single_switch", 2),
    ("single_switch", 8),
    ("switch_tree", 10),
    ("switch_tree", 21),
    ("mesh2d", 4),
    ("mesh2d", 9),
    ("mesh2d", 12),
])
def test_all_pairs_routable(env, cfg, topology, n):
    net = build_network(env, cfg, n, topology)
    for src in range(n):
        for dst in range(n):
            if src != dst:
                route = net.route(src, dst)
                assert len(route) >= 1


def test_single_switch_route_is_one_hop(env, cfg):
    net = build_network(env, cfg, 4, "single_switch")
    assert net.route(0, 3) == (3,)
    assert net.hops(0, 3) == 1


def test_switch_tree_intra_leaf_shorter_than_cross_leaf(env, cfg):
    net = build_network(env, cfg, 14, "switch_tree")
    assert net.hops(0, 1) == 1      # same leaf
    assert net.hops(0, 7) == 3      # leaf -> root -> leaf


def test_mesh2d_route_length_is_manhattan(env, cfg):
    net = build_network(env, cfg, 9, "mesh2d")   # 3x3
    # node 0 at (0,0), node 8 at (2,2): 4 mesh hops + ejection port
    assert net.hops(0, 8) == 5


def test_route_to_self_rejected(env, cfg):
    net = build_network(env, cfg, 2, "single_switch")
    with pytest.raises(ValueError):
        net.route(1, 1)


def test_unknown_topology_rejected(env, cfg):
    with pytest.raises(ValueError):
        build_network(env, cfg, 2, "hypercube")


def test_packets_traverse_mesh_end_to_end(env, cfg):
    net = build_network(env, cfg, 9, "mesh2d")
    arrived = []
    for node, ep in net.nic_endpoints.items():
        ep.attach(lambda pkt, node=node: arrived.append((node, pkt)))

    def sender():
        yield net.nic_endpoints[0].send(
            data_packet(route=net.route(0, 8), src=0, dst=8, payload=b"hi"))

    env.process(sender())
    env.run()
    assert len(arrived) == 1
    node, pkt = arrived[0]
    assert node == 8 and pkt.payload == b"hi" and pkt.route == ()
