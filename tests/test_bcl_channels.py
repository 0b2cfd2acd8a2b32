"""End-to-end BCL channel semantics across the full simulated stack."""

from __future__ import annotations

import pytest

from repro.bcl.address import BclAddress
from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.firmware.descriptors import EventKind
from repro.firmware.packet import ChannelKind
from repro.kernel.errors import (
    BclError,
    ChannelBusyError,
    PortInUseError,
)
from repro.sim import Store
from repro.sim.time import ns_to_us

from tests.conftest import run_procs


def setup_pair(cluster, same_node=False):
    """Spawn two processes with ports; returns (procs, libs, ports dict)."""
    ctx = {}

    def starter():
        p0 = cluster.spawn(0)
        p1 = cluster.spawn(0 if same_node else 1)
        lib0, lib1 = BclLibrary(p0), BclLibrary(p1)
        ctx["port0"] = yield from lib0.create_port(port_id=1)
        ctx["port1"] = yield from lib1.create_port(port_id=2)
        ctx["p0"], ctx["p1"] = p0, p1

    run_procs(cluster, starter())
    return ctx


# ------------------------------------------------------------ normal channel
def test_normal_channel_payload_integrity(cluster):
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(10000))
    got = {}

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(len(payload))
        yield from ctx["port1"].post_recv(0, buf, len(payload))
        event = yield from ctx["port1"].wait_recv()
        got["event"] = event
        got["data"] = proc.read(buf, len(payload))

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(len(payload))
        proc.write(buf, payload)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        yield from ctx["port0"].send(dest, buf, len(payload))

    run_procs(cluster, receiver(), sender())
    assert got["data"] == payload
    assert got["event"].kind is EventKind.RECV_DONE
    assert got["event"].length == len(payload)
    assert got["event"].src_node == 0


def test_normal_channel_requires_posted_buffer(cluster):
    """Rendezvous violation: data sent to an unposted channel is dropped."""
    ctx = setup_pair(cluster)

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(64)
        proc.write(buf, b"y" * 64)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        yield from ctx["port0"].send(dest, buf, 64)
        yield from ctx["port0"].wait_send()

    run_procs(cluster, sender())
    cluster.env.run()  # drain in-flight packets
    state = cluster.node(1).nic.port_state(2)
    assert state.unready_drops >= 1
    assert len(ctx["port1"].recv_queue) == 0


def test_normal_channel_descriptor_consumed_once(cluster):
    ctx = setup_pair(cluster)
    results = {}

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(128)
        yield from ctx["port1"].post_recv(0, buf, 128)
        yield from ctx["port1"].wait_recv()
        results["after_first"] = \
            cluster.node(1).nic.port_state(2).normal[0] is None

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(128)
        proc.write(buf, b"a" * 128)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        yield from ctx["port0"].send(dest, buf, 128)

    run_procs(cluster, receiver(), sender())
    assert results["after_first"] is True


def test_double_post_same_channel_rejected(cluster):
    ctx = setup_pair(cluster)

    def poster():
        proc = ctx["p1"]
        buf = proc.alloc(4096)
        yield from ctx["port1"].post_recv(0, buf, 64)
        with pytest.raises(ChannelBusyError):
            yield from ctx["port1"].post_recv(0, buf, 64)

    run_procs(cluster, poster())


def test_message_too_big_for_posted_buffer_dropped(cluster):
    ctx = setup_pair(cluster)

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(64)
        yield from ctx["port1"].post_recv(0, buf, 64)

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(256)
        proc.write(buf, b"b" * 256)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        yield from ctx["port0"].send(dest, buf, 256)

    run_procs(cluster, receiver(), sender())
    cluster.env.run()
    assert cluster.node(1).nic.port_state(2).unready_drops >= 1


# ------------------------------------------------------------ system channel
def test_system_channel_no_posting_needed(cluster):
    ctx = setup_pair(cluster)
    got = {}

    def receiver():
        event = yield from ctx["port1"].wait_recv()
        data = yield from ctx["port1"].recv_system(event)
        got["data"] = data
        got["event"] = event

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(100)
        proc.write(buf, b"s" * 100)
        yield from ctx["port0"].send_system(ctx["port1"].address, buf, 100)

    run_procs(cluster, receiver(), sender())
    assert got["data"] == b"s" * 100
    assert got["event"].channel_kind is ChannelKind.SYSTEM
    assert got["event"].pool_buffer_index >= 0


def test_system_channel_pool_buffer_recycled(cluster):
    ctx = setup_pair(cluster)
    state = cluster.node(1).nic.port_state(2)
    pool_size = len(state.system_pool_free)

    def receiver():
        for _ in range(pool_size + 4):   # more messages than buffers
            event = yield from ctx["port1"].wait_recv()
            yield from ctx["port1"].recv_system(event)

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(16)
        proc.write(buf, b"m" * 16)
        for _ in range(pool_size + 4):
            yield from ctx["port0"].send_system(ctx["port1"].address, buf, 16)
            yield from ctx["port0"].wait_send()

    run_procs(cluster, receiver(), sender())
    assert len(state.system_pool_free) == pool_size
    assert state.system_dropped == 0


def test_system_channel_drops_when_pool_exhausted(cluster):
    """Paper: "The incoming message will be discarded if there is no
    free buffer in the pool"."""
    ctx = setup_pair(cluster)
    state = cluster.node(1).nic.port_state(2)
    pool_size = len(state.system_pool_free)
    n_sent = pool_size + 3

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(16)
        proc.write(buf, b"d" * 16)
        for _ in range(n_sent):  # receiver never drains
            yield from ctx["port0"].send_system(ctx["port1"].address, buf, 16)
            yield from ctx["port0"].wait_send()

    run_procs(cluster, sender())
    cluster.env.run()
    assert state.system_dropped == 3
    assert len(ctx["port1"].recv_queue) == pool_size


def test_system_channel_message_larger_than_pool_buffer_dropped(cluster):
    ctx = setup_pair(cluster)
    state = cluster.node(1).nic.port_state(2)
    buf_size = state.system_pool_free[0].size

    def sender():
        proc = ctx["p0"]
        n = buf_size + 1
        buf = proc.alloc(n)
        proc.write(buf, b"e" * n)
        yield from ctx["port0"].send_system(ctx["port1"].address, buf, n)

    run_procs(cluster, sender())
    cluster.env.run()
    assert state.system_dropped == 1


def test_request_service_serves_all_clients():
    """Request/response over system channels: 3 clients x 4 requests
    against a server with a 64-buffer pool, 5 us of service work each."""
    cluster = Cluster(n_nodes=4)
    env = cluster.env
    ready = Store(env)
    response_us = []

    def server():
        proc = cluster.spawn(0)
        port = yield from BclLibrary(proc).create_port(
            port_id=1, system_pool_buffers=64)
        for _ in range(3):
            ready.try_put(port.address)
        reply = proc.alloc(1024)
        proc.write(reply, b"R" * 1024)
        for _ in range(12):
            event = yield from port.wait_recv()
            data = yield from port.recv_system(event)
            yield from proc.cpu.execute(5.0, category="app",
                                        stage="service_request")
            client = BclAddress(data[0], int.from_bytes(data[1:5], "little"))
            yield from port.send_system(client, reply, 1024)

    def client(node_id):
        proc = cluster.spawn(node_id)
        port = yield from BclLibrary(proc).create_port()
        address = yield ready.get()
        req = proc.alloc(256)
        header = bytes([node_id]) + port.port_id.to_bytes(4, "little")
        proc.write(req, header + b"q" * (256 - len(header)))
        for _ in range(4):
            t0 = env.now
            yield from port.send_system(address, req, 256)
            event = yield from port.wait_recv()
            yield from port.recv_system(event)
            response_us.append(ns_to_us(env.now - t0))

    run_procs(cluster, server(), *(client(i) for i in range(1, 4)))
    assert len(response_us) == 12
    assert cluster.node(0).nic.port_state(1).system_dropped == 0
    # round trip + 5 us service: bounded below by 2x one-way latency
    assert sum(response_us) / len(response_us) > 40.0


def test_hotspot_bounded_by_receiver_link():
    """4 senders x 8 x 4 KB system messages into one 64-buffer pool."""
    cluster = Cluster(n_nodes=5)
    env = cluster.env
    ready = Store(env)
    out = {}

    def receiver():
        proc = cluster.spawn(0)
        port = yield from BclLibrary(proc).create_port(
            system_pool_buffers=64)
        for _ in range(4):
            ready.try_put(port.address)
        t0 = env.now
        for _ in range(32):
            event = yield from port.wait_recv()
            yield from port.recv_system(event)
        out["elapsed_us"] = ns_to_us(env.now - t0)

    def sender(node_id):
        proc = cluster.spawn(node_id)
        port = yield from BclLibrary(proc).create_port()
        address = yield ready.get()
        buf = proc.alloc(4096)
        proc.write(buf, b"h" * 4096)
        for _ in range(8):
            yield from port.send_system(address, buf, 4096)
            yield from port.wait_send()

    run_procs(cluster, receiver(), *(sender(i) for i in range(1, 5)))
    bandwidth_mb_s = 32 * 4096 / out["elapsed_us"]
    # The receiver's single link is the ceiling.
    assert bandwidth_mb_s <= cluster.cfg.wire_mb_s
    assert bandwidth_mb_s > cluster.cfg.wire_mb_s * 0.7


# ------------------------------------------------------------- port lifecycle
def test_one_port_per_process(cluster):
    def starter():
        proc = cluster.spawn(0)
        lib = BclLibrary(proc)
        yield from lib.create_port(port_id=5)
        with pytest.raises(BclError):
            yield from lib.create_port(port_id=6)

    run_procs(cluster, starter())


def test_port_id_collision_rejected(cluster):
    def starter():
        p0, p1 = cluster.spawn(0), cluster.spawn(0)
        yield from BclLibrary(p0).create_port(port_id=5)
        with pytest.raises(PortInUseError):
            yield from BclLibrary(p1).create_port(port_id=5)

    run_procs(cluster, starter())


def test_close_port_unpins_and_rejects_use(cluster):
    def starter():
        proc = cluster.spawn(0)
        lib = BclLibrary(proc)
        port = yield from lib.create_port(port_id=5)
        pinned_at_open = proc.space.pinned_pages
        assert pinned_at_open > 0      # system pool buffers are pinned
        yield from port.close()
        assert proc.space.pinned_pages == 0
        with pytest.raises(BclError):
            yield from port.poll_recv()
        assert 5 not in cluster.node(0).nic.ports

    run_procs(cluster, starter())


def test_zero_byte_message_generates_event(cluster):
    ctx = setup_pair(cluster)
    got = {}

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(1)
        yield from ctx["port1"].post_recv(0, buf, 0)
        got["event"] = yield from ctx["port1"].wait_recv()

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(1)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        yield from ctx["port0"].send(dest, buf, 0)

    run_procs(cluster, receiver(), sender())
    assert got["event"].length == 0


def test_send_completion_event_delivered(cluster):
    ctx = setup_pair(cluster)
    got = {}

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(64)
        yield from ctx["port1"].post_recv(0, buf, 64)
        yield from ctx["port1"].wait_recv()

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(64)
        proc.write(buf, b"c" * 64)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        mid = yield from ctx["port0"].send(dest, buf, 64)
        event = yield from ctx["port0"].wait_send()
        got["match"] = event.message_id == mid
        got["kind"] = event.kind

    run_procs(cluster, receiver(), sender())
    assert got["match"]
    assert got["kind"] is EventKind.SEND_DONE
