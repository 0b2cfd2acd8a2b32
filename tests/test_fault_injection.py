"""End-to-end reliability under injected packet loss and corruption."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.faults import FaultInjector, FaultPlan
from repro.firmware.packet import ChannelKind, PacketType

from tests.conftest import run_procs
from tests.test_bcl_channels import setup_pair


class FirstHopDropper(FaultInjector):
    """An adversary no :class:`FaultPlan` can express: drops the
    first-hop packets :meth:`pick` selects.

    It sits on one node's host link, where that node's packets take
    their first hop, and keeps every drop on the per-flow ledger the
    invariant auditor balances.
    """

    def __init__(self, cluster, node: int):
        link = cluster.network.nic_endpoints[node].link
        super().__init__(cluster.env, FaultPlan(), link.name)
        link.injector = self

    def pick(self, packet) -> bool:
        raise NotImplementedError

    def adjudicate(self, packet):
        if packet.route and self.pick(packet):
            self.scripted_drops += 1
            self._account_drop(packet)
            self._record("scripted_drop", packet)
            return []
        return [(0, packet)]


def lossy_cluster(**plan):
    """Two nodes, a short retransmit timeout so tests finish quickly,
    and (given any ``plan`` fields) a seeded fault plan on every link."""
    from repro.config import DAWNING_3000
    cfg = DAWNING_3000.replace(retransmit_timeout_us=200.0)
    return Cluster(n_nodes=2, cfg=cfg,
                   fault_plan=FaultPlan(**plan) if plan else None)


def injected(cluster, counter: str) -> int:
    """One fault tally summed over the cluster's per-link injectors."""
    return sum(getattr(inj, counter) for inj in cluster.fault_injectors)


def transfer(cluster, ctx, payload):
    got = {}

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(max(len(payload), 1))
        yield from ctx["port1"].post_recv(0, buf, len(payload))
        yield from ctx["port1"].wait_recv()
        got["data"] = proc.read(buf, len(payload))

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(max(len(payload), 1))
        proc.write(buf, payload)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        yield from ctx["port0"].send(dest, buf, len(payload))

    run_procs(cluster, receiver(), sender())
    return got["data"]


@pytest.mark.parametrize("loss", [0.1, 0.25, 0.4])
def test_message_survives_packet_loss(loss):
    cluster = lossy_cluster(seed=42, drop_rate=loss)
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(40000))   # 10 packets
    assert transfer(cluster, ctx, payload) == payload
    assert injected(cluster, "drops") > 0
    assert cluster.total_retransmissions > 0


def test_message_survives_corruption():
    cluster = lossy_cluster(seed=43, corrupt_rate=0.3)
    ctx = setup_pair(cluster)
    payload = bytes((i * 13) % 256 for i in range(20000))
    assert transfer(cluster, ctx, payload) == payload
    assert injected(cluster, "corruptions") > 0
    mcp1 = cluster.mcps[1]
    assert any(r.corrupt_drops > 0 for r in mcp1._receivers.values())


def test_many_messages_in_order_despite_loss():
    cluster = lossy_cluster(seed=7, drop_rate=0.25)
    ctx = setup_pair(cluster)
    received = []

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(4096)
        for i in range(10):
            yield from ctx["port1"].post_recv(0, buf, 4096)
            yield from ctx["port1"].wait_recv()
            received.append(proc.read(buf, 4096)[0])

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(4096)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        for i in range(10):
            proc.write(buf, bytes([i]) * 4096)
            yield from ctx["port0"].send(dest, buf, 4096)
            # wait until delivered before reusing the buffer
            while len(received) <= i:
                yield cluster.env.timeout(10_000)

    run_procs(cluster, receiver(), sender())
    assert received == list(range(10))


def test_loss_free_run_has_no_retransmissions(cluster):
    ctx = setup_pair(cluster)
    payload = b"r" * 50000
    assert transfer(cluster, ctx, payload) == payload
    assert cluster.total_retransmissions == 0


def test_duplicate_deliveries_suppressed():
    """Dropped ACKs force retransmission of delivered packets; the
    receiver must not deliver the message twice."""

    class DropAcks(FirstHopDropper):
        """Drop the first two acks, let everything else through."""

        def pick(self, packet):
            return packet.ptype is PacketType.ACK and self.scripted_drops < 2

    cluster = lossy_cluster()
    injector = DropAcks(cluster, node=1)          # the receiver acks
    ctx = setup_pair(cluster)
    payload = b"d" * 8192
    assert transfer(cluster, ctx, payload) == payload
    cluster.env.run(until=cluster.env.now + 2_000_000)
    assert injector.scripted_drops == 2
    state = cluster.node(1).nic.port_state(2)
    # exactly one recv event was raised (none pending, none duplicated)
    assert len(ctx["port1"].recv_queue) == 0
    mcp1 = cluster.mcps[1]
    assert any(r.duplicates > 0 for r in mcp1._receivers.values())


def test_unreliable_bip_mode_delivers_torn_messages():
    """The control experiment for the reliability ablation: with the
    MCP protocol off (BIP-style) and one mid-message packet dropped,
    the message "completes" with a hole, flagged ``torn`` — the exact
    failure mode the paper's 5.65 us of protocol processing prevents."""
    from repro.config import DAWNING_3000

    class DropSecond(FirstHopDropper):
        """Drop the second non-ack packet the sender puts on the wire."""

        count = 0

        def pick(self, packet):
            if packet.ptype is PacketType.ACK:
                return False
            self.count += 1
            return self.count == 2

    cluster = Cluster(n_nodes=2, cfg=DAWNING_3000, reliable=False)
    injector = DropSecond(cluster, node=0)
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(20000))   # 5 packets
    outcome = {}

    def receiver():
        proc = ctx["p1"]
        buf = proc.alloc(len(payload))
        yield from ctx["port1"].post_recv(0, buf, len(payload))
        event = yield from ctx["port1"].wait_recv()
        outcome["status"] = event.status
        outcome["data"] = proc.read(buf, len(payload))

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(len(payload))
        proc.write(buf, payload)
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 0)
        yield from ctx["port0"].send(dest, buf, len(payload))

    run_procs(cluster, sender(), receiver())
    assert injector.scripted_drops == 1
    assert outcome["status"] == "torn"
    assert outcome["data"] != payload          # the hole is real
    assert cluster.total_retransmissions == 0  # nothing repaired it
    # The same drop under the reliable protocol delivers intact
    # (test_message_survives_packet_loss covers the general case).
