"""Latency/bandwidth measurement harness over the BCL API.

These helpers orchestrate the paper's microbenchmarks on a
:class:`~repro.cluster.Cluster`: one-way latency (sender's compose
start to the receiver's completed ``wait_recv``), inter- or intra-node.
The library follows the cluster's architecture (BCL on ``semi_user``,
the user-level baseline on ``user_level``, kernel datagram sockets on
``kernel_level``), and a one-node cluster measures the intra-node path.
Synchronisation between the two test processes (making sure the
rendezvous buffer is posted before the send starts) happens through
zero-cost simulation events, outside the measured path — the simulated
analogue of the barrier in a real ping-pong harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines import library_for
from repro.firmware.packet import ChannelKind
from repro.instrument.stats import Summary, bandwidth_mb_s, summarize
from repro.sim import Store
from repro.sim.time import ns_to_us

__all__ = ["LatencySample", "measure_one_way", "measure_intra_node"]


@dataclass
class LatencySample:
    """Result of one latency measurement configuration."""

    nbytes: int
    samples_us: list[float] = field(default_factory=list)
    received_payloads_ok: bool = True

    @property
    def summary(self) -> Summary:
        return summarize(self.samples_us)

    @property
    def latency_us(self) -> float:
        return self.summary.mean

    @property
    def bandwidth_mb_s(self) -> float:
        return bandwidth_mb_s(self.nbytes, self.latency_us)


def _pattern(nbytes: int, seed: int) -> bytes:
    """Deterministic, seed-dependent payload for integrity checking."""
    if nbytes == 0:
        return b""
    unit = bytes((seed * 31 + i) % 256 for i in range(min(nbytes, 256)))
    reps = -(-nbytes // len(unit))
    return (unit * reps)[:nbytes]


def measure_one_way(cluster, nbytes: int, repeats: int = 5,
                    warmup: int = 2,
                    channel_kind: ChannelKind = ChannelKind.NORMAL,
                    sender_node: int = 0,
                    receiver_node: Optional[int] = None,
                    verify_payload: bool = True,
                    buffers: int = 1) -> LatencySample:
    """One-way latency of a ``nbytes`` message, sender start to
    receiver completion, over the requested channel kind.

    The receiver defaults to node 1, or to node 0 on a one-node cluster
    (the intra-node path).  A route the cluster's library cannot carry
    (on ``kernel_level``: intra-node, or a system channel) raises
    ``ValueError`` before anything is simulated.

    The sender allocates ``buffers`` distinct buffers and sends message
    ``i`` from buffer ``i % buffers``: a working set larger than a
    translation cache (the kernel pin-down table, the NIC TLB) misses
    on every send, where one buffer stays warm.
    """
    library = library_for(cluster.architecture)
    if receiver_node is None:
        receiver_node = 0 if len(cluster.nodes) == 1 else 1
    library.check_route(sender_node, receiver_node, channel_kind)
    env = cluster.env
    total = warmup + repeats
    result = LatencySample(nbytes)
    posted: Store = Store(env)       # receiver -> sender: buffer ready
    start_times: list[int] = []
    done = env.event()

    def receiver():
        proc = cluster.spawn(receiver_node)
        port = yield from library(proc).create_port()
        buf = proc.alloc(max(nbytes, 1))
        posted.try_put(("addr", port.address))
        for i in range(total):
            if channel_kind is ChannelKind.NORMAL:
                yield from port.post_recv(0, buf, nbytes)
            posted.try_put(("ready", i))
            event = yield from port.wait_recv()
            elapsed_us = ns_to_us(env.now - start_times[i])
            if i >= warmup:
                result.samples_us.append(elapsed_us)
            if verify_payload and nbytes:
                if channel_kind is ChannelKind.SYSTEM:
                    data = yield from port.recv_system(event)
                else:
                    data = proc.read(buf, nbytes)
                if data != _pattern(nbytes, i):
                    result.received_payloads_ok = False
            elif channel_kind is ChannelKind.SYSTEM:
                yield from port.recv_system(event)
        done.succeed()

    def sender():
        proc = cluster.spawn(sender_node)
        port = yield from library(proc).create_port()
        kind, address = yield posted.get()
        assert kind == "addr"
        dest = address.with_channel(channel_kind, 0)
        # map(), not a comprehension: the harness's own host calls stay
        # those of the one-buffer loop (test_call_budget.py)
        bufs = list(map(proc.alloc, [max(nbytes, 1)] * buffers))
        for i in range(total):
            yield posted.get()                    # buffer is posted
            buf = bufs[i % buffers]
            proc.write(buf, _pattern(nbytes, i))  # prep, unmeasured
            start_times.append(env.now)
            yield from port.send(dest, buf, nbytes)
            yield from port.wait_send()           # reap, off critical path

    env.process(receiver(), name="measure.receiver")
    env.process(sender(), name="measure.sender")
    env.run(until=done)
    return result


def measure_intra_node(cluster, nbytes: int, repeats: int = 5,
                       warmup: int = 2,
                       channel_kind: ChannelKind = ChannelKind.NORMAL,
                       node: int = 0,
                       verify_payload: bool = True) -> LatencySample:
    """Intra-node one-way latency (both processes on one SMP node)."""
    return measure_one_way(cluster, nbytes, repeats, warmup, channel_kind,
                           sender_node=node, receiver_node=node,
                           verify_payload=verify_payload)
