"""Full-duplex network links with cut-through forwarding semantics.

Latency model (faithful to wormhole/cut-through routing): a packet
crossing a link experiences only the propagation delay — serialization
is paid once, at the source NIC's wire-injection engine.  Occupancy
model: each link direction can still only carry one packet's worth of
bytes per serialization window, so the pump process holds the direction
for ``wire_bytes / wire_rate`` before accepting the next packet.  That
makes shared links a throughput bottleneck under congestion without
re-charging serialization latency at every hop.

Backpressure: each direction has a small bounded inbox; when a
downstream link is saturated the upstream sender's ``send`` blocks,
which is the discrete analogue of wormhole flow control.

Fault injection: a link may carry a
:class:`~repro.faults.FaultInjector` (set by
:func:`~repro.faults.install_plan`, the one way a fault reaches a
packet) that adjudicates each packet into zero or more deliveries —
drop, corrupt, duplicate, or delay/reorder.  Faulted packets still
occupy the serialization window (the bits crossed the wire before
being lost), so lossy links congest realistically.  A duplicated
packet is one physical wire crossing adjudicated into two deliveries,
so it holds exactly one window — occupancy accounts wire time, not
delivery count.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.config import CostModel
from repro.firmware.packet import Packet
from repro.sim import Environment, Store

__all__ = ["Link", "LinkEndpoint"]

#: Packets a direction may buffer before senders block (wormhole slack).
INBOX_CAPACITY = 4


class LinkEndpoint:
    """One end of a link, and the direction that leaves it.

    Owners attach a receive callback.  The endpoint owns its outgoing
    direction's bounded inbox and serialization-window occupancy.
    """

    __slots__ = ("link", "label", "_on_receive", "peer", "inbox", "busy_ns")

    def __init__(self, link: "Link", label: str):
        self.link = link
        self.label = label
        self._on_receive: Optional[Callable[[Packet], None]] = None
        self.peer: Optional["LinkEndpoint"] = None
        #: packets waiting to leave through this end
        self.inbox = Store(link.env, capacity=INBOX_CAPACITY)
        #: occupancy of the direction leaving this end
        self.busy_ns = 0

    def attach(self, on_receive: Callable[[Packet], None]) -> None:
        """Register the packet-arrival callback (NIC or switch port).

        ``on_receive(packet)`` is called once per arriving packet; the
        NIC and each switch port pass their inbox's ``try_put`` itself.
        """
        if self._on_receive is not None:
            raise RuntimeError(f"endpoint {self.label} already attached")
        self._on_receive = on_receive

    def send(self, packet: Packet):
        """Transmit toward the peer endpoint; may block on backpressure.

        Returns the store-put event; yield it to respect flow control.
        """
        return self.inbox.put(packet)

    def _deliver(self, packet: Packet) -> None:
        if self._on_receive is None:
            raise RuntimeError(
                f"packet arrived at unattached endpoint {self.label}")
        self._on_receive(packet)


class Link:
    """A bidirectional link: two independent directed channels."""

    __slots__ = ("env", "cfg", "name", "injector", "a", "b",
                 "packets_carried", "packets_dropped")

    def __init__(self, env: Environment, cfg: CostModel, name: str):
        self.env = env
        self.cfg = cfg
        self.name = name
        #: :class:`~repro.faults.FaultInjector` adjudicating every packet
        #: this link carries; ``None`` passes them through untouched
        self.injector = None
        self.a = LinkEndpoint(self, f"{name}.a")
        self.b = LinkEndpoint(self, f"{name}.b")
        self.a.peer, self.b.peer = self.b, self.a
        self.packets_carried = 0
        self.packets_dropped = 0
        env.process(self._pump(self.a))
        env.process(self._pump(self.b))

    def register_metrics(self, registry) -> None:
        """Expose this link's occupancy and carry/drop tallies."""
        registry.register_callback(
            "repro_link_busy_ns",
            lambda: self.a.busy_ns + self.b.busy_ns,
            "serialization-window occupancy, both directions",
            kind="counter", link=self.name)
        for direction, end in (("a_to_b", self.a), ("b_to_a", self.b)):
            registry.register_callback(
                "repro_link_direction_busy_ns",
                lambda end=end: end.busy_ns,
                "serialization-window occupancy of one direction",
                kind="counter", link=self.name, direction=direction)
        registry.register_callback(
            "repro_link_packets_total", lambda: self.packets_carried,
            kind="counter", link=self.name, outcome="carried")
        registry.register_callback(
            "repro_link_packets_total", lambda: self.packets_dropped,
            kind="counter", link=self.name, outcome="dropped")

    def _pump(self, src: LinkEndpoint) -> Generator:
        """Drain one direction: deliver after propagation, hold for
        the serialization window."""
        inbox = src.inbox
        dst = src.peer
        cfg = self.cfg
        prop = cfg.ns.link_propagation
        header = cfg.wire_header_bytes
        per_byte = cfg.wire_ns_per_byte
        while True:
            # An idle direction holds no packet while it waits.
            packet = outcomes = out_packet = None
            packet: Packet = yield inbox.get()
            serialization = round(packet.wire_bytes(header) * per_byte)
            if self.injector is not None:
                outcomes = self.injector.adjudicate(packet)
            else:
                outcomes = ((0, packet),)
            # A dropped or corrupted packet crossed the wire before it
            # was lost, so it occupies the serialization window like any
            # other.  A duplicate is a single physical crossing
            # adjudicated into two deliveries: it holds exactly one
            # window (multiplying by the outcome count double-charged
            # busy_ns versus actual wire time).
            src.busy_ns += serialization
            if not outcomes:
                self.packets_dropped += 1
                yield self.env.timeout(serialization)
                continue
            self.packets_carried += 1
            for extra_delay, out_packet in outcomes:
                self.env.process(
                    self._deliver_after(dst, out_packet, prop + extra_delay))
            yield self.env.timeout(serialization)

    def _deliver_after(self, dst: LinkEndpoint, packet: Packet,
                       delay: int) -> Generator:
        yield self.env.timeout(delay)
        dst._deliver(packet)
