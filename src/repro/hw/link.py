"""Full-duplex network links with cut-through forwarding semantics.

Latency model (faithful to wormhole/cut-through routing): a packet
crossing a link experiences only the propagation delay — serialization
is paid once, at the source NIC's wire-injection engine.  Occupancy
model: each link direction can still only carry one packet's worth of
bytes per serialization window, so the direction's pump holds it for
``wire_bytes / wire_rate`` before accepting the next packet.  That
makes shared links a throughput bottleneck under congestion without
re-charging serialization latency at every hop.

Pump and deliveries are callback stages, not processes: each endpoint
is its own direction's pump, the callback on its inbox ``get`` and on
its window timer, and each delivery is an event that is the callback on
its own start event and propagation timer.  They keep their state in
slots, so an idle direction keeps no suspended generator frame.  Each
waits on the events, in the order, that a process running the same
loop would.

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

from typing import Callable, Optional

from repro.config import CostModel
from repro.firmware.packet import Packet
from repro.sim import Environment, Store
from repro.sim.core import _PENDING, Event, _ready

__all__ = ["Link", "LinkEndpoint"]

#: Packets a direction may buffer before senders block (wormhole slack).
INBOX_CAPACITY = 4


class LinkEndpoint:
    """One end of a link, and the direction that leaves it.

    Owners attach a receive callback.  The endpoint owns its outgoing
    direction's bounded inbox and serialization-window occupancy, and
    is that direction's pump (see :meth:`__call__`).
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
        # Start pumping at the current instant.
        _ready(Event, link.env)._callbacks = self

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

    def __call__(self, event: Event) -> None:
        """Pump the direction leaving this end one step.

        Woken with ``None`` (its start event, or the timer that ends a
        serialization window) it waits for the next packet; an idle
        direction holds no packet while it waits.  Woken with a packet
        (the inbox ``get``) it starts the packet's deliveries after
        propagation and holds the direction for its serialization
        window.
        """
        packet = event._value
        if packet is None:
            self.inbox.get()._callbacks = self
            return
        link = self.link
        env = link.env
        cfg = link.cfg
        serialization = round(packet.wire_bytes(cfg.wire_header_bytes)
                              * cfg.wire_ns_per_byte)
        injector = link.injector
        if injector is None:
            outcomes = ((0, packet),)
        else:
            outcomes = injector.adjudicate(packet)
        # A dropped or corrupted packet crossed the wire before it was
        # lost, so it occupies the serialization window like any other.
        # A duplicate is a single physical crossing adjudicated into two
        # deliveries: it holds exactly one window.
        self.busy_ns += serialization
        if outcomes:
            link.packets_carried += 1
            dst = self.peer
            prop = cfg.ns.link_propagation
            for extra_delay, out_packet in outcomes:
                _Delivery(env, dst, out_packet, prop + extra_delay)
        else:
            link.packets_dropped += 1
        env.timeout(serialization)._callbacks = self


class _Delivery(Event):
    """One packet crossing a link: delivered to ``dst`` after ``delay``.

    The delivery is its own callback, first on a start event queued at
    construction and then on the propagation timer, which carries the
    packet; it succeeds itself once the packet is delivered.  The start
    and completion events do no work.  They stay only because perfbench
    pins event counts exactly: ROADMAP item 3(a) drops both, and makes
    the delivery one timer, with a schedule re-pin.
    """

    __slots__ = ("dst", "packet", "delay")

    def __init__(self, env: Environment, dst: LinkEndpoint, packet: Packet,
                 delay: int):
        self.env = env
        self._callbacks = None
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.dst = dst
        self.packet = packet
        self.delay = delay
        _ready(Event, env)._callbacks = self

    def __call__(self, event: Event) -> None:
        packet = event._value
        if packet is None:
            # Started: the packet rides the propagation timer.
            packet, self.packet = self.packet, None
            self.env.timeout(self.delay, packet)._callbacks = self
        else:
            self.dst._deliver(packet)
            self.succeed()


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
