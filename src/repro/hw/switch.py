"""Cut-through crossbar switch (Myrinet M2M-OCT-SW8 class).

Source routing: every arriving packet's route head names the output
port; the switch strips it and forwards after the cut-through
fall-through latency.  Each input port has its own forwarding stage,
so distinct input->output pairs proceed in parallel like a crossbar;
two inputs targeting the same output contend on that output link's
serialization window (handled by :class:`~repro.hw.link.Link`).
"""

from __future__ import annotations

from typing import Optional

from repro.config import CostModel
from repro.firmware.packet import Packet
from repro.hw.link import LinkEndpoint
from repro.sim import Environment, Store
from repro.sim.core import Event, _ready

__all__ = ["Switch"]


class Switch:
    """An ``n_ports``-port source-routed cut-through switch."""

    def __init__(self, env: Environment, cfg: CostModel, name: str,
                 n_ports: int = 8):
        if n_ports < 2:
            raise ValueError(f"a switch needs >= 2 ports, got {n_ports}")
        self.env = env
        self.cfg = cfg
        self.name = name
        self.n_ports = n_ports
        self._endpoints: list[Optional[LinkEndpoint]] = [None] * n_ports
        self._inboxes: list[Store] = [Store(env) for _ in range(n_ports)]
        self.packets_forwarded = 0
        self.route_errors = 0
        latency = cfg.ns.switch_latency
        for inbox in self._inboxes:
            _Forwarder(self, inbox, latency)

    def connect(self, port: int, endpoint: LinkEndpoint) -> None:
        """Attach a link endpoint to ``port``."""
        if not 0 <= port < self.n_ports:
            raise ValueError(f"{self.name} has no port {port}")
        if self._endpoints[port] is not None:
            raise RuntimeError(f"{self.name} port {port} already connected")
        self._endpoints[port] = endpoint
        endpoint.attach(self._inboxes[port].try_put)


class _Forwarder:
    """One input port's forwarding stage.

    The stage is its own callback on each event it waits on, in turn:
    its inbox ``get``, the fall-through latency timer and, for a packet
    with a live output port, that port's link ``send`` (which blocks
    under backpressure).  It holds a packet only through the latency,
    so an idle port keeps none alive until the next one arrives.
    """

    __slots__ = ("switch", "inbox", "latency", "packet", "sending")

    def __init__(self, switch: Switch, inbox: Store, latency: int):
        self.switch = switch
        self.inbox = inbox
        self.latency = latency
        self.packet: Optional[Packet] = None
        #: waiting for the output link to take a forwarded packet
        self.sending = False
        # Start at the current instant.
        _ready(Event, switch.env)._callbacks = self

    def __call__(self, event: Event) -> None:
        switch = self.switch
        packet = self.packet
        if packet is None:
            packet = event._value
            if packet is not None:
                # A packet arrived: hold it for the fall-through latency.
                self.packet = packet
                switch.env.timeout(self.latency)._callbacks = self
                return
            if self.sending:
                self.sending = False
                switch.packets_forwarded += 1
        else:
            self.packet = None
            try:
                out_port, forwarded = packet.hop()
            except ValueError:
                out_port = -1
            endpoint = switch._endpoints[out_port] \
                if 0 <= out_port < switch.n_ports else None
            if endpoint is not None:
                self.sending = True
                endpoint.send(forwarded)._callbacks = self
                return
            # An empty route or one naming a dead port: the packet is
            # lost in the fabric; the reliability layer will retransmit.
            switch.route_errors += 1
        self.inbox.get()._callbacks = self
