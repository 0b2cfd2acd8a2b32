"""Cut-through crossbar switch (Myrinet M2M-OCT-SW8 class).

Source routing: every arriving packet's route head names the output
port; the switch strips it and forwards after the cut-through
fall-through latency.  Each input port runs its own forwarding process,
so distinct input->output pairs proceed in parallel like a crossbar;
two inputs targeting the same output contend on that output link's
serialization window (handled by :class:`~repro.hw.link.Link`).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config import CostModel
from repro.firmware.packet import Packet
from repro.hw.link import LinkEndpoint
from repro.sim import Environment, Store, us

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
        for port in range(n_ports):
            env.process(self._forwarder(port), name=f"{name}.port{port}")

    def connect(self, port: int, endpoint: LinkEndpoint) -> None:
        """Attach a link endpoint to ``port``."""
        if not 0 <= port < self.n_ports:
            raise ValueError(f"{self.name} has no port {port}")
        if self._endpoints[port] is not None:
            raise RuntimeError(f"{self.name} port {port} already connected")
        self._endpoints[port] = endpoint
        inbox = self._inboxes[port]
        endpoint.attach(lambda _ep, pkt, _inbox=inbox: _inbox.try_put(pkt))

    def _forwarder(self, port: int) -> Generator:
        inbox = self._inboxes[port]
        latency = us(self.cfg.switch_latency_us)
        while True:
            # Let go of the last packet before blocking: an idle port
            # must not keep it alive until the next one arrives.
            packet = forwarded = None
            packet: Packet = yield inbox.get()
            yield self.env.sleep(latency)
            try:
                out_port, forwarded = packet.hop()
            except ValueError:
                self.route_errors += 1
                continue
            endpoint = self._endpoints[out_port] \
                if 0 <= out_port < self.n_ports else None
            if endpoint is None:
                # Route names a dead port: the packet is lost in the
                # fabric; the reliability layer will retransmit.
                self.route_errors += 1
                continue
            yield endpoint.send(forwarded)
            self.packets_forwarded += 1
