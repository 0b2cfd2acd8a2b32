"""The network interface card.

A :class:`Nic` bundles the LANai-class firmware processor (the MCP
engines from :mod:`repro.firmware.mcp`), its local SRAM (modelled as a
bounded number of staging buffers plus a bounded send-request ring),
the wire port, and the per-port receive-side tables (system-channel
buffer pools, posted normal-channel descriptors, open-channel bindings,
RMA landing tokens).

Depending on the architecture under test, the card's tables are filled
from kernel space over PIO (semi-user-level BCL, kernel-level baseline)
or directly from user space (user-level baseline); the card itself is
the same hardware either way, which is exactly the paper's experimental
setting — all three architectures ran on the same Myrinet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.firmware.descriptors import (
    BoundBuffer,
    PoolBuffer,
    RecvDescriptor,
    SendRequest,
)
from repro.config import CostModel
from repro.firmware.packet import ChannelKind
from repro.hw.link import LinkEndpoint
from repro.hw.pci import PciBus
from repro.sim import Environment, Store, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bcl.events import CompletionQueue
    from repro.hw.network import Network
    from repro.kernel.vm import AddressSpace

__all__ = ["Nic", "NicPortState", "LandingZone", "PoolFreeList"]

_landing_tokens = itertools.count(1)


@dataclass
class LandingZone:
    """Destination of an outstanding RMA read, kept on the *requester's* NIC."""

    token: int
    segments: list[tuple[int, int]]
    length: int
    port: int
    message_id: int
    received: int = 0


class PoolFreeList:
    """FIFO of a system channel's free pool buffers.

    A list of buffers plus the set of their indices, so asking whether
    a buffer is free (the double-return check) is O(1).  Buffers enter
    only through :meth:`append` and leave only through :meth:`popleft`,
    which keep the two in step.
    """

    __slots__ = ("_bufs", "_indices")

    def __init__(self) -> None:
        self._bufs: list[PoolBuffer] = []
        self._indices: set[int] = set()

    def append(self, buf: PoolBuffer) -> None:
        self._bufs.append(buf)
        self._indices.add(buf.index)

    def popleft(self) -> PoolBuffer:
        buf = self._bufs.pop(0)
        self._indices.discard(buf.index)
        return buf

    def __contains__(self, buf: PoolBuffer) -> bool:
        return buf.index in self._indices

    def __len__(self) -> int:
        return len(self._bufs)

    def __iter__(self) -> Iterator[PoolBuffer]:
        return iter(self._bufs)

    def __getitem__(self, position: int) -> PoolBuffer:
        return self._bufs[position]


@dataclass
class NicPortState:
    """Receive-side state the NIC keeps for one BCL port."""

    port_id: int
    owner_pid: int
    #: completion queues in the owner's user space
    recv_queue: "CompletionQueue"
    send_queue: "CompletionQueue"
    #: system channel: FIFO pool of pre-pinned small-message buffers
    system_pool_free: PoolFreeList = field(default_factory=PoolFreeList)
    system_pool_all: dict[int, PoolBuffer] = field(default_factory=dict)
    system_dropped: int = 0
    #: normal channels: posted rendezvous receive descriptors
    normal: dict[int, Optional[RecvDescriptor]] = field(default_factory=dict)
    unready_drops: int = 0
    #: open channels: RMA-able bound buffers
    open_channels: dict[int, BoundBuffer] = field(default_factory=dict)
    #: outstanding RMA-read landing zones, by token
    landing: dict[int, LandingZone] = field(default_factory=dict)
    #: "interrupt" for the kernel-level baseline, "event" for BCL-style
    notify_mode: str = "event"
    #: kernel-level baseline: callback run inside the recv interrupt
    interrupt_callback: Optional[Callable[[object], None]] = None
    #: reassembly cursor per in-flight message (message_id -> bytes seen)
    reassembly: dict[int, int] = field(default_factory=dict)

    def return_pool_buffer(self, index: int) -> None:
        """Recycle a system-channel buffer after the receiver consumed it."""
        buf = self.system_pool_all.get(index)
        if buf is None:
            raise KeyError(f"port {self.port_id}: unknown pool buffer {index}")
        if buf in self.system_pool_free:
            raise ValueError(
                f"port {self.port_id}: pool buffer {index} double-returned")
        self.system_pool_free.append(buf)


class Nic:
    """One node's network interface card."""

    def __init__(self, env: Environment, cfg: CostModel, node_id: int,
                 pci: PciBus, tracer: Optional[Tracer] = None,
                 translation_mode: str = "physical"):
        if translation_mode not in ("physical", "virtual"):
            raise ValueError(f"unknown translation mode {translation_mode!r}")
        self.env = env
        self.cfg = cfg
        self.node_id = node_id
        self.name = f"node{node_id}.nic"
        self.pci = pci
        self.tracer = tracer
        #: "physical": descriptors carry pre-translated segments (BCL,
        #: kernel-level).  "virtual": descriptors carry (pid, vaddr) and
        #: the NIC translates through its TLB (user-level baseline).
        self.translation_mode = translation_mode
        self.send_ring: Store = Store(env, capacity=cfg.send_ring_entries)
        self.rx_packets: Store = Store(env)
        self.ports: dict[int, NicPortState] = {}
        #: page tables the NIC may walk on a TLB miss (user-level mode)
        self.spaces: dict[int, "AddressSpace"] = {}
        self.endpoint: Optional[LinkEndpoint] = None
        self.network: Optional["Network"] = None
        self.mcp = None          # set by attach_mcp
        self.interrupt_controller = None  # set by the Node
        self.host_memory = None  # set by the Node

    # ------------------------------------------------------------ wiring
    def attach_network(self, network: "Network") -> None:
        self.network = network
        self.endpoint = network.nic_endpoints[self.node_id]
        self.endpoint.attach(self._on_packet)

    def attach_mcp(self, mcp) -> None:
        if self.mcp is not None:
            raise RuntimeError(f"{self.name} already has an MCP")
        self.mcp = mcp

    def _on_packet(self, _endpoint: LinkEndpoint, packet) -> None:
        self.rx_packets.try_put(packet)

    # ----------------------------------------------------------- control
    def create_port(self, state: NicPortState) -> None:
        if state.port_id in self.ports:
            raise ValueError(f"{self.name}: port {state.port_id} exists")
        self.ports[state.port_id] = state

    def destroy_port(self, port_id: int) -> NicPortState:
        try:
            return self.ports.pop(port_id)
        except KeyError:
            raise ValueError(f"{self.name}: no port {port_id}") from None

    def port_state(self, port_id: int) -> NicPortState:
        try:
            return self.ports[port_id]
        except KeyError:
            raise ValueError(f"{self.name}: no port {port_id}") from None

    def register_space(self, pid: int, space: "AddressSpace") -> None:
        self.spaces[pid] = space

    def fetch_translation(self, pid: int, vpage: int) -> int:
        """Page-table walk performed by the NIC on a TLB miss."""
        try:
            space = self.spaces[pid]
        except KeyError:
            raise ValueError(f"{self.name}: unknown pid {pid}") from None
        return space.frame_of(vpage)

    def post_send(self, request: SendRequest):
        """Enqueue a send request; blocks (backpressure) when the ring
        is full.  Returns the store-put event."""
        return self.send_ring.put(request)

    @property
    def ring_occupancy(self) -> int:
        return len(self.send_ring)

    def register_metrics(self, registry) -> None:
        """Expose this card's table state to a telemetry registry."""
        nic = str(self.node_id)
        registry.register_callback(
            "repro_nic_open_ports", lambda: len(self.ports),
            "BCL ports currently open on the card", kind="gauge", nic=nic)
        registry.register_callback(
            "repro_nic_send_ring_occupancy", lambda: self.ring_occupancy,
            "send requests queued in the card's SRQ ring",
            kind="gauge", nic=nic)
        registry.register_callback(
            "repro_nic_unready_drops_total",
            lambda: sum(p.unready_drops for p in self.ports.values()),
            "arrivals dropped because no receive channel was ready",
            kind="counter", nic=nic)
        registry.register_callback(
            "repro_nic_system_pool_drops_total",
            lambda: sum(p.system_dropped for p in self.ports.values()),
            "system-channel arrivals dropped for lack of a pool buffer",
            kind="counter", nic=nic)
