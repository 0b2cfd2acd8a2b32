"""The MCP — the NIC control program's send, inject and receive engines.

"In BCL, MCP controls all the inter-node packet transfers.  MCP
completes a sending operation by reading send request in the card's
local memory, sending/receiving message with DMA engines and informing
user process the completion."  (paper section 4.1)

Three engines per NIC, each a simulation process:

* **send engine** — drains the send-request ring; per fragment it
  charges the reliable-protocol send processing, resolves the buffer
  segments (already physical for semi-user/kernel-level; via the NIC
  TLB for the user-level baseline), gathers the payload into a staging
  buffer by host DMA, stamps a go-back-N sequence number and hands the
  packet to the inject engine;
* **inject engine** — serialises packets onto the wire: engine start
  cost + wire serialization + inter-packet gap; runs completion
  callbacks (staging release, send-completion event) after injection;
* **recv engine** — classifies arriving packets (ack / data / RMA),
  enforces the go-back-N sequence discipline, scatters accepted
  payloads into the destination buffer by host DMA and delivers
  completion events straight into user space (or raises an interrupt,
  for the kernel-level baseline port mode).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.firmware.descriptors import BclEvent, EventKind, SendRequest
from repro.config import CostModel
from repro.firmware.packet import (
    ChannelKind,
    Packet,
    PacketType,
    fragment_offsets,
)
from repro.firmware.collectives import NicCollectives
from repro.firmware.reliability import (
    GoBackNReceiver,
    GoBackNSender,
    retx_amplification,
)
from repro.firmware.tlb import NicTlb
from repro.hw.nic import LandingZone, Nic, NicPortState
from repro.sim import Environment, Resource, Store, Tracer

__all__ = ["Mcp", "slice_segments"]

#: packet types that carry a reliability sequence number
SEQUENCED = (PacketType.DATA, PacketType.RMA_READ_REQ,
             PacketType.RMA_READ_RESP, PacketType.COLL_UP,
             PacketType.COLL_DOWN)


def slice_segments(segments: list[tuple[int, int]], offset: int,
                   length: int) -> list[tuple[int, int]]:
    """Sub-range [offset, offset+length) of a physical scatter list."""
    if length == 0:
        return []
    out: list[tuple[int, int]] = []
    pos = 0
    remaining = length
    for paddr, seg_len in segments:
        if remaining <= 0:
            break
        seg_end = pos + seg_len
        if seg_end <= offset:
            pos = seg_end
            continue
        skip = max(0, offset - pos)
        take = min(seg_len - skip, remaining)
        out.append((paddr + skip, take))
        remaining -= take
        pos = seg_end
    if remaining:
        raise ValueError(
            f"segments cover only {length - remaining} of {length} bytes "
            f"at offset {offset}")
    return out


class Mcp:
    """Firmware engines for one NIC."""

    def __init__(self, env: Environment, cfg: CostModel, nic: Nic,
                 tracer: Optional[Tracer] = None,
                 reliable: bool = True):
        self.env = env
        self.cfg = cfg
        self.nic = nic
        self.tracer = tracer
        #: BIP-style operation when False: no sequence/ack/retransmit
        self.reliable = reliable
        self.name = f"{nic.name}.mcp"
        self.tx_wire: Store = Store(env)  # (Packet, [callbacks]) to inject
        self._staging = Resource(env, capacity=cfg.staging_buffers)
        self._senders: dict[int, GoBackNSender] = {}
        self._receivers: dict[int, GoBackNReceiver] = {}
        self.tlb = NicTlb(env, cfg, f"{self.name}.tlb", tracer)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.unroutable = 0
        #: notified with each lazily-created GoBackNSender (recovery
        #: metrics hook; see repro.instrument.recovery)
        self.on_new_sender: Optional[Callable[[GoBackNSender], None]] = None
        #: system-channel pool buffers claimed by in-flight messages
        self._inflight_pool: dict[int, object] = {}
        #: optional repro.audit.Auditor (registered on the environment
        #: before cluster construction); flows self-register with it
        self.audit = getattr(env, "_audit", None)
        #: NIC-offloaded collective engine (inert until a job registers
        #: a fan-in/fan-out tree group on it)
        self.coll = NicCollectives(self)
        nic.attach_mcp(self)
        env.process(self._send_engine())
        env.process(self._inject_engine())
        env.process(self._recv_engine())

    # ------------------------------------------------------------ helpers
    def _proc(self, cost_ns: int, stage: str,
              message_id: Optional[int] = None) -> Generator:
        """Charge LANai processing time (not scaled by host CPU MHz);
        ``cost_ns`` is a ``cfg.ns`` value."""
        env = self.env
        start = env.now
        yield env.timeout(cost_ns)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(start, env.now, "mcp", stage, self.name,
                          message_id)

    def register_metrics(self, registry) -> None:
        """Expose this NIC's firmware tallies to a telemetry registry:
        message counts plus the go-back-N recovery counters, each
        summed over the NIC's sender or receiver flows when read."""
        nic = str(self.nic.node_id)
        senders = self._senders.values
        receivers = self._receivers.values
        for name, attr in (("repro_mcp_messages_sent_total",
                            "messages_sent"),
                           ("repro_mcp_messages_delivered_total",
                            "messages_delivered"),
                           ("repro_mcp_unroutable_total", "unroutable")):
            registry.register_callback(
                name, lambda a=attr: getattr(self, a),
                kind="counter", nic=nic)
        for name, attr in (("repro_wire_data_packets_total", "next_seq"),
                           ("repro_retransmissions_total", "retransmissions"),
                           ("repro_fast_retransmits_total",
                            "fast_retransmits"),
                           ("repro_retransmit_timeouts_total", "timeouts")):
            registry.register_callback(
                name, lambda a=attr: sum(getattr(s, a) for s in senders()),
                kind="counter", nic=nic)
        for reason, attr in (("duplicate", "duplicates"),
                             ("out_of_order", "out_of_order_drops"),
                             ("corrupt", "corrupt_drops")):
            registry.register_callback(
                "repro_recv_drops_total",
                lambda a=attr: sum(getattr(r, a) for r in receivers()),
                "receive-discipline discards by reason",
                kind="counter", reason=reason, nic=nic)
        registry.register_callback(
            "repro_retx_amplification",
            lambda: retx_amplification(
                sum(s.next_seq for s in senders()),
                sum(s.retransmissions for s in senders())),
            "wire DATA packets per unique DATA packet (1.0 = loss-free)",
            kind="gauge", nic=nic)
        self.coll.register_metrics(registry)

    def sender_flow(self, dst_nic: int) -> GoBackNSender:
        if dst_nic not in self._senders:
            sender = GoBackNSender(
                self.env, self.cfg,
                retransmit=lambda pkt: self.tx_wire.try_put((pkt, [])),
                name=f"{self.name}.flow{dst_nic}",
                flow=(self.nic.node_id, dst_nic))
            self._senders[dst_nic] = sender
            if self.audit is not None:
                self.audit.register_sender(self, sender)
            if self.on_new_sender is not None:
                self.on_new_sender(sender)
        return self._senders[dst_nic]

    def receiver_flow(self, src_nic: int) -> GoBackNReceiver:
        if src_nic not in self._receivers:
            receiver = GoBackNReceiver(
                f"{self.name}.from{src_nic}",
                rearm_ns=self.cfg.ns.retransmit_timeout)
            self._receivers[src_nic] = receiver
            if self.audit is not None:
                self.audit.register_receiver(self, src_nic, receiver)
        return self._receivers[src_nic]

    def _resolve(self, pid: int, vaddr: int, length: int,
                 message_id: Optional[int]) -> Generator:
        """NIC-side translation (user-level baseline): TLB per page."""
        if length == 0:
            return []
        page = self.cfg.page_size
        segs: list[tuple[int, int]] = []
        cursor = vaddr
        remaining = length
        while remaining > 0:
            vpage = cursor // page
            frame = yield from self.tlb.lookup(pid, vpage,
                                               self.nic.fetch_translation,
                                               message_id)
            offset = cursor % page
            take = min(page - offset, remaining)
            paddr = frame * page + offset
            if segs and segs[-1][0] + segs[-1][1] == paddr:
                segs[-1] = (segs[-1][0], segs[-1][1] + take)
            else:
                segs.append((paddr, take))
            cursor += take
            remaining -= take
        return segs

    # -------------------------------------------------------- send engine
    def _send_engine(self) -> Generator:
        while True:
            request: SendRequest = yield self.nic.send_ring.get()
            # "MCP completes a sending operation by reading send request
            # in the card's local memory" — the descriptor fetch.
            yield from self._proc(self.cfg.ns.mcp_fetch_request,
                                  "mcp_fetch_request", request.message_id)
            yield from self._execute_send(request)

    def _execute_send(self, request: SendRequest) -> Generator:
        cfg = self.cfg
        if request.dst_node == self.nic.node_id:
            raise ValueError(
                f"{self.name}: request {request.message_id} targets its "
                "own node; intra-node traffic uses the shared-memory path")
        try:
            route = self.nic.network.route(self.nic.node_id, request.dst_node)
        except ValueError:
            self.unroutable += 1
            self._complete_send(request, status="unroutable")
            return

        if request.is_rma_read_request:
            # Control packet only; the data flows back as RMA_READ_RESP.
            yield from self._proc(cfg.ns.mcp_send_proc,
                                  "mcp_send_processing", request.message_id)
            packet = Packet(
                ptype=PacketType.RMA_READ_REQ,
                src_nic=self.nic.node_id, dst_nic=request.dst_node,
                route=route, message_id=request.message_id,
                src_port=request.src_port, dst_port=request.dst_port,
                channel_kind=request.channel_kind,
                channel_index=request.channel_index,
                rma_offset=request.rma_offset,
                rma_length=request.rma_read_length,
                rma_token=request.rma_token,
                total_length=0)
            yield from self._ship(packet, request.dst_node, [])
            self.messages_sent += 1
            return

        if self.nic.translation_mode == "virtual":
            # Per-message protection/context validation on the NIC (the
            # check BCL moves into the kernel), then per-page TLB work.
            yield from self._proc(cfg.ns.ul_context_check, "nic_context_check",
                                  request.message_id)
            segments = yield from self._resolve(
                request.src_pid, request.src_vaddr, request.total_length,
                request.message_id)
        else:
            segments = request.segments

        offsets = fragment_offsets(request.total_length, cfg.mtu)
        last_index = len(offsets) - 1
        for index, offset in enumerate(offsets):
            frag_len = min(cfg.mtu, request.total_length - offset)
            yield from self._proc(cfg.ns.mcp_send_proc, "mcp_send_processing",
                                  request.message_id)
            callbacks: list[Callable[[], None]] = []
            if frag_len:
                staging = self._staging.request()
                yield staging
                yield from self._gather_with_cut_through(
                    frag_len, request.message_id)
                frag_segs = slice_segments(segments, offset, frag_len)
                payload = self.nic.host_memory.read_gather(frag_segs)
                callbacks.append(lambda s=staging: self._staging.release(s))
            else:
                payload = b""
            packet = Packet(
                ptype=PacketType.DATA,
                src_nic=self.nic.node_id, dst_nic=request.dst_node,
                route=route, message_id=request.message_id,
                src_port=request.src_port, dst_port=request.dst_port,
                channel_kind=request.channel_kind,
                channel_index=request.channel_index,
                offset=offset, total_length=request.total_length,
                payload=payload,
                rma_offset=request.rma_offset + offset,
                rma_token=request.rma_token)
            if index == last_index:
                callbacks.append(lambda: self._complete_send(request))
            yield from self._ship(packet, request.dst_node, callbacks)
        self.messages_sent += 1

    def _ship(self, packet: Packet, dst_node: int,
              callbacks: list[Callable[[], None]]) -> Generator:
        """Register with reliability (if on) and queue for injection."""
        if self.reliable and packet.ptype in SEQUENCED:
            flow = self.sender_flow(dst_node)
            yield from flow.wait_for_window()
            packet = flow.register(packet)
        yield self.tx_wire.put((packet, callbacks))

    def _complete_send(self, request: SendRequest, status: str = "ok") -> None:
        """DMA a send-completion event into the sender's event queue."""
        port = self.nic.ports.get(request.src_port)
        if port is None:
            return  # port torn down mid-send
        event = BclEvent(kind=EventKind.SEND_DONE,
                         message_id=request.message_id,
                         length=request.total_length,
                         channel_kind=request.channel_kind,
                         channel_index=request.channel_index,
                         status=status, timestamp_ns=self.env.now)
        self.env.process(self._deliver_event(port, port.send_queue, event))

    # ------------------------------------------------------ inject engine
    def _inject_engine(self) -> Generator:
        env = self.env
        cfg = self.cfg
        gap = cfg.ns.wire_gap
        inject = cfg.ns.wire_inject
        header = cfg.wire_header_bytes
        per_byte = cfg.wire_ns_per_byte
        while True:
            # An idle engine holds no packet (nor its callbacks) while
            # it waits for the next one.
            packet = callbacks = None
            packet, callbacks = yield self.tx_wire.get()
            start = env.now
            serialization = round(packet.wire_bytes(header) * per_byte)
            yield env.timeout(inject + serialization)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.record(start, env.now, "wire", "wire_inject",
                              self.name, packet.message_id,
                              nbytes=len(packet.payload))
            yield self.nic.endpoint.send(packet)
            for callback in callbacks:
                callback()
            yield self.env.timeout(gap)

    # -------------------------------------------------------- recv engine
    def _recv_engine(self) -> Generator:
        cfg = self.cfg
        while True:
            packet = None  # an idle engine holds no packet
            packet: Packet = yield self.nic.rx_packets.get()
            if packet.ptype is PacketType.ACK:
                yield from self._proc(cfg.ns.mcp_ack_proc, "mcp_ack_processing",
                                      packet.message_id)
                if packet.src_nic in self._senders:
                    self._senders[packet.src_nic].on_ack(packet.ack_seq)
                continue
            if packet.ptype is PacketType.NACK:
                yield from self._proc(cfg.ns.mcp_ack_proc,
                                      "mcp_nack_processing",
                                      packet.message_id)
                if packet.src_nic in self._senders:
                    self._senders[packet.src_nic].on_nack(packet.ack_seq)
                continue
            if packet.ptype not in SEQUENCED:
                continue
            yield from self._proc(cfg.ns.mcp_recv_proc, "mcp_recv_processing",
                                  packet.message_id)
            if self.reliable:
                flow = self.receiver_flow(packet.src_nic)
                deliver, ack_seq = flow.accept(packet)
                self._send_ack(packet.src_nic, ack_seq)
                if cfg.nack_enabled and flow.should_nack(self.env.now):
                    self._send_ack(packet.src_nic, ack_seq,
                                   ptype=PacketType.NACK)
            else:
                deliver = packet.crc_ok()
            if deliver:
                yield from self._dispatch(packet)

    def _send_ack(self, dst_nic: int, ack_seq: int,
                  ptype: PacketType = PacketType.ACK) -> None:
        try:
            route = self.nic.network.route(self.nic.node_id, dst_nic)
        except ValueError:
            return
        ack = Packet(ptype=ptype, src_nic=self.nic.node_id,
                     dst_nic=dst_nic, route=route, ack_seq=ack_seq)
        self.tx_wire.try_put((ack, []))

    # ---------------------------------------------------------- dispatch
    def _dispatch(self, packet: Packet) -> Generator:
        if packet.ptype in (PacketType.COLL_UP, PacketType.COLL_DOWN):
            # NIC-offloaded collectives: consumed entirely in firmware,
            # no BCL port involved.
            yield from self.coll.on_packet(packet)
            return
        port = self.nic.ports.get(packet.dst_port)
        if packet.ptype is PacketType.RMA_READ_RESP:
            yield from self._land_rma_read(packet)
            return
        if port is None:
            return  # stale packet for a closed port: drop silently
        if packet.ptype is PacketType.RMA_READ_REQ:
            yield from self._serve_rma_read(port, packet)
            return
        kind = packet.channel_kind
        if kind is ChannelKind.SYSTEM:
            yield from self._recv_system(port, packet)
        elif kind is ChannelKind.NORMAL:
            yield from self._recv_normal(port, packet)
        elif kind is ChannelKind.OPEN:
            yield from self._recv_rma_write(port, packet)

    def _recv_system(self, port: NicPortState, packet: Packet) -> Generator:
        """System channel: first free pool buffer, drop when exhausted."""
        if packet.offset == 0:
            if not port.system_pool_free or \
                    packet.total_length > next(iter(port.system_pool_free)).size:
                port.system_dropped += 1
                port.reassembly.pop(packet.message_id, None)
                return
            buf = port.system_pool_free.popleft()
            port.reassembly[packet.message_id] = 0
            self._inflight_pool[packet.message_id] = buf
        else:
            buf = self._inflight_pool.get(packet.message_id)
            if buf is None:
                return  # head was dropped; drop the tail too
        yield from self._scatter_payload(
            slice_segments(buf.segments, packet.offset, len(packet.payload)),
            packet)
        done, status = self._track_reassembly(port, packet)
        if done:
            self._inflight_pool.pop(packet.message_id, None)
            event = BclEvent(kind=EventKind.RECV_DONE,
                             message_id=packet.message_id,
                             length=packet.total_length,
                             channel_kind=ChannelKind.SYSTEM,
                             src_node=packet.src_nic,
                             src_port=packet.src_port,
                             pool_buffer_index=buf.index,
                             status=status,
                             timestamp_ns=self.env.now)
            yield from self._deliver_event(port, port.recv_queue, event)

    def _recv_normal(self, port: NicPortState, packet: Packet) -> Generator:
        """Normal channel: rendezvous — a descriptor must be posted."""
        descriptor = port.normal.get(packet.channel_index)
        if descriptor is None:
            # Paper: "The receiving channel should be ready before the
            # message arrived" — an unready channel drops the data.
            port.unready_drops += 1
            return
        if packet.offset + len(packet.payload) > descriptor.capacity:
            port.unready_drops += 1
            return
        segments = yield from self._descriptor_segments(
            port, descriptor, packet)
        yield from self._scatter_payload(segments, packet)
        done, status = self._track_reassembly(port, packet)
        if done:
            port.normal[packet.channel_index] = None  # consumed
            event = BclEvent(kind=EventKind.RECV_DONE,
                             message_id=packet.message_id,
                             length=packet.total_length,
                             channel_kind=ChannelKind.NORMAL,
                             channel_index=packet.channel_index,
                             src_node=packet.src_nic,
                             src_port=packet.src_port,
                             status=status,
                             timestamp_ns=self.env.now)
            yield from self._deliver_event(port, port.recv_queue, event)

    def _descriptor_segments(self, port: NicPortState, descriptor,
                             packet: Packet) -> Generator:
        """Fragment-target segments, translating on the NIC if needed."""
        if self.nic.translation_mode == "virtual" and not descriptor.segments:
            segs = yield from self._resolve(
                port.owner_pid, descriptor.vaddr + packet.offset,
                len(packet.payload), packet.message_id)
            return segs
        return slice_segments(descriptor.segments, packet.offset,
                              len(packet.payload))

    def _recv_rma_write(self, port: NicPortState, packet: Packet) -> Generator:
        """Open channel: remote write into the bound buffer."""
        bound = port.open_channels.get(packet.channel_index)
        if bound is None or not bound.writable:
            port.unready_drops += 1
            return
        end = packet.rma_offset + len(packet.payload)
        if end > bound.capacity:
            port.unready_drops += 1
            return
        segments = slice_segments(bound.segments, packet.rma_offset,
                                  len(packet.payload))
        yield from self._scatter_payload(segments, packet)
        done, status = self._track_reassembly(port, packet)
        if done:
            event = BclEvent(kind=EventKind.RMA_WRITE_DONE,
                             message_id=packet.message_id,
                             length=packet.total_length,
                             channel_kind=ChannelKind.OPEN,
                             channel_index=packet.channel_index,
                             src_node=packet.src_nic,
                             status=status,
                             timestamp_ns=self.env.now)
            yield from self._deliver_event(port, port.recv_queue, event)

    def _serve_rma_read(self, port: NicPortState, packet: Packet) -> Generator:
        """Target side of an RMA read: stream the bound region back."""
        bound = port.open_channels.get(packet.channel_index)
        if bound is None or not bound.readable or \
                packet.rma_offset + packet.rma_length > bound.capacity:
            # Refused: answer with an empty response so the requester's
            # landing zone completes as a short read instead of hanging.
            yield from self._proc(self.cfg.ns.mcp_send_proc,
                                  "mcp_send_processing", packet.message_id)
            refusal = Packet(
                ptype=PacketType.RMA_READ_RESP,
                src_nic=self.nic.node_id, dst_nic=packet.src_nic,
                route=self.nic.network.route(self.nic.node_id,
                                             packet.src_nic),
                message_id=packet.message_id, dst_port=packet.src_port,
                offset=0, total_length=0, payload=b"",
                rma_token=packet.rma_token)
            yield from self._ship(refusal, packet.src_nic, [])
            return
        segments = slice_segments(bound.segments, packet.rma_offset,
                                  packet.rma_length)
        route = self.nic.network.route(self.nic.node_id, packet.src_nic)
        total = packet.rma_length
        for offset in fragment_offsets(total, self.cfg.mtu):
            frag_len = min(self.cfg.mtu, total - offset)
            yield from self._proc(self.cfg.ns.mcp_send_proc,
                                  "mcp_send_processing", packet.message_id)
            if frag_len:
                yield from self._gather_with_cut_through(
                    frag_len, packet.message_id)
                payload = self.nic.host_memory.read_gather(
                    slice_segments(segments, offset, frag_len))
            else:
                payload = b""
            response = Packet(
                ptype=PacketType.RMA_READ_RESP,
                src_nic=self.nic.node_id, dst_nic=packet.src_nic,
                route=route, message_id=packet.message_id,
                dst_port=packet.src_port,
                offset=offset, total_length=total, payload=payload,
                rma_token=packet.rma_token)
            yield from self._ship(response, packet.src_nic, [])

    def _land_rma_read(self, packet: Packet) -> Generator:
        """Requester side: scatter an RMA read response into the landing
        zone and complete the read when all bytes arrived."""
        zone: Optional[LandingZone] = None
        owner: Optional[NicPortState] = None
        for port in self.nic.ports.values():
            if packet.rma_token in port.landing:
                owner = port
                zone = port.landing[packet.rma_token]
                break
        if zone is None:
            return  # token cancelled
        segments = slice_segments(zone.segments, packet.offset,
                                  len(packet.payload))
        yield from self._scatter_payload(segments, packet)
        zone.received += len(packet.payload)
        if packet.is_last_fragment:
            if zone.received != zone.length:
                status = "short_read"
            else:
                status = "ok"
            owner.landing.pop(packet.rma_token, None)
            event = BclEvent(kind=EventKind.RMA_READ_DONE,
                             message_id=zone.message_id,
                             length=zone.length,
                             channel_kind=ChannelKind.OPEN,
                             src_node=packet.src_nic,
                             status=status, timestamp_ns=self.env.now)
            yield from self._deliver_event(owner, owner.recv_queue, event)

    # ----------------------------------------------------------- plumbing
    def _gather_with_cut_through(self, frag_len: int,
                                 message_id: Optional[int]) -> Generator:
        """Host->NIC DMA of a fragment, releasing the injector early.

        Cut-through: injection may begin once the first pipeline chunk
        is staged; the rest of the DMA proceeds in the background (still
        occupying the bus) while the wire — always slower than the PCI
        burst rate — drains the staging buffer.
        """
        head = min(frag_len, self.cfg.pipeline_chunk_bytes)
        yield from self.nic.pci.dma(head, stage="dma_host_to_nic",
                                    message_id=message_id)
        tail = frag_len - head
        if tail > 0:
            self.env.process(
                self.nic.pci.dma(tail, stage="dma_host_to_nic_tail",
                                 message_id=message_id, setup=False))

    def _scatter_payload(self, segments: list[tuple[int, int]],
                         packet: Packet) -> Generator:
        """NIC->host DMA of an arriving fragment.

        The scatter DMA overlaps packet reception (the fragment arrived
        over a ~26 us serialization window during which the DMA engine
        was already draining it), so only the engine setup plus the
        trailing pipeline chunk remains on the critical path here.
        """
        if not packet.payload:
            return
        remainder = min(len(packet.payload), self.cfg.pipeline_chunk_bytes)
        yield from self.nic.pci.dma(remainder, stage="dma_nic_to_host",
                                    message_id=packet.message_id)
        self.nic.host_memory.write_scatter(segments, packet.payload)

    def _track_reassembly(self, port: NicPortState,
                          packet: Packet) -> tuple[bool, str]:
        """Returns (message_complete, status).

        With the reliable protocol on, fragments arrive in order and
        complete exactly at the last one.  In unreliable (BIP-style)
        mode a dropped middle fragment still lets the last one arrive:
        the message "completes" with a hole, flagged as ``torn``.
        """
        seen = port.reassembly.get(packet.message_id, 0) + len(packet.payload)
        if packet.is_last_fragment:
            port.reassembly.pop(packet.message_id, None)
            self.messages_delivered += 1
            status = "ok" if seen >= packet.total_length else "torn"
            return True, status
        port.reassembly[packet.message_id] = seen
        return False, "ok"

    def _deliver_event(self, port: NicPortState, queue,
                       event: BclEvent) -> Generator:
        """Completion notification: event DMA + queue push, or interrupt."""
        if port.notify_mode == "interrupt":
            if port.interrupt_callback is not None and \
                    self.nic.interrupt_controller is not None:
                self.nic.interrupt_controller.raise_irq(
                    port.interrupt_callback, event)
            return
        yield from self.nic.pci.dma(self.cfg.event_record_bytes,
                                    stage="dma_completion_event",
                                    message_id=event.message_id)
        queue.push(event)
