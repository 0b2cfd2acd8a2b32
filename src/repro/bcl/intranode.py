"""Shared-memory intra-node transport.

"While the memory copy bandwidth is much higher than DMA bandwidth, a
good solution is to use shared memory to implement intra-node
communication. ... BCL reduced the extra overhead by using the pipeline
message passing technique." (paper sections 4.1.2-4.1.3)

The sender copies the message chunk-by-chunk into a kernel-mapped
shared ring (:class:`~repro.kernel.shm.SharedRing`); the receiver —
running on another CPU of the SMP node — copies chunks out as they
appear, so for large messages the two copies overlap and the effective
bandwidth approaches the single-copy memcpy rate (the paper's
391 MB/s).  A 0-byte message is a header-only handoff costing
compose + post on one side and poll + sequence-check on the other
(the paper's 2.7 us).

Ring creation traps once per (sender, receiver) pair; steady-state
transfers never enter the kernel on either side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.firmware.descriptors import BclEvent, EventKind
from repro.firmware.packet import ChannelKind
from repro.kernel.errors import BclSecurityError
from repro.kernel.shm import SharedRing, ShmEntry
from repro.sim import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.bcl.address import BclAddress
    from repro.bcl.api import BclLibrary, BclPort

__all__ = ["IntranodeTransport"]


class IntranodeTransport:
    """Sender-side driver of the shared rings, one per BclLibrary."""

    def __init__(self, lib: "BclLibrary"):
        # Keep only what the transport uses, not the library itself:
        # a back-reference would make every library a reference cycle.
        self.proc = lib.proc
        self.kernel = lib.kernel
        self.module = lib.module
        self.cfg = lib.cfg
        self.env = lib.env
        self._rings: dict[int, SharedRing] = {}  # dst_pid -> outbound ring
        #: serialises concurrent sends from this process to one ring so
        #: message framing (header, then its chunks) stays intact
        self._ring_locks: dict[int, Resource] = {}
        #: system-pool buffers claimed by in-progress inbound messages
        self._claimed_pool: dict[int, object] = {}
        self.messages_sent = 0

    # ------------------------------------------------------------ sending
    def _target_port(self, dest: "BclAddress"):
        node = self.proc.node
        state = node.nic.ports.get(dest.port) if node.nic else None
        if state is None:
            raise BclSecurityError(
                f"no port {dest.port} on local node {dest.node}")
        user_port = node.bcl_ports.get(dest.port)
        if user_port is None:
            raise BclSecurityError(
                f"port {dest.port} has no user-space library attached")
        return state, user_port

    def ring_to(self, dst_pid: int) -> Generator:
        """Outbound ring to a co-resident process (trap on first use)."""
        ring = self._rings.get(dst_pid)
        if ring is None:
            proc = self.proc
            ring = yield from self.kernel.syscall(
                proc, "bcl_shm_setup",
                self.module.create_shm_ring(proc, dst_pid))
            self._rings[dst_pid] = ring
        return ring

    def send(self, port: "BclPort", dest: "BclAddress", vaddr: int,
             nbytes: int, message_id: int, rma_offset: int = 0) -> Generator:
        """Stream one message through the shared ring (trap-free)."""
        proc = self.proc
        state, user_port = self._target_port(dest)
        ring = yield from self.ring_to(state.owner_pid)
        lock = self._ring_locks.setdefault(state.owner_pid,
                                           Resource(self.env))
        with lock.request() as held:
            yield held
            header = ShmEntry(
                seq=ring.next_seq(), message_id=message_id, kind="header",
                total_length=nbytes, src_node=proc.node.node_id,
                src_port=port.port_id, dst_port=dest.port,
                channel_kind=dest.channel_kind,
                channel_index=dest.channel_index, offset=rma_offset)
            yield from proc.cpu.execute(self.cfg.shm_post_us, category="shm",
                                        stage="shm_post",
                                        message_id=message_id)
            ring.push(header)
            user_port._shm_arrived(ring)

            chunk = self.cfg.shm_chunk_bytes
            for offset in range(0, nbytes, chunk):
                length = min(chunk, nbytes - offset)
                slot = yield ring.free_slots.get()
                yield from self._memcpy(proc, length, message_id,
                                        "shm_copy_in")
                ring.write_slot(slot,
                                proc.space.read(vaddr + offset, length))
                ring.push(ShmEntry(seq=ring.next_seq(),
                                   message_id=message_id, kind="chunk",
                                   slot=slot, length=length, offset=offset))
        self.messages_sent += 1
        port.send_queue.push(BclEvent(
            kind=EventKind.SEND_DONE, message_id=message_id, length=nbytes,
            channel_kind=dest.channel_kind,
            channel_index=dest.channel_index, timestamp_ns=self.env.now))

    def _memcpy(self, proc, nbytes: int, message_id: Optional[int],
                stage: str) -> Generator:
        # bytes / (MB/s) yields microseconds directly (1 B / 1 MB/s = 1 us/MB
        # * 1e-6 MB = 1e-6 s ... scaled consistently in decimal units).
        cost = self.cfg.memcpy_setup_us + nbytes / self.cfg.memcpy_mb_s
        yield from proc.cpu.execute(cost, category="copy", stage=stage,
                                    message_id=message_id, scale=False)

    # ----------------------------------------------------------- receiving
    def receive(self, port: "BclPort", ring: SharedRing) -> Generator:
        """Drain one message from an inbound ring (receiver side).

        Called by the port's poll path after :meth:`_shm_arrived`
        signalled a pending header.  Returns the completion event, or
        None when the message had to be dropped (no pool buffer /
        unposted channel), mirroring the inter-node semantics.
        """
        proc = self.proc
        header: ShmEntry = (yield ring.entries.get())
        ring.check_sequence(header)
        if header.kind != "header":
            raise RuntimeError(
                f"shm ring desynchronised: expected header, got {header.kind}")
        yield from proc.cpu.execute(self.cfg.shm_check_us, category="shm",
                                    stage="shm_check",
                                    message_id=header.message_id)
        state = proc.node.nic.ports[port.port_id]
        sink = self._choose_sink(state, header)
        received = 0
        while received < header.total_length:
            entry: ShmEntry = (yield ring.entries.get())
            ring.check_sequence(entry)
            if entry.kind != "chunk" or entry.message_id != header.message_id:
                raise RuntimeError("shm ring desynchronised mid-message")
            data = ring.read_slot(entry.slot, entry.length)
            ring.release_slot(entry.slot)
            if sink is not None:
                yield from self._memcpy(proc, entry.length,
                                        header.message_id, "shm_copy_out")
                proc.space.write(sink + entry.offset, data)
            received += entry.length
        if sink is None:
            return None
        return self._complete(state, header)

    def _choose_sink(self, state, header: ShmEntry) -> Optional[int]:
        """Destination vaddr in the receiver's space, or None to drop."""
        kind = header.channel_kind
        if kind is ChannelKind.SYSTEM:
            if not state.system_pool_free or \
                    header.total_length > state.system_pool_free[0].size:
                state.system_dropped += 1
                return None
            buf = state.system_pool_free.popleft()
            self._claimed_pool[header.message_id] = buf
            return buf.vaddr
        if kind is ChannelKind.NORMAL:
            descriptor = state.normal.get(header.channel_index)
            if descriptor is None or header.total_length > descriptor.capacity:
                state.unready_drops += 1
                return None
            return descriptor.vaddr
        if kind is ChannelKind.OPEN:
            bound = state.open_channels.get(header.channel_index)
            if bound is None or not bound.writable or \
                    header.offset + header.total_length > bound.capacity:
                state.unready_drops += 1
                return None
            return bound.vaddr + header.offset
        raise RuntimeError(f"unknown channel kind {kind}")

    def _complete(self, state, header: ShmEntry) -> BclEvent:
        kind = header.channel_kind
        pool_index = -1
        if kind is ChannelKind.SYSTEM:
            pool_index = self._claimed_pool.pop(header.message_id).index
            event_kind = EventKind.RECV_DONE
        elif kind is ChannelKind.NORMAL:
            state.normal[header.channel_index] = None  # consumed
            event_kind = EventKind.RECV_DONE
        else:
            event_kind = EventKind.RMA_WRITE_DONE
        return BclEvent(
            kind=event_kind, message_id=header.message_id,
            length=header.total_length, channel_kind=kind,
            channel_index=header.channel_index, src_node=header.src_node,
            src_port=header.src_port, pool_buffer_index=pool_index,
            timestamp_ns=self.env.now)
