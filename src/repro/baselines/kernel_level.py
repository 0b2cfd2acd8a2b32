"""Kernel-level networking baseline (TCP/UDP class).

"Traditional kernel-level networking architecture, like TCP and UDP,
places all protocol processing into OS kernel.  As a result, the
critical path of a message ... has included expensive operations, such
as several crossings of the operating system boundary, plenty of data
copying at both ends, and interrupt handling."

The datagram socket built here exhibits exactly those costs on the same
simulated hardware BCL runs on:

* **send**: trap -> protocol processing -> copy user data into a kernel
  socket buffer (plus software checksum) -> driver fills the NIC ring
  over PIO -> trap exit.  Large messages are segmented into
  ``kl_mtu``-byte datagrams, each its own kernel message.
* **receive**: the NIC delivers each datagram into a kernel pool buffer
  and raises an **interrupt**; the handler runs protocol input
  processing and wakes the reader; the reader's ``recv`` syscall copies
  (and checksums) the data out into user space.

Every cost lands in the Table 1 counters: 2+ traps per message, >= 1
interrupt, NIC touched only from the kernel, and two payload copies.

:class:`KernelLevelLibrary` and :class:`KernelLevelPort` put a socket
behind the BCL port calls (``create_port``, ``post_recv``, ``send``,
``wait_recv``, ``wait_send``), so the one-way harness and Table 1 drive
this stack exactly as they drive BCL and the user-level baseline.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Generator, Optional

from repro.bcl.address import BclAddress
from repro.bcl.events import CompletionQueue
from repro.firmware.descriptors import (
    BclEvent,
    EventKind,
    PoolBuffer,
    SendRequest,
    next_message_id,
)
from repro.firmware.packet import ChannelKind
from repro.hw.nic import NicPortState
from repro.hw.node import Node, UserProcess
from repro.kernel.errors import BclError, BclSecurityError
from repro.kernel.vm import AddressSpace
from repro.sim import Event

__all__ = ["KernelSocketLibrary", "KernelSocket", "KernelLevelLibrary",
           "KernelLevelPort"]

#: kernel-internal pseudo-pid that owns socket buffers
KERNEL_PID = 0


@dataclass
class _Datagram:
    """One reassembled-segment record queued on a socket."""

    pool_index: int
    length: int
    src_node: int
    src_port: int
    message_id: int


class KernelSocketLibrary:
    """Per-node kernel socket layer (shared by all processes on a node)."""

    def __init__(self, node: Node):
        self.node = node
        self.env = node.env
        self.cfg = node.cfg
        self.kernel = node.kernel
        if self.kernel is None:
            raise BclError(f"{node.name} has no kernel")
        # A kernel address space holds the socket buffers.
        if KERNEL_PID not in node.nic.spaces:
            self.kspace = AddressSpace(node.allocator, KERNEL_PID)
            node.nic.register_space(KERNEL_PID, self.kspace)
        else:  # pragma: no cover - one library per node in practice
            self.kspace = node.nic.spaces[KERNEL_PID]
        self.sockets: dict[int, KernelSocket] = {}
        self.kernel.socket_layer = self

    def socket(self, proc: UserProcess, port: Optional[int] = None,
               pool_buffers: int = 32) -> Generator:
        """Create a datagram socket (a trap, as in real life); with no
        ``port``, the lowest one free on this node from 4096 up."""
        if port is None:
            port = next(p for p in itertools.count(1 << 12)
                        if p not in self.sockets)
        if port in self.sockets:
            raise BclError(f"socket port {port} in use on {self.node.name}")
        sock = KernelSocket(self, proc, port)
        # Claimed before the trap, so a concurrent open cannot take it.
        self.sockets[port] = sock
        handler = self._create_socket_state(sock, pool_buffers)
        yield from self.kernel.syscall(proc, "socket", handler)
        return sock

    def _create_socket_state(self, sock: "KernelSocket",
                             pool_buffers: int) -> Generator:
        cfg = self.cfg
        state = NicPortState(
            port_id=sock.port, owner_pid=KERNEL_PID,
            recv_queue=CompletionQueue(self.env, f"kl{sock.port}.rq"),
            send_queue=CompletionQueue(self.env, f"kl{sock.port}.sq"),
            notify_mode="interrupt",
            interrupt_callback=sock._on_recv_interrupt)
        for index in range(pool_buffers):
            vaddr = self.kspace.alloc(cfg.kl_mtu)
            self.kspace.pin(vaddr, cfg.kl_mtu)
            buf = PoolBuffer(index=index, vaddr=vaddr, size=cfg.kl_mtu,
                             segments=self.kspace.segments(vaddr, cfg.kl_mtu))
            state.system_pool_all[index] = buf
            state.system_pool_free.append(buf)
        yield from sock.proc.cpu.execute(
            cfg.kl_proto_send_us, category="kernel", stage="socket_setup")
        self.node.nic.create_port(state)
        sock.state = state
        return state


class KernelSocket:
    """A datagram socket: sendto / recvfrom via kernel traps."""

    def __init__(self, lib: KernelSocketLibrary, proc: UserProcess,
                 port: int):
        self.lib = lib
        self.proc = proc
        self.port = port
        self.env = lib.env
        self.cfg = lib.cfg
        self.state: Optional[NicPortState] = None
        self._rx: deque[_Datagram] = deque()
        self._reader_wakeup: Optional[Event] = None
        #: message id -> (vaddr, pinned pages) of each datagram's kernel
        #: buffer, held until the datagram's SEND_DONE
        self._tx_buffers: dict[int, tuple[int, list[int]]] = {}

    # ------------------------------------------------------------ checksums
    def _copy_checksum(self, cpu, nbytes: int, stage: str,
                       message_id: Optional[int]) -> Generator:
        """Copy + software checksum of one datagram (the kernel-level
        tax BCL avoids by DMA-ing directly to user buffers)."""
        cfg = self.cfg
        cost = (cfg.memcpy_setup_us + nbytes / cfg.memcpy_mb_s
                + nbytes / cfg.kl_checksum_mb_s)
        yield from cpu.execute(cost, category="copy", stage=stage,
                               message_id=message_id, scale=False)
        self.lib.kernel.counters.record_copy()

    # --------------------------------------------------------------- sending
    def sendto(self, dst_node: int, dst_port: int, vaddr: int,
               nbytes: int) -> Generator:
        """Send a message (segmented into kl_mtu datagrams), blocking
        until the kernel has accepted all segments."""
        handler = self._sendto_handler(dst_node, dst_port, vaddr, nbytes)
        yield from self.lib.kernel.syscall(self.proc, "sendto", handler,
                                           path="send")

    def _sendto_handler(self, dst_node: int, dst_port: int, vaddr: int,
                        nbytes: int) -> Generator:
        cfg = self.cfg
        kernel = self.lib.kernel
        kernel.security.check_buffer(self.proc.space, vaddr, nbytes)
        if not 0 <= dst_node < kernel.security.n_nodes:
            raise BclSecurityError(f"no node {dst_node}")
        offsets = range(0, max(nbytes, 1), cfg.kl_mtu)
        for offset in offsets:
            seg_len = min(cfg.kl_mtu, nbytes - offset) if nbytes else 0
            message_id = next_message_id()
            yield from self.proc.cpu.execute(
                cfg.kl_proto_send_us, category="kernel",
                stage="kl_proto_send", message_id=message_id)
            # Copy user -> kernel socket buffer (+checksum).
            kvaddr = self.lib.kspace.alloc(max(seg_len, 1))
            self._tx_buffers[message_id] = (
                kvaddr, self.lib.kspace.pin(kvaddr, max(seg_len, 1)))
            if seg_len:
                yield from self._copy_checksum(self.proc.cpu, seg_len,
                                               "kl_copy_in", message_id)
                self.lib.kspace.write(
                    kvaddr, self.proc.space.read(vaddr + offset, seg_len))
            request = SendRequest(
                message_id=message_id,
                src_node=self.lib.node.node_id, src_pid=KERNEL_PID,
                src_port=self.port,
                dst_node=dst_node, dst_port=dst_port,
                channel_kind=ChannelKind.SYSTEM, channel_index=0,
                total_length=seg_len,
                segments=self.lib.kspace.segments(kvaddr, seg_len))
            words = cfg.descriptor_words(max(len(request.segments), 1))
            kernel.counters.record_nic_access(from_kernel=True, words=words)
            yield from self.lib.node.pci.pio_write(
                self.proc.cpu, words, stage="fill_send_descriptor",
                message_id=message_id)
            yield self.lib.node.nic.post_send(request)

    # -------------------------------------------------------------- receiving
    def _on_recv_interrupt(self, event: BclEvent) -> None:
        """Interrupt context: queue the datagram, wake the reader.

        TX-completion interrupts (SEND_DONE) also land here, as they do
        on real kernel-level NICs: they carry no data to queue, and
        they free the datagram's kernel buffer.  The MCP copied the
        payload into its packets before completing the send, so a
        retransmission never reads the buffer again.
        """
        if event.kind is EventKind.SEND_DONE:
            kvaddr, pages = self._tx_buffers.pop(event.message_id)
            for vpage in pages:
                self.lib.kspace.unpin_page(vpage)
            self.lib.kspace.free(kvaddr)
            return
        if event.kind is not EventKind.RECV_DONE:
            return
        self._rx.append(_Datagram(pool_index=event.pool_buffer_index,
                                  length=event.length,
                                  src_node=event.src_node,
                                  src_port=event.src_port,
                                  message_id=event.message_id))
        if self._reader_wakeup is not None:
            self._reader_wakeup.succeed()
            self._reader_wakeup = None

    def recvfrom(self, vaddr: int, capacity: int) -> Generator:
        """Blocking receive of one datagram into a user buffer.

        Returns ``(nbytes, src_node, src_port)``.
        """
        # Block in user space until data is queued (the sleep itself is
        # free; the kernel work is charged inside the trap below).
        while not self._rx:
            if self._reader_wakeup is None:
                self._reader_wakeup = Event(self.env)
            yield self._reader_wakeup
        handler = self._recvfrom_handler(vaddr, capacity)
        result = yield from self.lib.kernel.syscall(
            self.proc, "recvfrom", handler, path="recv")
        return result

    def _recvfrom_handler(self, vaddr: int, capacity: int) -> Generator:
        cfg = self.cfg
        self.lib.kernel.security.check_buffer(self.proc.space, vaddr,
                                              capacity)
        dgram = self._rx.popleft()
        if dgram.length > capacity:
            raise BclError(
                f"datagram of {dgram.length} bytes exceeds the "
                f"{capacity}-byte receive buffer")
        yield from self.proc.cpu.execute(
            cfg.kl_proto_recv_us, category="kernel", stage="kl_proto_recv",
            message_id=dgram.message_id)
        if dgram.length:
            yield from self._copy_checksum(self.proc.cpu, dgram.length,
                                           "kl_copy_out", dgram.message_id)
            buf = self.state.system_pool_all[dgram.pool_index]
            self.proc.space.write(
                vaddr, self.lib.kspace.read(buf.vaddr, dgram.length))
        self.state.return_pool_buffer(dgram.pool_index)
        return dgram.length, dgram.src_node, dgram.src_port


class KernelLevelLibrary:
    """The BCL library calls, served by the node's kernel sockets."""

    def __init__(self, proc: UserProcess):
        self.proc = proc
        # The node's one socket layer, built on its first use.
        self.socket_layer = (proc.node.kernel.socket_layer
                             or KernelSocketLibrary(proc.node))

    @staticmethod
    def check_route(src_node: int, dst_node: int,
                    channel_kind: ChannelKind) -> None:
        if channel_kind is ChannelKind.SYSTEM:
            raise ValueError("kernel-level sockets have no system channel")
        if src_node == dst_node:
            raise ValueError("kernel-level sockets have no intra-node path "
                             f"(node {src_node} to itself)")

    def create_port(self) -> Generator:
        sock = yield from self.socket_layer.socket(self.proc)
        return KernelLevelPort(sock)


class KernelLevelPort:
    """A socket behind the BCL port calls: ``post_recv`` records the
    buffer, ``send`` is ``sendto`` and ``wait_send`` reaps nothing."""

    def __init__(self, sock: KernelSocket):
        self.sock = sock
        self.address = BclAddress(sock.lib.node.node_id, sock.port)
        self._posted: Optional[tuple[int, int]] = None

    def post_recv(self, channel_index: int, vaddr: int,
                  nbytes: int) -> Generator:
        self._posted = (vaddr, nbytes)
        yield from ()

    def send(self, dest: BclAddress, vaddr: int, nbytes: int) -> Generator:
        KernelLevelLibrary.check_route(self.address.node, dest.node,
                                       dest.channel_kind)
        yield from self.sock.sendto(dest.node, dest.port, vaddr, nbytes)

    def wait_recv(self) -> Generator:
        """``recvfrom`` until the posted buffer is full, writing each
        datagram after the last; returns the bytes received."""
        if self._posted is None:
            raise BclError("wait_recv before post_recv")
        (vaddr, nbytes), self._posted = self._posted, None
        received = 0
        while True:
            n, _src_node, _src_port = yield from self.sock.recvfrom(
                vaddr + received, nbytes - received)
            received += n
            if received >= nbytes:
                return received

    def wait_send(self) -> Generator:
        yield from ()
