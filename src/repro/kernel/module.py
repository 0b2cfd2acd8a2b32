"""The BCL kernel module: ioctl handlers behind the semi-user-level trap.

"BCL kernel module posts operation requests to the request queues on
NIC's local memory. ... Kernel module also implements some functional
operations, which need to be executed in the kernel environment.  Such
operations include the host memory pin/unpin operation and host virtual
memory address to bus memory address conversion." (paper section 4.1.1)

Every handler here is a generator meant to run inside
:meth:`repro.kernel.kernel.Kernel.syscall`, i.e. between the trap-enter
and trap-exit costs.  The send handler is the paper's Figure 5: security
checks, pin-down page-table search (+ pin/translate on miss), then the
PIO fill of the send-request descriptor — the step that "consumed more
than half of the time".
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from repro.config import CostModel
from repro.firmware.descriptors import (
    BoundBuffer,
    PoolBuffer,
    RecvDescriptor,
    SendRequest,
)
from repro.firmware.packet import ChannelKind
from repro.hw.nic import LandingZone, NicPortState
from repro.kernel.errors import (
    BclSecurityError,
    ChannelBusyError,
    PortInUseError,
)
from repro.sim import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.bcl.address import BclAddress
    from repro.bcl.events import CompletionQueue
    from repro.hw.node import UserProcess
    from repro.kernel.kernel import Kernel
    from repro.kernel.shm import SharedRing

__all__ = ["BclKernelModule"]

_rma_tokens = itertools.count(1)

#: PIO words to initialise a port / a channel entry on the NIC
PORT_INIT_WORDS = 8
POOL_BUFFER_WORDS = 4
RECV_DESC_BASE_WORDS = 6
OPEN_BIND_WORDS = 6
RMA_REQ_WORDS = 10


class BclKernelModule:
    """ioctl back-end of the BCL device driver on one node."""

    def __init__(self, kernel: "Kernel", tracer: Optional[Tracer] = None):
        self.kernel = kernel
        self.node = kernel.node
        self.cfg: CostModel = kernel.cfg
        self.env = kernel.env
        self.tracer = tracer
        self.nic = self.node.nic
        if self.nic is None:
            raise ValueError(f"{self.node.name} has no NIC for BCL")
        self._port_of_pid: dict[int, int] = {}

    # ------------------------------------------------------------ helpers
    def _kwork(self, proc: "UserProcess", cost_us: float, stage: str,
               message_id: Optional[int] = None) -> Generator:
        """Kernel CPU work on the caller's processor."""
        return proc.cpu.execute(cost_us, category="kernel", stage=stage,
                                message_id=message_id)

    def _checks(self, proc: "UserProcess", stage: str = "security_checks",
                message_id: Optional[int] = None) -> Generator:
        return self._kwork(proc, self.cfg.security_check_us, stage,
                           message_id)

    def _pio_fill(self, proc: "UserProcess", words: int, stage: str,
                  message_id: Optional[int] = None) -> Generator:
        """Write ``words`` to NIC memory over PIO (kernel-side access)."""
        self.kernel.counters.record_nic_access(from_kernel=True, words=words)
        yield from self.node.pci.pio_write(proc.cpu, words, stage=stage,
                                           message_id=message_id)

    def _pindown(self, proc: "UserProcess", vaddr: int, nbytes: int,
                 message_id: Optional[int] = None) -> Generator:
        """Pin-down table search + pin/translate on miss; returns result."""
        result = self.kernel.pindown.lookup(proc.space, vaddr, nbytes)
        stage = "pindown_lookup" if result.hit else "pindown_miss"
        yield from self._kwork(proc, result.cost_us, stage, message_id)
        return result

    def _port_state(self, proc: "UserProcess", port_id: int) -> NicPortState:
        state = self.nic.ports.get(port_id)
        if state is None:
            raise BclSecurityError(
                f"{self.node.name}: no such port {port_id}")
        self.kernel.security.check_port_ownership(state.owner_pid, proc.pid,
                                                  port_id)
        return state

    # ------------------------------------------------------ port lifecycle
    def open_port(self, proc: "UserProcess", port_id: int,
                  recv_queue: "CompletionQueue",
                  send_queue: "CompletionQueue",
                  n_normal_channels: int = 8,
                  n_open_channels: int = 4,
                  system_pool_buffers: int = 16,
                  system_buffer_bytes: int = 4096) -> Generator:
        """Create the process's (single) BCL port."""
        yield from self._checks(proc)
        if proc.pid in self._port_of_pid:
            raise PortInUseError(
                f"pid {proc.pid} already owns port "
                f"{self._port_of_pid[proc.pid]} (one port per process)")
        if port_id in self.nic.ports:
            raise PortInUseError(
                f"port {port_id} is taken on {self.node.name}")
        state = NicPortState(port_id=port_id, owner_pid=proc.pid,
                             recv_queue=recv_queue, send_queue=send_queue)
        state.normal = {i: None for i in range(n_normal_channels)}
        # System-channel buffer pool: allocated in the process's user
        # space, pinned once at port creation (paper 2.2: "initialized
        # when the process starts").
        for index in range(system_pool_buffers):
            vaddr = proc.space.alloc(system_buffer_bytes)
            pages = proc.space.pin(vaddr, system_buffer_bytes)
            yield from self._kwork(
                proc, self.cfg.pin_page_us * len(pages), "pin_pool_buffer")
            buf = PoolBuffer(index=index, vaddr=vaddr,
                             size=system_buffer_bytes,
                             segments=proc.space.segments(
                                 vaddr, system_buffer_bytes))
            state.system_pool_all[index] = buf
            state.system_pool_free.append(buf)
        words = PORT_INIT_WORDS + POOL_BUFFER_WORDS * system_pool_buffers
        yield from self._pio_fill(proc, words, "init_port")
        self.nic.create_port(state)
        self._port_of_pid[proc.pid] = port_id
        return state

    def close_port(self, proc: "UserProcess", port_id: int) -> Generator:
        yield from self._checks(proc)
        state = self._port_state(proc, port_id)
        yield from self._pio_fill(proc, PORT_INIT_WORDS, "close_port")
        for buf in state.system_pool_all.values():
            for vpage in proc.space.pages_of(buf.vaddr, buf.size):
                proc.space.unpin_page(vpage)
        for descriptor in state.normal.values():
            if descriptor is not None:
                for vpage in descriptor.pinned_pages:
                    proc.space.unpin_page(vpage)
        for bound in state.open_channels.values():
            for vpage in bound.pinned_pages:
                proc.space.unpin_page(vpage)
        self.nic.destroy_port(port_id)
        del self._port_of_pid[proc.pid]

    # ------------------------------------------------------------- sending
    def post_send(self, proc: "UserProcess", port_id: int, dest: BclAddress,
                  vaddr: int, nbytes: int, message_id: int,
                  rma_offset: int = 0) -> Generator:
        """The semi-user-level send trap (paper Figure 5, stage 2)."""
        state = self._port_state(proc, port_id)
        yield from self._checks(proc, message_id=message_id)
        self.kernel.security.check_buffer(proc.space, vaddr, nbytes)
        self.kernel.security.check_target(dest)
        if dest.channel_kind is ChannelKind.OPEN and rma_offset < 0:
            raise BclSecurityError(f"negative RMA offset {rma_offset}")
        result = yield from self._pindown(proc, vaddr, nbytes, message_id)
        segments = proc.space.segments(vaddr, nbytes)
        request = SendRequest(
            message_id=message_id,
            src_node=self.node.node_id, src_pid=proc.pid, src_port=port_id,
            dst_node=dest.node, dst_port=dest.port,
            channel_kind=dest.channel_kind,
            channel_index=dest.channel_index,
            total_length=nbytes, segments=segments,
            rma_offset=rma_offset)
        words = self.cfg.descriptor_words(max(result.n_pages, 1))
        yield from self._pio_fill(proc, words, "fill_send_descriptor",
                                  message_id)
        yield self.nic.post_send(request)
        return request

    # ----------------------------------------------------------- receiving
    def post_recv(self, proc: "UserProcess", port_id: int,
                  channel_index: int, vaddr: int, nbytes: int) -> Generator:
        """Bind a receive buffer to a normal channel (rendezvous post).

        The paper keeps this in the kernel too: "the BCL message sending
        and making ready for message buffer still need switch into
        kernel mode".
        """
        state = self._port_state(proc, port_id)
        yield from self._checks(proc)
        self.kernel.security.check_buffer(proc.space, vaddr, nbytes)
        if channel_index not in state.normal:
            raise BclSecurityError(
                f"port {port_id} has no normal channel {channel_index}")
        if state.normal[channel_index] is not None:
            raise ChannelBusyError(
                f"normal channel {channel_index} already has a posted buffer")
        result = yield from self._pindown(proc, vaddr, nbytes)
        descriptor = RecvDescriptor(
            vaddr=vaddr, capacity=nbytes,
            segments=proc.space.segments(vaddr, nbytes),
            pinned_pages=[], posted_at_ns=self.env.now)
        words = RECV_DESC_BASE_WORDS + 2 * max(result.n_pages - 1, 0)
        yield from self._pio_fill(proc, words, "fill_recv_descriptor")
        state.normal[channel_index] = descriptor

    # ----------------------------------------------------------------- RMA
    def bind_open_channel(self, proc: "UserProcess", port_id: int,
                          channel_index: int, vaddr: int, nbytes: int,
                          writable: bool = True,
                          readable: bool = True) -> Generator:
        """Bind a buffer to an open channel for remote RMA access."""
        state = self._port_state(proc, port_id)
        yield from self._checks(proc)
        self.kernel.security.check_buffer(proc.space, vaddr, nbytes)
        if channel_index in state.open_channels:
            raise ChannelBusyError(
                f"open channel {channel_index} already bound")
        yield from self._pindown(proc, vaddr, nbytes)
        bound = BoundBuffer(vaddr=vaddr, capacity=nbytes,
                            segments=proc.space.segments(vaddr, nbytes),
                            pinned_pages=[], writable=writable,
                            readable=readable)
        yield from self._pio_fill(proc, OPEN_BIND_WORDS, "bind_open_channel")
        state.open_channels[channel_index] = bound

    def rma_read(self, proc: "UserProcess", port_id: int, dest: BclAddress,
                 local_vaddr: int, nbytes: int, remote_offset: int,
                 message_id: int) -> Generator:
        """Issue an RMA read: remote open channel -> local buffer."""
        state = self._port_state(proc, port_id)
        yield from self._checks(proc, message_id=message_id)
        self.kernel.security.check_buffer(proc.space, local_vaddr, nbytes)
        self.kernel.security.check_target(dest)
        if remote_offset < 0:
            raise BclSecurityError(f"negative RMA offset {remote_offset}")
        yield from self._pindown(proc, local_vaddr, nbytes, message_id)
        token = next(_rma_tokens)
        state.landing[token] = LandingZone(
            token=token,
            segments=proc.space.segments(local_vaddr, nbytes),
            length=nbytes, port=port_id, message_id=message_id)
        request = SendRequest(
            message_id=message_id,
            src_node=self.node.node_id, src_pid=proc.pid, src_port=port_id,
            dst_node=dest.node, dst_port=dest.port,
            channel_kind=ChannelKind.OPEN,
            channel_index=dest.channel_index,
            total_length=0, segments=[],
            rma_offset=remote_offset, rma_token=token,
            is_rma_read_request=True, rma_read_length=nbytes)
        yield from self._pio_fill(proc, RMA_REQ_WORDS, "fill_rma_request",
                                  message_id)
        yield self.nic.post_send(request)
        return token

    # ------------------------------------------------------------ intranode
    def create_shm_ring(self, proc: "UserProcess",
                        dst_pid: int) -> Generator:
        """Set up (or look up) the shared ring to a co-resident process."""
        yield from self._checks(proc)
        if dst_pid not in self.node.processes:
            raise BclSecurityError(
                f"no process {dst_pid} on {self.node.name}")
        fresh = not self.kernel.shm.has_ring(proc.pid, dst_pid)
        ring: "SharedRing" = self.kernel.shm.ring(proc.pid, dst_pid)
        if fresh:
            # Mapping the segment into both processes is kernel work
            # proportional to the ring size.
            pages = ring.n_slots * (-(-ring.chunk_bytes
                                      // self.cfg.page_size))
            yield from self._kwork(proc, self.cfg.translate_page_us * pages,
                                   "map_shm_ring")
        return ring
