"""Public BCL user-level API.

"BCL library provides a set of APIs.  Applications linked with BCL
library can use these APIs to communicate with each other.  In fact
these APIs are only the covers of some ioctl() syscall subcommands
provided by BCL kernel module." (paper section 4.1.1)

Usage pattern (inside a simulation process)::

    lib = BclLibrary(proc)
    port = yield from lib.create_port(port_id=1)
    yield from port.post_recv(channel_index=0, vaddr=buf, nbytes=4096)
    event = yield from port.wait_recv()

Send-side calls trap into the kernel (the semi-user-level property);
``poll_recv``/``wait_recv`` never do — they read the completion queues
the NIC DMAs into user space.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.bcl.address import BclAddress
from repro.bcl.events import CompletionQueue
from repro.bcl.intranode import IntranodeTransport
from repro.firmware.descriptors import BclEvent, EventKind, next_message_id
from repro.firmware.packet import ChannelKind
from repro.hw.node import UserProcess
from repro.kernel.errors import BclError, BclSecurityError
from repro.kernel.shm import SharedRing
from repro.sim import Event, wakeup, wakeup_event

__all__ = ["BclLibrary", "BclPort"]


class BclLibrary:
    """Per-process instance of the BCL user library."""

    def __init__(self, proc: UserProcess):
        self.proc = proc
        self.env = proc.node.env
        self.cfg = proc.node.cfg
        kernel = proc.node.kernel
        if kernel is None:
            raise BclError(f"{proc.node.name} has no kernel attached")
        self.kernel = kernel
        module = getattr(kernel, "bcl_module", None)
        if module is None:
            raise BclError(f"{proc.node.name} has no BCL kernel module")
        self.module = module
        self.intranode = IntranodeTransport(self)
        self.port: Optional[BclPort] = None

    @staticmethod
    def check_route(src_node: int, dst_node: int,
                    channel_kind: ChannelKind) -> None:
        """``ValueError`` for a route this library cannot carry (BCL
        carries every one)."""

    def create_port(self, port_id: Optional[int] = None,
                    **channel_kwargs) -> Generator:
        """Open this process's single BCL port (one ioctl trap)."""
        if self.port is not None:
            raise BclError(
                f"pid {self.proc.pid} already created its port "
                "(each process can create only one port)")
        if port_id is None:
            port_id = self.proc.pid % 1000 + 1
        depth = self.cfg.completion_queue_entries
        recv_queue = CompletionQueue(self.env, f"port{port_id}.recv_cq",
                                     capacity=depth)
        send_queue = CompletionQueue(self.env, f"port{port_id}.send_cq",
                                     capacity=depth)
        state = yield from self.kernel.syscall(
            self.proc, "bcl_open_port",
            self.module.open_port(self.proc, port_id, recv_queue,
                                  send_queue, **channel_kwargs))
        port = BclPort(self, port_id, state, recv_queue, send_queue)
        self.proc.node.bcl_ports[port_id] = port
        self.port = port
        return port


class BclPort:
    """A BCL communication port: the unit of addressing and completion."""

    def __init__(self, lib: BclLibrary, port_id: int, state,
                 recv_queue: CompletionQueue, send_queue: CompletionQueue):
        self.lib = lib
        self.env = lib.env
        self.cfg = lib.cfg
        self.port_id = port_id
        self.state = state
        self.recv_queue = recv_queue
        self.send_queue = send_queue
        self._shm_pending: list[SharedRing] = []
        self._shm_wakeup: Optional[Event] = None
        self.closed = False

    # -------------------------------------------------------------- helpers
    @property
    def address(self) -> BclAddress:
        return BclAddress(self.lib.proc.node.node_id, self.port_id)

    def _user(self, cost_us: float, stage: str,
              message_id: Optional[int] = None) -> Generator:
        return self.lib.proc.cpu.execute(
            cost_us, category="bcl", stage=stage, message_id=message_id)

    def _check_open(self) -> None:
        if self.closed:
            raise BclError(f"port {self.port_id} is closed")

    # --------------------------------------------------------------- sending
    def send(self, dest: BclAddress, vaddr: int, nbytes: int,
             rma_offset: int = 0) -> Generator:
        """Post a send request; returns the message id.

        Inter-node: compose in user space, then the single kernel trap
        (checks + pin-down + PIO descriptor fill).  Intra-node: the
        shared-memory path, no trap after ring setup.
        """
        self._check_open()
        message_id = next_message_id()
        yield from self._user(self.cfg.compose_us, "compose_send_request",
                              message_id)
        if dest.node == self.lib.proc.node.node_id:
            yield from self.lib.intranode.send(self, dest, vaddr, nbytes,
                                               message_id, rma_offset)
        else:
            yield from self.lib.kernel.syscall(
                self.lib.proc, "bcl_send",
                self.lib.module.post_send(self.lib.proc, self.port_id, dest,
                                          vaddr, nbytes, message_id,
                                          rma_offset),
                path="send", message_id=message_id)
        return message_id

    def send_system(self, dest: BclAddress, vaddr: int,
                    nbytes: int) -> Generator:
        """Small-message send through the destination's system channel."""
        return self.send(dest.with_channel(ChannelKind.SYSTEM), vaddr, nbytes)

    # ------------------------------------------------------------- receiving
    def post_recv(self, channel_index: int, vaddr: int,
                  nbytes: int) -> Generator:
        """Post a rendezvous buffer on a normal channel (one trap)."""
        self._check_open()
        yield from self._user(self.cfg.compose_us, "compose_recv_post")
        yield from self.lib.kernel.syscall(
            self.lib.proc, "bcl_post_recv",
            self.lib.module.post_recv(self.lib.proc, self.port_id,
                                      channel_index, vaddr, nbytes),
            path="recv")

    def poll_recv(self) -> Generator:
        """One poll of the receive completion queue — never traps.

        Returns a :class:`BclEvent` or None.  This is the paper's
        1.01 us receive path: a queue poll plus an event check, both in
        user space.
        """
        self._check_open()
        yield from self._user(self.cfg.recv_poll_us, "poll_recv_event")
        event = self.recv_queue.try_pop()
        if event is not None:
            yield from self._user(self.cfg.event_check_us, "check_recv_event",
                                  event.message_id)
            return event
        while self._shm_pending:
            ring = self._shm_pending.pop(0)
            event = yield from self.lib.intranode.receive(self, ring)
            if event is not None:
                return event
        return None

    def wait_recv(self) -> Generator:
        """Block (poll-on-event) until a receive event arrives."""
        while True:
            event = yield from self.poll_recv()
            if event is not None:
                return event
            yield self.env.any_of([self.recv_queue.wakeup_event(),
                                   self._shm_wakeup_event()])

    def poll_send(self) -> Generator:
        """Reap one send-completion event, or None."""
        self._check_open()
        event = self.send_queue.try_pop()
        if event is None:
            yield from self._user(self.cfg.recv_poll_us, "poll_send_event")
            return None
        yield from self._user(self.cfg.send_complete_us, "complete_send",
                              event.message_id)
        return event

    def wait_send(self) -> Generator:
        while True:
            event = yield from self.poll_send()
            if event is not None:
                return event
            yield self.send_queue.wakeup_event()

    def recv_system(self, event: BclEvent,
                    copy_to: Optional[int] = None) -> Generator:
        """Fetch a system-channel message out of its pool buffer.

        Copies the payload to ``copy_to`` (charged at memcpy rate) when
        given, recycles the pool buffer, and returns the bytes.
        """
        self._check_open()
        if event.kind is not EventKind.RECV_DONE or \
                event.channel_kind is not ChannelKind.SYSTEM:
            raise BclError(f"not a system-channel receive event: {event}")
        buf = self.state.system_pool_all.get(event.pool_buffer_index)
        if buf is None:
            raise BclError(f"unknown pool buffer {event.pool_buffer_index}")
        data = self.lib.proc.space.read(buf.vaddr, event.length)
        if copy_to is not None:
            cost = self.cfg.memcpy_setup_us + event.length / self.cfg.memcpy_mb_s
            yield from self.lib.proc.cpu.execute(
                cost, category="copy", stage="system_copy_out",
                message_id=event.message_id, scale=False)
            self.lib.proc.space.write(copy_to, data)
        self.state.return_pool_buffer(event.pool_buffer_index)
        return data

    # -------------------------------------------------------------------- RMA
    def bind_open(self, channel_index: int, vaddr: int, nbytes: int,
                  writable: bool = True, readable: bool = True) -> Generator:
        """Bind a buffer to an open channel so peers can RMA it."""
        self._check_open()
        yield from self._user(self.cfg.compose_us, "compose_bind")
        yield from self.lib.kernel.syscall(
            self.lib.proc, "bcl_bind_open",
            self.lib.module.bind_open_channel(self.lib.proc, self.port_id,
                                              channel_index, vaddr, nbytes,
                                              writable, readable))

    def rma_write(self, dest: BclAddress, vaddr: int, nbytes: int,
                  remote_offset: int = 0) -> Generator:
        """Write a local buffer into a remote open channel's binding."""
        mid = yield from self.send(dest.with_channel(ChannelKind.OPEN,
                                                     dest.channel_index),
                                   vaddr, nbytes, rma_offset=remote_offset)
        return mid

    def rma_read(self, dest: BclAddress, local_vaddr: int, nbytes: int,
                 remote_offset: int = 0) -> Generator:
        """Read a remote open channel's binding into a local buffer.

        Completion arrives as an ``RMA_READ_DONE`` event on the receive
        queue.  Intra-node reads go straight through shared memory.
        """
        self._check_open()
        message_id = next_message_id()
        yield from self._user(self.cfg.compose_us, "compose_rma_read",
                              message_id)
        if dest.node == self.lib.proc.node.node_id:
            yield from self._rma_read_local(dest, local_vaddr, nbytes,
                                            remote_offset, message_id)
        else:
            yield from self.lib.kernel.syscall(
                self.lib.proc, "bcl_rma_read",
                self.lib.module.rma_read(self.lib.proc, self.port_id, dest,
                                         local_vaddr, nbytes, remote_offset,
                                         message_id),
                path="send", message_id=message_id)
        return message_id

    def _rma_read_local(self, dest: BclAddress, local_vaddr: int,
                        nbytes: int, remote_offset: int,
                        message_id: int) -> Generator:
        """Same-node RMA read: a direct user-space copy out of the
        peer's bound buffer (both sides mapped the binding)."""
        node = self.lib.proc.node
        state = node.nic.ports.get(dest.port) if node.nic else None
        if state is None:
            raise BclSecurityError(f"no local port {dest.port}")
        bound = state.open_channels.get(dest.channel_index)
        if bound is None or not bound.readable:
            raise BclSecurityError(
                f"open channel {dest.channel_index} not readable")
        if remote_offset < 0 or remote_offset + nbytes > bound.capacity:
            raise BclSecurityError("RMA read outside the bound buffer")
        from repro.firmware.mcp import slice_segments
        data = node.memory.read_gather(
            slice_segments(bound.segments, remote_offset, nbytes))
        cost = self.cfg.memcpy_setup_us + nbytes / self.cfg.memcpy_mb_s
        yield from self.lib.proc.cpu.execute(
            cost, category="copy", stage="rma_local_copy",
            message_id=message_id, scale=False)
        self.lib.proc.space.write(local_vaddr, data)
        self.recv_queue.push(BclEvent(
            kind=EventKind.RMA_READ_DONE, message_id=message_id,
            length=nbytes, channel_kind=ChannelKind.OPEN,
            src_node=dest.node, src_port=dest.port,
            timestamp_ns=self.env.now))

    # --------------------------------------------------------------- closing
    def close(self) -> Generator:
        self._check_open()
        yield from self.lib.kernel.syscall(
            self.lib.proc, "bcl_close_port",
            self.lib.module.close_port(self.lib.proc, self.port_id))
        self.lib.proc.node.bcl_ports.pop(self.port_id, None)
        self.lib.port = None
        self.closed = True

    # --------------------------------------------- intranode notification
    def _shm_arrived(self, ring: SharedRing) -> None:
        """Called by a co-resident sender: a message header is pending."""
        self._shm_pending.append(ring)
        wakeup(self, "_shm_wakeup")

    def _shm_wakeup_event(self) -> Event:
        """An event that fires when a co-resident sender next arrives
        (at once if a header is already pending)."""
        return wakeup_event(self, "_shm_wakeup", bool(self._shm_pending))
