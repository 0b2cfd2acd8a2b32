"""User-level messaging baseline (GM / VIA / U-Net class).

"User-level communication ... allows applications directly access the
network interface cards without operating system intervention on both
sending and receiving sides."  Build the cluster with
``architecture="user_level"`` (NIC in ``virtual`` translation mode) and
drive it through :class:`UserLevelLibrary`:

* **setup** still goes through the kernel once (the mmap of NIC memory
  and registration of the page table — every real user-level system
  does this), reusing the BCL kernel module's port-creation path;
* **steady state** never traps: the library composes a small
  virtual-address descriptor, writes it into the NIC send ring by PIO
  from user space, and rings a doorbell; receive descriptors are posted
  the same way.  The NIC validates the caller's context per message and
  translates buffer pages through its TLB — the costs BCL's design
  moves into the kernel.

The latency delta between this stack and BCL is the paper's "about
22 %" claim, re-derived rather than assumed.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.bcl.api import BclLibrary, BclPort
from repro.bcl.address import BclAddress
from repro.firmware.descriptors import SendRequest, RecvDescriptor, next_message_id
from repro.hw.node import UserProcess
from repro.kernel.errors import BclError, ChannelBusyError

__all__ = ["UserLevelLibrary", "UserLevelPort"]


class UserLevelLibrary(BclLibrary):
    """User-level variant of the library: direct NIC access."""

    def __init__(self, proc: UserProcess):
        super().__init__(proc)
        if proc.node.nic.translation_mode != "virtual":
            raise BclError(
                "user-level library needs a cluster built with "
                "architecture='user_level' (NIC translates addresses)")

    def create_port(self, port_id: Optional[int] = None,
                    **channel_kwargs) -> Generator:
        port = yield from super().create_port(port_id, **channel_kwargs)
        # Re-wrap as a user-level port sharing the same state/queues.
        ul_port = UserLevelPort(self, port.port_id, port.state,
                                port.recv_queue, port.send_queue)
        self.proc.node.bcl_ports[port.port_id] = ul_port
        self.port = ul_port
        return ul_port


class UserLevelPort(BclPort):
    """A port whose send/post paths bypass the kernel entirely."""

    def _pio_user(self, words: int, stage: str,
                  message_id: Optional[int] = None) -> Generator:
        """PIO to NIC memory issued from user space."""
        self.lib.kernel.counters.record_nic_access(from_kernel=False,
                                                   words=words)
        yield from self.lib.proc.node.pci.pio_write(
            self.lib.proc.cpu, words, stage=stage, message_id=message_id)

    def send(self, dest: BclAddress, vaddr: int, nbytes: int,
             rma_offset: int = 0) -> Generator:
        """Trap-free send: descriptor + doorbell from user space.

        The descriptor carries the *virtual* address; translation and
        per-message protection checking happen on the NIC (TLB).
        """
        self._check_open()
        message_id = next_message_id()
        yield from self._user(self.cfg.compose_us, "compose_send_request",
                              message_id)
        if dest.node == self.lib.proc.node.node_id:
            # Intranode path is identical to BCL (shared memory).
            yield from self.lib.intranode.send(self, dest, vaddr, nbytes,
                                               message_id, rma_offset)
            return message_id
        if not self.lib.proc.space.is_mapped(vaddr, nbytes):
            # No kernel check: the library can only verify its own
            # mapping; a bad pointer dies here (or on the NIC).
            raise BclError(f"unmapped buffer [{vaddr:#x}, +{nbytes})")
        request = SendRequest(
            message_id=message_id,
            src_node=self.lib.proc.node.node_id,
            src_pid=self.lib.proc.pid, src_port=self.port_id,
            dst_node=dest.node, dst_port=dest.port,
            channel_kind=dest.channel_kind,
            channel_index=dest.channel_index,
            total_length=nbytes, segments=[], src_vaddr=vaddr,
            rma_offset=rma_offset)
        yield from self._pio_user(self.cfg.ul_descriptor_words,
                                  "fill_send_descriptor_user", message_id)
        yield from self._pio_user(self.cfg.ul_doorbell_words, "doorbell",
                                  message_id)
        yield self.lib.proc.node.nic.post_send(request)
        return message_id

    def post_recv(self, channel_index: int, vaddr: int,
                  nbytes: int) -> Generator:
        """Trap-free receive post: virtual-address descriptor by PIO."""
        self._check_open()
        if channel_index not in self.state.normal:
            raise BclError(f"no normal channel {channel_index}")
        if self.state.normal[channel_index] is not None:
            raise ChannelBusyError(
                f"normal channel {channel_index} already posted")
        if not self.lib.proc.space.is_mapped(vaddr, nbytes):
            raise BclError(f"unmapped buffer [{vaddr:#x}, +{nbytes})")
        yield from self._user(self.cfg.compose_us, "compose_recv_post")
        yield from self._pio_user(self.cfg.ul_descriptor_words,
                                  "fill_recv_descriptor_user")
        self.state.normal[channel_index] = RecvDescriptor(
            vaddr=vaddr, capacity=nbytes, segments=[], pinned_pages=[],
            posted_at_ns=self.env.now)
