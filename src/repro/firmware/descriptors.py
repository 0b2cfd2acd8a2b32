"""Descriptors and event records exchanged between host and NIC.

``SendRequest`` is what the kernel module writes into the NIC's
send-request ring over PIO (carrying *physical* page segments — the
essence of kernel-side translation).  ``RecvDescriptor``/``PoolBuffer``/
``BoundBuffer`` are the per-channel receive-side structures the NIC
consults, and ``BclEvent`` is the 32-byte completion record the MCP
DMAs into the user-space completion queues.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.firmware.packet import ChannelKind

__all__ = [
    "BclEvent",
    "BoundBuffer",
    "EventKind",
    "PoolBuffer",
    "RecvDescriptor",
    "SendRequest",
    "next_message_id",
]

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Globally unique message id (also used to key trace records)."""
    return next(_message_ids)


class EventKind(enum.Enum):
    SEND_DONE = "send_done"
    RECV_DONE = "recv_done"
    RMA_WRITE_DONE = "rma_write_done"   # remote notification (optional)
    RMA_READ_DONE = "rma_read_done"
    ERROR = "error"


@dataclass
class SendRequest:
    """One entry of the NIC send-request ring."""

    message_id: int
    src_node: int
    src_pid: int
    src_port: int
    dst_node: int
    dst_port: int
    channel_kind: ChannelKind
    channel_index: int
    total_length: int
    #: physical scatter/gather list of the (pinned) source buffer
    segments: list[tuple[int, int]] = field(default_factory=list)
    #: user-level baseline: untranslated source virtual address (the
    #: NIC resolves it through its TLB); ``segments`` stays empty then
    src_vaddr: int = 0
    #: RMA: byte offset within the remote bound buffer
    rma_offset: int = 0
    #: RMA read: local landing token (set by the kernel module)
    rma_token: int = 0
    is_rma_read_request: bool = False
    rma_read_length: int = 0
    #: whether the remote side should get a completion event (RMA write)
    notify_remote: bool = True

    def __post_init__(self) -> None:
        if self.total_length < 0:
            raise ValueError(f"negative message length {self.total_length}")
        if self.segments:
            seg_total = sum(length for _, length in self.segments)
            if seg_total != self.total_length:
                raise ValueError(
                    f"segments cover {seg_total} bytes, message is "
                    f"{self.total_length}")


@dataclass
class RecvDescriptor:
    """A posted receive buffer bound to a normal channel."""

    vaddr: int
    capacity: int
    segments: list[tuple[int, int]]
    pinned_pages: list[int]
    posted_at_ns: int = 0


@dataclass(slots=True)
class PoolBuffer:
    """One buffer of a system channel's FIFO pool."""

    index: int
    vaddr: int
    size: int
    segments: list[tuple[int, int]]


@dataclass
class BoundBuffer:
    """A buffer bound to an open channel for RMA access."""

    vaddr: int
    capacity: int
    segments: list[tuple[int, int]]
    pinned_pages: list[int]
    writable: bool = True
    readable: bool = True


@dataclass(frozen=True)
class BclEvent:
    """Completion record delivered to a user-space completion queue."""

    kind: EventKind
    message_id: int
    length: int
    channel_kind: Optional[ChannelKind] = None
    channel_index: int = 0
    src_node: int = -1
    src_port: int = -1
    pool_buffer_index: int = -1   # system channel: which pool buffer holds it
    status: str = "ok"
    timestamp_ns: int = 0
