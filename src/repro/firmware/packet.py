"""Packet format, CRC, and message segmentation.

Myrinet is source-routed: the sending NIC prepends the route (one
output-port byte per switch hop) and each switch strips its byte and
forwards.  We keep that model: ``Packet.route`` is the list of output
ports, consumed hop by hop.

Messages larger than the MTU are segmented; every packet carries the
BCL addressing triple (destination port, channel kind, channel index),
its byte offset, the total message length, and a CRC over the payload
so the receive engine can detect injected corruption and trigger the
reliability layer.
"""

from __future__ import annotations

import enum
import itertools
import zlib
from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = ["PacketType", "Packet", "compute_crc", "segment_message",
           "CRC_SEED"]

CRC_SEED = 0x4243_4C00  # "BCL\0"

_packet_ids = itertools.count(1)


class PacketType(enum.Enum):
    DATA = "data"
    ACK = "ack"
    NACK = "nack"
    RMA_READ_REQ = "rma_read_req"
    RMA_READ_RESP = "rma_read_resp"
    #: NIC-offloaded collectives: fan-in contribution toward the tree
    #: root and fan-out release/result toward the leaves.  Both ride the
    #: go-back-N reliable channel like DATA.
    COLL_UP = "coll_up"
    COLL_DOWN = "coll_down"


class ChannelKind(enum.Enum):
    """The three BCL channel types (paper section 2.2)."""

    SYSTEM = "system"    # small messages, FIFO buffer pool, drop-on-full
    NORMAL = "normal"    # rendezvous: receive buffer posted in advance
    OPEN = "open"        # RMA into a bound buffer


def compute_crc(payload) -> int:
    return zlib.crc32(payload, CRC_SEED) & 0xFFFF_FFFF


#: packet types that carry payload and a reliability sequence number
SEQUENCED_TYPES = frozenset({PacketType.DATA, PacketType.RMA_READ_REQ,
                             PacketType.RMA_READ_RESP, PacketType.COLL_UP,
                             PacketType.COLL_DOWN})


@dataclass
class Packet:
    """One wire packet.  ``wire_bytes`` is what occupies the link."""

    ptype: PacketType
    src_nic: int                 # source NIC/node id
    dst_nic: int
    route: tuple[int, ...]       # remaining source-route (output ports)
    seq: int = 0                 # reliability sequence number (per flow)
    message_id: int = 0
    src_port: int = 0            # BCL port of the sender (for replies/events)
    dst_port: int = 0            # BCL port number at the destination
    channel_kind: Optional[ChannelKind] = None
    channel_index: int = 0
    offset: int = 0              # byte offset of this fragment
    total_length: int = 0        # total message length
    payload: bytes = b""
    crc: int = 0
    ack_seq: int = 0             # for ACK/NACK: cumulative sequence
    rma_offset: int = 0          # for RMA ops: offset within bound buffer
    rma_length: int = 0
    rma_token: int = 0           # matches an RMA response to its request
    coll_group: int = 0          # COLL_*: NIC collective group id
    coll_seq: int = 0            # COLL_*: collective sequence in the group
    coll_op: str = ""            # COLL_*: "barrier" | "bcast" | "sum:<dtype>"
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    corrupted: bool = False      # set by fault injection on a link

    def __post_init__(self) -> None:
        if self.ptype in SEQUENCED_TYPES and not self.crc:
            self.crc = compute_crc(self.payload)

    @property
    def wire_payload_bytes(self) -> int:
        return len(self.payload)

    def wire_bytes(self, header_bytes: int) -> int:
        return header_bytes + len(self.payload) + len(self.route)

    @property
    def is_last_fragment(self) -> bool:
        return self.offset + len(self.payload) >= self.total_length

    def crc_ok(self) -> bool:
        if self.ptype not in SEQUENCED_TYPES:
            return not self.corrupted
        return (not self.corrupted) and compute_crc(self.payload) == self.crc

    def copy(self, **changes) -> "Packet":
        """Field-for-field copy with ``changes`` applied.

        Unlike :func:`dataclasses.replace` this runs no ``__init__``:
        ``packet_id`` is kept and ``crc`` is not restamped, so the CRC
        stays the one computed when the packet was created.  The copy
        shares the payload object with the original.
        """
        if not changes.keys() <= _PACKET_FIELDS:
            unknown = sorted(changes.keys() - _PACKET_FIELDS)
            raise TypeError(f"unknown Packet fields {unknown}")
        state = self.__dict__.copy()
        state.update(changes)
        clone = object.__new__(self.__class__)
        clone.__dict__ = state
        return clone

    def hop(self) -> tuple[int, "Packet"]:
        """Consume the head of the source route.

        Returns ``(output_port, packet_with_remaining_route)``.  The
        packet is copied rather than advanced in place: the sender's
        go-back-N buffer keeps the very object it sent for retransmit,
        and ``wire_bytes`` counts the *remaining* route.
        """
        route = self.route
        if not route:
            raise ValueError(f"packet {self.packet_id} has an empty route")
        return route[0], self.copy(route=route[1:])


_PACKET_FIELDS = frozenset(f.name for f in fields(Packet))


def fragment_offsets(total_length: int, mtu: int) -> list[int]:
    """Fragment start offsets for a message of ``total_length`` bytes.

    A zero-length message has one fragment at offset 0 (see
    :func:`segment_message`).
    """
    if mtu <= 0:
        raise ValueError(f"mtu must be positive, got {mtu}")
    if total_length < 0:
        raise ValueError(f"negative message length {total_length}")
    if total_length == 0:
        return [0]
    return list(range(0, total_length, mtu))


def segment_message(payload: bytes, mtu: int) -> list[tuple[int, bytes]]:
    """Split a message into ``(offset, fragment)`` pairs of at most ``mtu``.

    A zero-length message still produces one (empty) fragment so that a
    0-byte send travels the wire and generates a receive event, exactly
    like the paper's 0-length latency test.
    """
    if mtu <= 0:
        raise ValueError(f"mtu must be positive, got {mtu}")
    if not payload:
        return [(0, b"")]
    return [(off, payload[off:off + mtu]) for off in range(0, len(payload), mtu)]
