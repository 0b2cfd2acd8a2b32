"""Kernel-managed shared memory for the intra-node path.

"BCL uses shared memory based intra-node communication.  The internal
buffer queue is used to transfer message from one process to another
process within a node.  This queue consists of a list of buffers.  Each
pair of processes has two queues." (paper section 4.1.3)

A :class:`SharedRing` is one direction of such a pair: a fixed set of
chunk-sized buffers in kernel-allocated (but user-mapped) physical
memory, a free list, and an entry queue carrying chunk metadata with
sequence numbers — "to ensure the message sequence, BCL uses the
sequential number to decide whether the operation should continue or
not".  Creating a ring is the only part that traps; steady-state
transfers run entirely in user space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import CostModel
from repro.firmware.packet import ChannelKind
from repro.hw.memory import FrameAllocator
from repro.sim import Environment, Store

__all__ = ["SharedMemoryManager", "SharedRing", "ShmEntry"]

@dataclass
class ShmEntry:
    """Metadata for one ring slot's worth of a message (or a header)."""

    seq: int
    message_id: int
    kind: str                 # "header" or "chunk"
    slot: int = -1            # chunk: which ring slot holds the bytes
    length: int = 0           # chunk: bytes in the slot
    offset: int = 0           # chunk: offset within the message
    # header fields
    total_length: int = 0
    src_node: int = -1
    src_port: int = -1
    dst_port: int = 0
    channel_kind: Optional[ChannelKind] = None
    channel_index: int = 0


class SequenceError(RuntimeError):
    """The receiver observed a ring entry out of sequence."""


class SharedRing:
    """One direction of an intra-node queue pair."""

    def __init__(self, env: Environment, cfg: CostModel,
                 allocator: FrameAllocator, name: str):
        self.env = env
        self.cfg = cfg
        self.name = name
        self.chunk_bytes = cfg.shm_chunk_bytes
        self.n_slots = cfg.shm_ring_slots
        pages_per_slot = -(-self.chunk_bytes // allocator.page_size)
        self.slot_paddrs: list[int] = []
        self._frames: list[int] = []
        for _ in range(self.n_slots):
            frames = allocator.alloc_many(pages_per_slot)
            self._frames.extend(frames)
            self.slot_paddrs.append(allocator.frame_paddr(frames[0]))
            # Frames of one slot must be contiguous for a flat copy; the
            # deterministic allocator hands out ascending frames, assert it.
            for a, b in zip(frames, frames[1:]):
                if b != a + 1:
                    raise RuntimeError(
                        f"{name}: non-contiguous frames for a ring slot")
        self.memory = allocator.memory
        self.free_slots: Store = Store(env, capacity=self.n_slots)
        for index in range(self.n_slots):
            self.free_slots.try_put(index)
        self.entries: Store = Store(env)
        self._send_seq = 0
        self._recv_seq = 0
        self.messages = 0
        self.allocator = allocator

    # --------------------------------------------------------- sender side
    def next_seq(self) -> int:
        seq = self._send_seq
        self._send_seq += 1
        return seq

    def write_slot(self, slot: int, data: bytes) -> None:
        if len(data) > self.chunk_bytes:
            raise ValueError(
                f"{self.name}: chunk of {len(data)} bytes exceeds slot size "
                f"{self.chunk_bytes}")
        self.memory.write(self.slot_paddrs[slot], data)

    def push(self, entry: ShmEntry) -> None:
        self.entries.try_put(entry)

    # ------------------------------------------------------- receiver side
    def check_sequence(self, entry: ShmEntry) -> None:
        """The receiver-side sequence discipline from the paper."""
        if entry.seq != self._recv_seq:
            raise SequenceError(
                f"{self.name}: entry seq {entry.seq}, expected "
                f"{self._recv_seq}")
        self._recv_seq += 1

    def read_slot(self, slot: int, length: int) -> bytes:
        return self.memory.read(self.slot_paddrs[slot], length)

    def release_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"{self.name}: bad slot {slot}")
        self.free_slots.try_put(slot)

    def destroy(self) -> None:
        for frame in self._frames:
            self.allocator.free(frame)
        self._frames.clear()


class SharedMemoryManager:
    """Per-node registry of intra-node queue pairs."""

    def __init__(self, env: Environment, cfg: CostModel,
                 allocator: FrameAllocator, node_id: int):
        self.env = env
        self.cfg = cfg
        self.allocator = allocator
        self.node_id = node_id
        self._rings: dict[tuple[int, int], SharedRing] = {}

    def ring(self, src_pid: int, dst_pid: int) -> SharedRing:
        """The (lazily created) ring for ordered pair src -> dst."""
        key = (src_pid, dst_pid)
        if key not in self._rings:
            self._rings[key] = SharedRing(
                self.env, self.cfg, self.allocator,
                name=f"node{self.node_id}.shm.{src_pid}->{dst_pid}")
        return self._rings[key]

    def has_ring(self, src_pid: int, dst_pid: int) -> bool:
        return (src_pid, dst_pid) in self._rings

    def destroy_pid(self, pid: int) -> int:
        """Tear down all rings touching an exiting process."""
        victims = [k for k in self._rings if pid in k]
        for key in victims:
            self._rings.pop(key).destroy()
        return len(victims)
