"""Host physical memory: a sparse byte store plus a page-frame allocator.

The DAWNING-3000 nodes carry "large capacity of memory"; the paper's
whole argument for kernel-side address translation is that NIC-resident
translation caches stop scaling there.  We therefore model memory
page-accurately: virtual address spaces (:mod:`repro.kernel.vm`) map
onto page frames handed out by :class:`FrameAllocator`, and DMA works
on *physical* segment lists exactly as the BCL kernel module produces
them.

The model costs host RAM for what a run writes, not for what it maps.
A page stores the prefix up to its highest written byte (a 48-byte
envelope landing in a 4 KiB system-channel pool buffer stores 48
bytes, not 4,096), and the allocator keeps no per-frame set.  Reads
are byte-identical to a flat zero-filled store either way.
"""

from __future__ import annotations

import heapq
from typing import Iterable

__all__ = ["PhysicalMemory", "FrameAllocator", "OutOfMemoryError"]


class OutOfMemoryError(MemoryError):
    """No free page frames left."""


class PhysicalMemory:
    """Byte-addressable physical memory, materialized page by page.

    A page springs into existence on its first write and stores only
    the prefix up to the highest byte ever written to it; everything
    past that prefix, and every untouched page, reads as zeros.  That
    is byte-identical to a flat zero-filled store, but a thousand-node
    cluster no longer commits ``n_nodes * size`` of host RAM up front,
    nor 4 KiB for every page that only ever held a 48-byte envelope.
    """

    def __init__(self, size: int, page_size: int = 4096):
        if size <= 0 or size % page_size:
            raise ValueError(
                f"memory size {size} must be a positive multiple of the "
                f"page size {page_size}")
        self.size = size
        self.page_size = page_size
        #: page index -> stored prefix (never longer than a page)
        self._pages: dict[int, bytearray] = {}

    @property
    def resident_bytes(self) -> int:
        """Bytes the model stores: the sum of every page's prefix."""
        return sum(map(len, self._pages.values()))

    def read(self, paddr: int, length: int) -> bytes:
        self._check(paddr, length)
        ps = self.page_size
        if length and paddr // ps == (paddr + length - 1) // ps:
            # Fast path: within one page.
            page = self._pages.get(paddr // ps)
            if page is None:
                return bytes(length)
            offset = paddr % ps
            return bytes(page[offset:offset + length]).ljust(length, b"\0")
        out = bytearray(length)
        pos = 0
        while pos < length:
            index, offset = divmod(paddr + pos, ps)
            take = min(ps - offset, length - pos)
            page = self._pages.get(index)
            if page is not None:
                stored = page[offset:offset + take]
                out[pos:pos + len(stored)] = stored
            pos += take
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        self._check(paddr, len(data))
        ps = self.page_size
        pages = self._pages
        length = len(data)
        pos = 0
        while pos < length:
            index, offset = divmod(paddr + pos, ps)
            take = min(ps - offset, length - pos)
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(offset)
            elif len(page) < offset:
                page.extend(bytes(offset - len(page)))
            # Overwrites the stored bytes and appends whatever lies past
            # the prefix, so the page grows to the highest written byte.
            page[offset:offset + take] = data[pos:pos + take]
            pos += take

    def read_gather(self, segments: Iterable[tuple[int, int]]) -> bytes:
        """Read a physical scatter/gather list into one buffer."""
        return b"".join(self.read(paddr, length) for paddr, length in segments)

    def write_scatter(self, segments: Iterable[tuple[int, int]],
                      data: bytes) -> None:
        """Write ``data`` across a physical scatter/gather list."""
        offset = 0
        for paddr, length in segments:
            self.write(paddr, data[offset:offset + length])
            offset += length
        if offset != len(data):
            raise ValueError(
                f"scatter list covers {offset} bytes, data has {len(data)}")

    def _check(self, paddr: int, length: int) -> None:
        if paddr < 0 or length < 0 or paddr + length > self.size:
            raise ValueError(
                f"physical access [{paddr}, {paddr + length}) outside "
                f"memory of size {self.size}")


class FrameAllocator:
    """Hands out page frames of a :class:`PhysicalMemory`.

    Frames are recycled lowest-index-first so allocation is
    deterministic; double-free is an error because it would silently
    alias two virtual pages onto one frame.
    """

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory
        self.page_size = memory.page_size
        self.n_frames = memory.size // memory.page_size
        # Never-allocated frames live behind a bump pointer; freed ones
        # in a min-heap.  alloc() always returns the lowest free frame
        # (layouts reproducible across runs), exactly like the former
        # pre-built descending free list, without O(n_frames) setup.
        # A frame is allocated iff it is below the bump pointer and not
        # recycled; ``_recycled_set`` mirrors the heap for that test.
        self._next_fresh = 0
        self._recycled: list[int] = []
        self._recycled_set: set[int] = set()

    @property
    def free_frames(self) -> int:
        return self.n_frames - self._next_fresh + len(self._recycled)

    def alloc(self) -> int:
        """Allocate one frame (the lowest free); returns its number."""
        if self._recycled:
            frame = heapq.heappop(self._recycled)
            self._recycled_set.remove(frame)
        elif self._next_fresh < self.n_frames:
            frame = self._next_fresh
            self._next_fresh += 1
        else:
            raise OutOfMemoryError(
                f"all {self.n_frames} page frames are allocated")
        return frame

    def alloc_many(self, count: int) -> list[int]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count > self.free_frames:
            raise OutOfMemoryError(
                f"requested {count} frames, only {self.free_frames} free")
        return [self.alloc() for _ in range(count)]

    def free(self, frame: int) -> None:
        if not 0 <= frame < self._next_fresh or frame in self._recycled_set:
            raise ValueError(f"frame {frame} is not allocated")
        self._recycled_set.add(frame)
        heapq.heappush(self._recycled, frame)

    def frame_paddr(self, frame: int) -> int:
        if not 0 <= frame < self.n_frames:
            raise ValueError(f"frame {frame} out of range")
        return frame * self.page_size
