"""Per-process virtual memory: page tables, regions, pinning.

Each simulated user process owns an :class:`AddressSpace` mapping
virtual pages to physical frames.  The BCL kernel module translates
user buffers into physical scatter/gather lists through this page
table, and pins the pages so the NIC's DMA engine can safely target
them — exactly the work the paper keeps in the kernel rather than on
the NIC.
"""

from __future__ import annotations

from typing import Iterator

from repro.hw.memory import FrameAllocator
from repro.kernel.errors import VmFault

__all__ = ["AddressSpace"]

#: Virtual addresses start well above zero so that a zero/low pointer is
#: caught as invalid rather than silently mapping to the first region.
VBASE = 0x1000_0000


class AddressSpace:
    """One process's virtual address space."""

    def __init__(self, allocator: FrameAllocator, pid: int):
        self.allocator = allocator
        self.pid = pid
        self.page_size = allocator.page_size
        self._page_table: dict[int, int] = {}   # vpage -> frame
        self._pin_counts: dict[int, int] = {}   # vpage -> pin count
        self._regions: dict[int, int] = {}      # vaddr -> length
        self._next_vpage = VBASE // self.page_size

    # ----------------------------------------------------------- regions
    def alloc(self, nbytes: int) -> int:
        """Allocate a page-aligned region; returns its virtual address."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        n_pages = -(-nbytes // self.page_size)
        frames = self.allocator.alloc_many(n_pages)
        base_vpage = self._next_vpage
        self._next_vpage += n_pages + 1  # guard page between regions
        for i, frame in enumerate(frames):
            self._page_table[base_vpage + i] = frame
        vaddr = base_vpage * self.page_size
        self._regions[vaddr] = nbytes
        return vaddr

    def free(self, vaddr: int) -> None:
        try:
            nbytes = self._regions.pop(vaddr)
        except KeyError:
            raise VmFault(f"pid {self.pid}: free of unknown region {vaddr:#x}")
        for vpage in self._region_pages(vaddr, nbytes):
            if self._pin_counts.get(vpage, 0):
                raise VmFault(
                    f"pid {self.pid}: freeing pinned page {vpage:#x}")
            self.allocator.free(self._page_table.pop(vpage))

    def _region_pages(self, vaddr: int, nbytes: int) -> range:
        first = vaddr // self.page_size
        last = (vaddr + max(nbytes, 1) - 1) // self.page_size
        return range(first, last + 1)

    # ------------------------------------------------------- translation
    def is_mapped(self, vaddr: int, nbytes: int) -> bool:
        if vaddr < 0 or nbytes < 0:
            return False
        return all(vpage in self._page_table
                   for vpage in self._region_pages(vaddr, nbytes))

    def translate(self, vaddr: int) -> int:
        """Virtual byte address -> physical byte address."""
        vpage, offset = divmod(vaddr, self.page_size)
        try:
            frame = self._page_table[vpage]
        except KeyError:
            raise VmFault(f"pid {self.pid}: unmapped address {vaddr:#x}")
        return frame * self.page_size + offset

    def pages_of(self, vaddr: int, nbytes: int) -> list[int]:
        """Virtual page numbers covering [vaddr, vaddr+nbytes)."""
        if not self.is_mapped(vaddr, nbytes):
            raise VmFault(
                f"pid {self.pid}: range [{vaddr:#x}, +{nbytes}) not mapped")
        return list(self._region_pages(vaddr, nbytes))

    def frame_of(self, vpage: int) -> int:
        try:
            return self._page_table[vpage]
        except KeyError:
            raise VmFault(f"pid {self.pid}: unmapped page {vpage:#x}")

    def segments(self, vaddr: int, nbytes: int) -> list[tuple[int, int]]:
        """Physical scatter/gather list for a virtual range.

        Adjacent pages that land on adjacent frames are coalesced, the
        way a real driver builds DMA descriptors.
        """
        if nbytes == 0:
            return []
        if vaddr >= 0 and nbytes > 0:
            # One walk over the page table: translate and coalesce page
            # by page, and fault at the first unmapped page.
            page_size = self.page_size
            table = self._page_table
            vpage, offset = divmod(vaddr, page_size)
            segs: list[tuple[int, int]] = []
            seg_start = seg_end = -1
            remaining = nbytes
            while remaining > 0:
                frame = table.get(vpage)
                if frame is None:
                    break
                paddr = frame * page_size + offset
                length = page_size - offset
                if length > remaining:
                    length = remaining
                if paddr != seg_end:
                    if seg_end >= 0:
                        segs.append((seg_start, seg_end - seg_start))
                    seg_start = paddr
                seg_end = paddr + length
                remaining -= length
                vpage += 1
                offset = 0
            else:
                segs.append((seg_start, seg_end - seg_start))
                return segs
        raise VmFault(
            f"pid {self.pid}: range [{vaddr:#x}, +{nbytes}) not mapped")

    # -------------------------------------------------------- data access
    def write(self, vaddr: int, data: bytes) -> None:
        """Store bytes at a virtual address (process-local, zero cost)."""
        self.allocator.memory.write_scatter(self.segments(vaddr, len(data)),
                                            data)

    def read(self, vaddr: int, nbytes: int) -> bytes:
        """Load bytes from a virtual address (process-local, zero cost)."""
        return self.allocator.memory.read_gather(self.segments(vaddr, nbytes))

    # ------------------------------------------------------------ pinning
    def pin(self, vaddr: int, nbytes: int) -> list[int]:
        """Pin the pages of a range; returns the pinned vpage numbers."""
        pages = self.pages_of(vaddr, nbytes)
        for vpage in pages:
            self._pin_counts[vpage] = self._pin_counts.get(vpage, 0) + 1
        return pages

    def unpin_page(self, vpage: int) -> None:
        count = self._pin_counts.get(vpage, 0)
        if count <= 0:
            raise VmFault(f"pid {self.pid}: unpin of unpinned page {vpage:#x}")
        if count == 1:
            del self._pin_counts[vpage]
        else:
            self._pin_counts[vpage] = count - 1

    def is_pinned(self, vpage: int) -> bool:
        return self._pin_counts.get(vpage, 0) > 0

    @property
    def pinned_pages(self) -> int:
        return len(self._pin_counts)

    def iter_regions(self) -> Iterator[tuple[int, int]]:
        return iter(self._regions.items())
