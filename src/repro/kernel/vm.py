"""Per-process virtual memory: page tables, regions, pinning.

Each simulated user process owns an :class:`AddressSpace` mapping
virtual pages to physical frames.  The BCL kernel module translates
user buffers into physical scatter/gather lists through this page
table, and pins the pages so the NIC's DMA engine can safely target
them — exactly the work the paper keeps in the kernel rather than on
the NIC.

Memory layout: a thousand-rank cluster holds an address space per
process, so the table keeps no Python object per page.  Virtual pages
come from a bump pointer (a guard page after each region, no page ever
reused), and the table is two-level like a hardware MMU's: a directory
maps ``vpage >> 6`` to a *leaf*, one list covering 64 consecutive
pages, which holds their frame numbers (``-1`` for a guard or freed
page) followed by their pin counts.  A rank's space fits in one leaf.
A leaf wholly behind the bump pointer is dropped when its last page is
freed, so alloc/free churn (a kernel-level socket maps and frees a
kernel buffer per datagram, behind a receive pool that stays mapped)
keeps the table as large as what is mapped, not as what was ever
mapped; the leaf the next region lands in is kept.  ``pinned_pages``
is a counter, moved when a page's pin count leaves or reaches zero.
"""

from __future__ import annotations

from repro.hw.memory import FrameAllocator
from repro.kernel.errors import VmFault

__all__ = ["AddressSpace"]

#: Virtual addresses start well above zero so that a zero/low pointer is
#: caught as invalid rather than silently mapping to the first region.
VBASE = 0x1000_0000

#: a leaf covers ``1 << _LEAF_BITS`` consecutive virtual pages
_LEAF_BITS = 6
_LEAF = 1 << _LEAF_BITS
_LEAF_MASK = _LEAF - 1
#: frame slot of a page that is not mapped
_UNMAPPED = -1


class AddressSpace:
    """One process's virtual address space."""

    def __init__(self, allocator: FrameAllocator, pid: int):
        self.allocator = allocator
        self.pid = pid
        self.page_size = allocator.page_size
        #: vpage >> _LEAF_BITS -> leaf: _LEAF frames, then _LEAF pin counts
        self._leaves: dict[int, list[int]] = {}
        self._regions: dict[int, int] = {}      # vaddr -> length
        self._next_vpage = VBASE // self.page_size
        #: pages with a positive pin count
        self.pinned_pages = 0

    # ----------------------------------------------------------- regions
    def alloc(self, nbytes: int) -> int:
        """Allocate a page-aligned region; returns its virtual address."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        n_pages = -(-nbytes // self.page_size)
        frames = self.allocator.alloc_many(n_pages)
        base_vpage = self._next_vpage
        self._next_vpage += n_pages + 1  # guard page between regions
        leaves = self._leaves
        for vpage, frame in enumerate(frames, base_vpage):
            key = vpage >> _LEAF_BITS
            if key not in leaves:
                leaves[key] = [_UNMAPPED] * _LEAF + [0] * _LEAF
            leaves[key][vpage & _LEAF_MASK] = frame
        vaddr = base_vpage * self.page_size
        self._regions[vaddr] = nbytes
        return vaddr

    def free(self, vaddr: int) -> None:
        try:
            nbytes = self._regions.pop(vaddr)
        except KeyError:
            raise VmFault(f"pid {self.pid}: free of unknown region {vaddr:#x}")
        leaves = self._leaves
        pages = self._region_pages(vaddr, nbytes)
        for vpage in pages:
            leaf = leaves[vpage >> _LEAF_BITS]
            slot = vpage & _LEAF_MASK
            if leaf[_LEAF + slot]:
                raise VmFault(
                    f"pid {self.pid}: freeing pinned page {vpage:#x}")
            self.allocator.free(leaf[slot])
            leaf[slot] = _UNMAPPED
        for key in range(pages[0] >> _LEAF_BITS,
                         (pages[-1] >> _LEAF_BITS) + 1):
            if (key + 1) << _LEAF_BITS <= self._next_vpage \
                    and leaves[key].count(_UNMAPPED) == _LEAF:
                del leaves[key]

    def _region_pages(self, vaddr: int, nbytes: int) -> range:
        first = vaddr // self.page_size
        last = (vaddr + max(nbytes, 1) - 1) // self.page_size
        return range(first, last + 1)

    # ------------------------------------------------------- translation
    def is_mapped(self, vaddr: int, nbytes: int) -> bool:
        if vaddr < 0 or nbytes < 0:
            return False
        leaves = self._leaves
        for vpage in self._region_pages(vaddr, nbytes):
            key = vpage >> _LEAF_BITS
            if key not in leaves or leaves[key][vpage & _LEAF_MASK] < 0:
                return False
        return True

    def _frame(self, vpage: int) -> int:
        """Frame of ``vpage``, or ``_UNMAPPED``."""
        leaf = self._leaves.get(vpage >> _LEAF_BITS)
        return _UNMAPPED if leaf is None else leaf[vpage & _LEAF_MASK]

    def translate(self, vaddr: int) -> int:
        """Virtual byte address -> physical byte address."""
        vpage, offset = divmod(vaddr, self.page_size)
        frame = self._frame(vpage)
        if frame < 0:
            raise VmFault(f"pid {self.pid}: unmapped address {vaddr:#x}")
        return frame * self.page_size + offset

    def pages_of(self, vaddr: int, nbytes: int) -> list[int]:
        """Virtual page numbers covering [vaddr, vaddr+nbytes)."""
        if not self.is_mapped(vaddr, nbytes):
            raise VmFault(
                f"pid {self.pid}: range [{vaddr:#x}, +{nbytes}) not mapped")
        return list(self._region_pages(vaddr, nbytes))

    def frame_of(self, vpage: int) -> int:
        frame = self._frame(vpage)
        if frame < 0:
            raise VmFault(f"pid {self.pid}: unmapped page {vpage:#x}")
        return frame

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
            leaves = self._leaves
            vpage, offset = divmod(vaddr, page_size)
            segs: list[tuple[int, int]] = []
            seg_start = seg_end = -1
            remaining = nbytes
            while remaining > 0:
                key = vpage >> _LEAF_BITS
                if key not in leaves:
                    break
                frame = leaves[key][vpage & _LEAF_MASK]
                if frame < 0:
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
        leaves = self._leaves
        for vpage in pages:
            leaf = leaves[vpage >> _LEAF_BITS]
            slot = _LEAF + (vpage & _LEAF_MASK)
            count = leaf[slot]
            if not count:
                self.pinned_pages += 1
            leaf[slot] = count + 1
        return pages

    def unpin_page(self, vpage: int) -> None:
        key = vpage >> _LEAF_BITS
        slot = _LEAF + (vpage & _LEAF_MASK)
        leaves = self._leaves
        count = leaves[key][slot] if key in leaves else 0
        if count <= 0:
            raise VmFault(f"pid {self.pid}: unpin of unpinned page {vpage:#x}")
        leaves[key][slot] = count - 1
        if count == 1:
            self.pinned_pages -= 1

    def is_pinned(self, vpage: int) -> bool:
        key = vpage >> _LEAF_BITS
        leaves = self._leaves
        return key in leaves and leaves[key][_LEAF + (vpage & _LEAF_MASK)] > 0
