"""NIC-side address-translation cache (user-level baseline only).

VMMC-2 and U-Net let the network interface cache a limited number of
virtual-to-physical translations.  The paper's case *against* this is
quantitative: NIC memory is small and the NIC processor slow, so on
nodes with large memory the cache hit rate collapses and translation
cost lands on the critical path.  BCL instead translates in the kernel
(one trap, host-speed lookup).

:class:`NicTlb` is an LRU cache of per-page translations with distinct
hit and miss costs; the user-level baseline consults it on every send
and the ablation benchmark sweeps working-set size against capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from repro.config import CostModel
from repro.sim import Environment, Tracer

__all__ = ["NicTlb"]


class NicTlb:
    """LRU translation cache on the NIC, keyed by (pid, virtual page)."""

    def __init__(self, env: Environment, cfg: CostModel, name: str,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.cfg = cfg
        self.name = name
        self.tracer = tracer
        self.capacity = cfg.nic_tlb_entries
        self._entries: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, pid: int, vpage: int,
               fetch_translation, message_id: Optional[int] = None
               ) -> Generator:
        """Translate one page, charging hit or miss cost.

        ``fetch_translation(pid, vpage) -> pframe`` is consulted on a
        miss; it models the host-memory page-table fetch the NIC does
        by DMA.  Returns the physical frame via the generator's value.
        """
        key = (pid, vpage)
        start = self.env.now
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            yield self.env.timeout(self.cfg.ns.nic_tlb_hit)
            frame = self._entries[key]
            outcome = "nic_tlb_hit"
        else:
            self.misses += 1
            yield self.env.timeout(self.cfg.ns.nic_tlb_miss)
            frame = fetch_translation(pid, vpage)
            self._insert(key, frame)
            outcome = "nic_tlb_miss"
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(start, self.env.now, "mcp", outcome, self.name,
                          message_id, vpage=vpage)
        return frame

    def invalidate(self, pid: int, vpage: Optional[int] = None) -> None:
        """Drop entries for a page, or all of a process's entries."""
        if vpage is not None:
            self._entries.pop((pid, vpage), None)
            return
        for key in [k for k in self._entries if k[0] == pid]:
            del self._entries[key]

    def _insert(self, key: tuple[int, int], frame: int) -> None:
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = frame

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
