"""Regression: building a fabric stored a route for every node pair.

The 1024-rank fat-tree once built a million-entry route table (about
250 MiB of allocations) and walked every entry, although a run uses a
few thousand pairs.  Routes are now composed from per-switch pieces on
first use, so the build holds O(switches x hosts) pieces and no routes.
"""

from __future__ import annotations

import tracemalloc

from repro.config import DAWNING_3000
from repro.hw.network import build_network
from repro.sim import Environment


def test_thousand_rank_fat_tree_build_stays_small():
    tracemalloc.start()
    try:
        net = build_network(Environment(), DAWNING_3000, 1024,
                            topology="fat_tree")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert net._memo == {}
