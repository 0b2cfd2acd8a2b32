"""Regression: every idle queue in a fabric cost a 760-byte deque.

Each store held three empty ``collections.deque`` objects (items,
getters, putters) and each resource a deque plus a set, as did the
per-endpoint EADI, NIC-pool and BCL queues, so a 256-rank fat-tree
cluster took 67 KiB per rank before it ran a single event.  Waiters
are now lists and a store's item deque is made at its first buffered
item, which brings the build to about 30 KiB per rank.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.cluster import Cluster
from repro.config import DAWNING_3000

N_RANKS = 256
KIB_PER_RANK = 40


def test_fat_tree_cluster_build_stays_under_40_kib_per_rank():
    gc.collect()
    tracemalloc.start()
    try:
        cluster = Cluster(n_nodes=N_RANKS, cfg=DAWNING_3000,
                          topology="fat_tree", observers=())
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_rank = live / 1024 / N_RANKS
    assert len(cluster.nodes) == N_RANKS
    assert per_rank <= KIB_PER_RANK, f"{per_rank:.1f} KiB per rank"
