#!/usr/bin/env python
"""Data processing: parallel sample sort over MPI (alltoall-heavy).

Each rank sorts a random block, the job agrees on splitters, exchanges
partitions with a variable-size alltoall built on the collective layer,
and verifies global sortedness — the kind of data-processing kernel the
DAWNING service nodes ran.  Compares tree vs ring allreduce for the
slot-size agreement as a bonus.

Usage::

    python examples/parallel_sort.py [elements_per_rank]
"""

import sys
from dataclasses import dataclass

import numpy as np

from repro import Cluster
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd


@dataclass
class SortResult:
    total_elements: int
    sorted_ok: bool
    balanced: bool
    elapsed_us: float


def run_sample_sort(cluster: Cluster, n_ranks: int = 4,
                    elements_per_rank: int = 2048,
                    seed: int = 11,
                    placement=None) -> SortResult:
    """Parallel sample sort over MPI: the alltoall-heavy kernel.

    Each rank sorts a local block, ranks agree on splitters (gathered
    samples, broadcast), partition their data, exchange partitions with
    a variable-size alltoall (sizes first, then data), and locally
    merge.  Verifies global sortedness and rough balance.
    """
    t0 = cluster.env.now
    state: dict = {}

    def fn(ep):
        rng = np.random.default_rng(seed + ep.rank)
        local = np.sort(rng.integers(0, 1 << 30, size=elements_per_rank)
                        .astype(np.int64))
        n = ep.size
        # 1. Sample and agree on splitters.
        samples = local[:: max(1, elements_per_rank // n)][:n]
        sample_buf = ep.scratch(max(samples.nbytes, 1), slot=6)
        ep.proc.write(sample_buf, samples.tobytes())
        gathered = yield from ep.gather(sample_buf, samples.nbytes, root=0)
        splitter_bytes = 8 * (n - 1)
        splitter_buf = ep.scratch(max(splitter_bytes, 1), slot=7)
        if ep.rank == 0:
            pool = np.sort(np.concatenate(
                [np.frombuffer(g, dtype=np.int64) for g in gathered]))
            splitters = pool[len(pool) // n:: len(pool) // n][:n - 1]
            ep.proc.write(splitter_buf, splitters.tobytes())
        yield from ep.bcast(splitter_buf, splitter_bytes, root=0)
        splitters = np.frombuffer(ep.proc.read(splitter_buf,
                                               splitter_bytes),
                                  dtype=np.int64)
        # 2. Partition the local data by splitter.
        bounds = np.searchsorted(local, splitters)
        partitions = np.split(local, bounds)
        # 3. Exchange partition sizes (fixed-size alltoall) ...
        size_blocks = [np.array([p.nbytes], dtype=np.int64).tobytes()
                       for p in partitions]
        incoming_sizes = yield from ep.alltoall(size_blocks, 8)
        sizes = [int(np.frombuffer(b, dtype=np.int64)[0])
                 for b in incoming_sizes]
        # 4. ... then the data, padded to a globally-agreed slot size
        # (a variable alltoall implemented over the fixed-block one;
        # the slot must be the max over *all* ranks' partitions, so
        # agree on it with an allreduce).
        local_max = max(max(p.nbytes for p in partitions), max(sizes), 8)
        agreed = yield from ep.allreduce(
            np.array([local_max], dtype=np.float64), op="max")
        slot = int(agreed[0])
        data_blocks = [p.tobytes().ljust(slot, b"\0") for p in partitions]
        incoming = yield from ep.alltoall(data_blocks, slot)
        pieces = [np.frombuffer(blob[:size], dtype=np.int64)
                  for blob, size in zip(incoming, sizes)]
        merged = np.sort(np.concatenate(pieces)) if pieces else \
            np.empty(0, dtype=np.int64)
        # 5. Verify the global order property with neighbours.
        edge = ep.scratch(8, slot=8)
        my_max = merged[-1] if len(merged) else np.int64(-1)
        ep.proc.write(edge, np.array([my_max]).tobytes())
        edges = yield from ep.gather(edge, 8, root=0)
        if ep.rank == 0:
            maxima = [int(np.frombuffer(e, dtype=np.int64)[0])
                      for e in edges]
            state["maxima"] = maxima
        return (len(merged),
                bool(np.all(merged[:-1] <= merged[1:])))

    results = run_spmd(cluster, n_ranks, fn, placement=placement,
                       n_channels=16)
    counts = [r[0] for r in results]
    locally_sorted = all(r[1] for r in results)
    globally_sorted = state["maxima"] == sorted(state["maxima"])
    total = sum(counts)
    balanced = max(counts) < 3 * elements_per_rank
    return SortResult(total_elements=total,
                      sorted_ok=locally_sorted and globally_sorted
                      and total == n_ranks * elements_per_rank,
                      balanced=balanced,
                      elapsed_us=ns_to_us(cluster.env.now - t0))


def main() -> None:
    elements = int(sys.argv[1]) if len(sys.argv) > 1 else 4096
    n_ranks = 4
    print(f"sample-sorting {n_ranks} x {elements} random int64s over MPI "
          f"on {n_ranks} nodes...")
    result = run_sample_sort(Cluster(n_nodes=n_ranks), n_ranks=n_ranks,
                             elements_per_rank=elements)
    print(f"  elements        : {result.total_elements}")
    print(f"  globally sorted : {result.sorted_ok}")
    print(f"  load balanced   : {result.balanced} "
          "(no rank holds >3x its fair share)")
    print(f"  simulated time  : {result.elapsed_us:,.1f} us")
    if not result.sorted_ok:
        raise SystemExit("sort verification failed")

    print("\nsame sort with ranks packed 2-per-node:")
    packed = run_sample_sort(Cluster(n_nodes=2), n_ranks=n_ranks,
                             elements_per_rank=elements,
                             placement=[0, 0, 1, 1])
    print(f"  simulated time  : {packed.elapsed_us:,.1f} us "
          f"({result.elapsed_us / packed.elapsed_us:.2f}x vs all-remote)")
    assert packed.sorted_ok


if __name__ == "__main__":
    main()
