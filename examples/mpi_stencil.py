#!/usr/bin/env python
"""Technical computing: a 2-D heat stencil with MPI over BCL.

Four MPI ranks (one per simulated node) run Jacobi iterations on a
row-partitioned grid, exchanging halo rows each step; the distributed
result is verified against a single-process reference computation.
This is the "high performance computing and data processing" usage the
paper's computing nodes serve.

Usage::

    python examples/mpi_stencil.py [rows] [iterations]
"""

import sys
from dataclasses import dataclass

import numpy as np

from repro import Cluster
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd


@dataclass
class StencilResult:
    iterations: int
    grid: np.ndarray           # final assembled grid
    elapsed_us: float
    residual: float


def run_stencil(cluster: Cluster, n_ranks: int = 4, rows: int = 64,
                cols: int = 64, iterations: int = 10,
                placement=None) -> StencilResult:
    """2-D Jacobi heat diffusion with MPI halo exchange.

    The grid is split row-wise across ranks; each iteration exchanges
    boundary rows with neighbours (sendrecv), then applies the 5-point
    stencil.  Returns the reassembled grid so callers can verify
    against a single-process reference.
    """
    if rows % n_ranks:
        raise ValueError(f"rows={rows} must divide evenly by {n_ranks}")
    local_rows = rows // n_ranks
    row_bytes = cols * 8
    t0 = cluster.env.now

    def fn(ep):
        rank, size = ep.rank, ep.size
        # Local block with two ghost rows.
        block = np.zeros((local_rows + 2, cols))
        # Initial condition: hot left edge, plus a hot top edge on rank 0.
        block[:, 0] = 100.0
        if rank == 0:
            block[1, :] = 100.0
        up, down = rank - 1, rank + 1
        send_buf = ep.alloc(row_bytes)
        recv_buf = ep.alloc(row_bytes)
        residual = 0.0
        for it in range(iterations):
            tag = 2 * it
            # Exchange downward (my last real row -> neighbour's top ghost).
            if down < size:
                ep.proc.write(send_buf, block[local_rows, :].tobytes())
                op = yield from ep.isend(down, send_buf, row_bytes, tag)
            if up >= 0:
                yield from ep.recv(up, tag, recv_buf, row_bytes)
                block[0, :] = np.frombuffer(ep.proc.read(recv_buf,
                                                         row_bytes))
            if down < size:
                yield from ep.wait(op)
            # Exchange upward.
            if up >= 0:
                ep.proc.write(send_buf, block[1, :].tobytes())
                op = yield from ep.isend(up, send_buf, row_bytes, tag + 1)
            if down < size:
                yield from ep.recv(down, tag + 1, recv_buf, row_bytes)
                block[local_rows + 1, :] = np.frombuffer(
                    ep.proc.read(recv_buf, row_bytes))
            if up >= 0:
                yield from ep.wait(op)
            # Jacobi update on interior points.
            new = block.copy()
            new[1:local_rows + 1, 1:-1] = 0.25 * (
                block[:local_rows, 1:-1] + block[2:, 1:-1]
                + block[1:local_rows + 1, :-2] + block[1:local_rows + 1, 2:])
            # Physical boundaries stay fixed.
            new[:, 0] = block[:, 0]
            new[:, -1] = block[:, -1]
            if rank == 0:
                new[1, :] = block[1, :]
            if rank == size - 1:
                new[local_rows, :] = block[local_rows, :]
            residual = float(np.abs(new - block).max())
            block = new
        # Gather the blocks on rank 0.
        flat = ep.alloc(local_rows * row_bytes)
        ep.proc.write(flat, block[1:local_rows + 1, :].tobytes())
        blocks = yield from ep.gather(flat, local_rows * row_bytes, root=0)
        local_residual = np.array([residual])
        max_residual = yield from ep.reduce(local_residual, op="max",
                                            root=0)
        if ep.rank == 0:
            grid = np.vstack([np.frombuffer(b).reshape(local_rows, cols)
                              for b in blocks])
            return grid, float(max_residual[0])
        return None

    results = run_spmd(cluster, n_ranks, fn, placement=placement)
    grid, residual = results[0]
    return StencilResult(iterations=iterations, grid=grid,
                         elapsed_us=ns_to_us(cluster.env.now - t0),
                         residual=residual)


def reference_stencil(rows: int = 64, cols: int = 64,
                      iterations: int = 10) -> np.ndarray:
    """Single-process reference for :func:`run_stencil` verification."""
    grid = np.zeros((rows, cols))
    grid[:, 0] = 100.0
    grid[0, :] = 100.0
    for _ in range(iterations):
        new = grid.copy()
        new[1:-1, 1:-1] = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                                  + grid[1:-1, :-2] + grid[1:-1, 2:])
        new[:, 0] = grid[:, 0]
        new[:, -1] = grid[:, -1]
        new[0, :] = grid[0, :]
        new[-1, :] = grid[-1, :]
        grid = new
    return grid


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    iterations = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    n_ranks = 4

    print(f"running a {rows}x{rows} Jacobi stencil for {iterations} "
          f"iterations on {n_ranks} MPI ranks (one per node)...")
    cluster = Cluster(n_nodes=n_ranks)
    result = run_stencil(cluster, n_ranks=n_ranks, rows=rows, cols=rows,
                         iterations=iterations)
    reference = reference_stencil(rows, rows, iterations)

    ok = np.allclose(result.grid, reference)
    print(f"  simulated time      : {result.elapsed_us:,.1f} us")
    print(f"  final max residual  : {result.residual:.4f}")
    print(f"  matches reference   : {ok}")
    print(f"  traps taken         : {cluster.total_traps} "
          f"(send-path only; receives never trap)")
    print(f"  interrupts          : {cluster.total_interrupts} "
          f"(the semi-user-level architecture needs none)")
    if not ok:
        raise SystemExit("distributed result diverged from the reference")

    print("\nsame stencil with ranks packed 2-per-node "
          "(halo exchange through shared memory):")
    packed = run_stencil(Cluster(n_nodes=2), n_ranks=n_ranks, rows=rows,
                         cols=rows, iterations=iterations,
                         placement=[0, 0, 1, 1])
    print(f"  simulated time      : {packed.elapsed_us:,.1f} us "
          f"({result.elapsed_us / packed.elapsed_us:.2f}x vs all-remote)")
    assert np.allclose(packed.grid, reference)


if __name__ == "__main__":
    main()
