"""Application kernels for the three motivating domains.

These exercise the public APIs the way a real DAWNING-3000 user would:
MPI for scientific computing, raw BCL messaging for services, and
open-channel RMA for data serving.

The stencil and the sample sort import numpy when they are called; the
service and key-value kernels move raw bytes and do not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.firmware.packet import ChannelKind
from repro.sim import Store
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd

if TYPE_CHECKING:  # annotation-only: the array kernels import numpy
    import numpy as np

__all__ = ["run_stencil", "run_request_service", "run_kv_store",
           "run_sample_sort", "StencilResult", "ServiceResult",
           "KvResult", "SortResult"]


# ---------------------------------------------------------------- stencil
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
    import numpy as np
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
    import numpy as np
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


# ----------------------------------------------------------- request service
@dataclass
class ServiceResult:
    requests: int
    mean_response_us: float
    dropped: int


def run_request_service(cluster: Cluster, n_clients: int = 3,
                        requests_each: int = 5,
                        request_bytes: int = 256,
                        response_bytes: int = 1024) -> ServiceResult:
    """A server node answering small requests from client nodes.

    Models the paper's Internet-service scenario: clients fire
    request datagrams at the server's system channel; the server
    parses, "works", and replies to the client's system channel.
    """
    env = cluster.env
    ready: Store = Store(env)
    response_times: list[float] = []
    total = n_clients * requests_each

    def server():
        proc = cluster.spawn(0)
        port = yield from BclLibrary(proc).create_port(
            system_pool_buffers=64)
        for _ in range(n_clients):
            ready.try_put(port.address)
        reply = proc.alloc(response_bytes)
        proc.write(reply, b"R" * response_bytes)
        served = 0
        while served < total:
            event = yield from port.wait_recv()
            data = yield from port.recv_system(event)
            client_node = int(data[0])
            client_port = int.from_bytes(data[1:5], "little")
            # service time: parse + lookup
            yield from proc.cpu.execute(5.0, category="app",
                                        stage="service_request")
            from repro.bcl.address import BclAddress
            yield from port.send_system(
                BclAddress(client_node, client_port), reply, response_bytes)
            served += 1

    def client(node_id: int):
        proc = cluster.spawn(node_id)
        port = yield from BclLibrary(proc).create_port()
        server_address = yield ready.get()
        req = proc.alloc(request_bytes)
        header = bytes([node_id]) + port.port_id.to_bytes(4, "little")
        proc.write(req, header + b"q" * (request_bytes - len(header)))
        for _ in range(requests_each):
            t0 = env.now
            yield from port.send_system(server_address, req, request_bytes)
            event = yield from port.wait_recv()
            yield from port.recv_system(event)
            response_times.append(ns_to_us(env.now - t0))

    procs = [env.process(server(), name="svc.server")]
    procs += [env.process(client(i), name=f"svc.client{i}")
              for i in range(1, n_clients + 1)]
    env.run(until=env.all_of(procs))
    dropped = cluster.node(0).nic.ports and \
        list(cluster.node(0).nic.ports.values())[0].system_dropped
    return ServiceResult(requests=len(response_times),
                         mean_response_us=sum(response_times)
                         / len(response_times),
                         dropped=int(dropped))


# ------------------------------------------------------------------ kv store
@dataclass
class KvResult:
    reads: int
    mean_read_us: float
    correct: bool


def run_kv_store(cluster: Cluster, n_partitions: int = 3,
                 slots_per_partition: int = 64, value_bytes: int = 512,
                 reads: int = 20) -> KvResult:
    """A partitioned in-memory store served by one-sided RMA reads.

    Each storage node binds its partition (an array of fixed-size value
    slots) to an open channel; the client computes the partition and
    slot for each key and issues an ``rma_read`` — no storage-node CPU
    involvement per read, the database-service scenario the paper's
    security discussion worries about.
    """
    env = cluster.env
    ready: Store = Store(env)
    read_times: list[float] = []
    correct = True

    def value_for(partition: int, slot: int) -> bytes:
        seed = (partition * 131 + slot * 17) % 251
        return bytes((seed + j) % 256 for j in range(value_bytes))

    def storage(node_id: int, partition: int):
        proc = cluster.spawn(node_id)
        port = yield from BclLibrary(proc).create_port()
        region = proc.alloc(slots_per_partition * value_bytes)
        for slot in range(slots_per_partition):
            proc.write(region + slot * value_bytes, value_for(partition,
                                                              slot))
        yield from port.bind_open(0, region,
                                  slots_per_partition * value_bytes)
        ready.try_put((partition, port.address))

    def client():
        nonlocal correct
        proc = cluster.spawn(0)
        port = yield from BclLibrary(proc).create_port()
        partitions = {}
        for _ in range(n_partitions):
            partition, address = yield ready.get()
            partitions[partition] = address
        local = proc.alloc(value_bytes)
        for i in range(reads):
            partition = i % n_partitions
            slot = (i * 7) % slots_per_partition
            dest = partitions[partition].with_channel(ChannelKind.OPEN, 0)
            t0 = env.now
            yield from port.rma_read(dest, local, value_bytes,
                                     remote_offset=slot * value_bytes)
            yield from port.wait_recv()
            read_times.append(ns_to_us(env.now - t0))
            if proc.read(local, value_bytes) != value_for(partition, slot):
                correct = False

    procs = [env.process(storage(i + 1, i), name=f"kv.part{i}")
             for i in range(n_partitions)]
    procs.append(env.process(client(), name="kv.client"))
    env.run(until=env.all_of(procs))
    return KvResult(reads=len(read_times),
                    mean_read_us=sum(read_times) / len(read_times),
                    correct=correct)


# ------------------------------------------------------------- sample sort
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
    import numpy as np
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
