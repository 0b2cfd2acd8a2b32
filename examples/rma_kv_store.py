#!/usr/bin/env python
"""Database service: a partitioned key-value store read via RMA.

Storage nodes bind their partitions to BCL open channels; a client
issues one-sided ``rma_read`` operations, so lookups complete without
involving any storage-node CPU — the NIC streams the value straight
out of the bound buffer.  This exercises the open-channel machinery
and shows why kernel-enforced channel bounds matter in the paper's
multi-user superserver setting.

Usage::

    python examples/rma_kv_store.py
"""

from dataclasses import dataclass

from repro import Cluster
from repro.bcl.api import BclLibrary
from repro.firmware.packet import ChannelKind
from repro.sim import Store
from repro.sim.time import ns_to_us


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


def main() -> None:
    n_partitions = 3
    print(f"starting a {n_partitions}-partition RMA key-value store "
          "(one storage node per partition + one client node)...")
    cluster = Cluster(n_nodes=n_partitions + 1)
    result = run_kv_store(cluster, n_partitions=n_partitions,
                          slots_per_partition=64, value_bytes=512,
                          reads=30)
    print(f"  reads executed   : {result.reads}")
    print(f"  mean read latency: {result.mean_read_us:.2f} us "
          "(one-sided: request packet + NIC-served data return)")
    print(f"  values correct   : {result.correct}")

    # Storage-node CPUs stay idle during reads: that is the point of RMA.
    storage_cpu_ns = sum(cpu.busy_ns
                         for node in cluster.nodes[1:]
                         for cpu in node.cpus)
    print(f"  storage-node CPU : {storage_cpu_ns / 1000:.1f} us total "
          "(setup only; zero per-read host work)")
    if not result.correct:
        raise SystemExit("kv store returned corrupted values")


if __name__ == "__main__":
    main()
