"""Regression: a run kept bytes and packets it no longer used.

Host memory stored every touched page as a full zero-filled 4 KiB
buffer, so a 48-byte envelope landing in a system-channel pool buffer
cost a whole page: the 256-rank host barrier stored 68 KiB of page
bytes per rank for a few hundred bytes actually written.  A page now
stores only the prefix up to its highest written byte.

Once a fabric went idle it also held what its last traffic left: every
switch port, link direction and MCP engine kept the last packet it
handled in a generator local until the next one arrived, every drained
store kept its item deque, and every completion queue held a deque of
its own.  Each case below runs a cell with the cluster held and checks
that none of this is left: not in a callback stage's slots (switch
forwarder, link pump, MCP inject engine) and not in the MCP receive
engine's generator frame.
"""

from __future__ import annotations

import gc
from collections import deque
from types import GeneratorType

from repro.bcl.events import CompletionQueue
from repro.cluster import Cluster
from repro.firmware.mcp import Mcp, _Injector
from repro.firmware.packet import Packet
from repro.hw.link import LinkEndpoint
from repro.hw.switch import _Forwarder
from repro.sim import Store
from repro.upper.job import run_spmd

#: callback stages that block on a packet queue
_STAGES = {
    _Forwarder: "switch forwarder",
    LinkEndpoint: "link pump",
    _Injector: "MCP inject engine",
}
#: generator code of the one such stage that is still a process
_ENGINES = {Mcp._recv_engine.__code__: "MCP recv engine"}


def _barrier(ep):
    # The ext-scale cell: a warm-up barrier, then the timed one.
    yield from ep.barrier()
    yield from ep.barrier()


def _holds_packet(value) -> bool:
    if isinstance(value, Packet):
        return True
    return isinstance(value, (tuple, list)) and any(map(_holds_packet, value))


def test_host_barrier_stores_under_1_kib_of_pages_per_rank():
    n_ranks = 256
    cluster = Cluster(n_nodes=n_ranks)
    run_spmd(cluster, n_ranks, _barrier)
    stored = sum(node.memory.resident_bytes for node in cluster.nodes)
    per_rank = stored / 1024 / n_ranks
    assert stored > 0
    assert per_rank <= 1.0, f"{per_rank:.1f} KiB of page bytes per rank"


def test_idle_fat_tree_holds_no_packets_or_deques():
    n_ranks = 64
    cluster = Cluster(n_nodes=n_ranks, topology="fat_tree")
    run_spmd(cluster, n_ranks, _barrier, collectives="nic")
    # The job is done but ACKs are still in flight: run until no event
    # is left, so that every stage is idle.
    cluster.env.run()
    assert cluster.env.peek() is None
    gc.collect()
    stages = {name: 0 for name in (*_STAGES.values(), *_ENGINES.values())}
    holding: list[str] = []
    stores = queues = 0
    bad_stores: list[int] = []
    bad_queues: list[str] = []
    for obj in gc.get_objects():
        if type(obj) in _STAGES:
            stage = _STAGES[type(obj)]
            stages[stage] += 1
            held = [name for name in type(obj).__slots__
                    if _holds_packet(getattr(obj, name))]
            if held:
                holding.append(f"{stage}: {held}")
        elif isinstance(obj, GeneratorType):
            code = obj.gi_code
            if code not in _ENGINES or obj.gi_frame is None:
                continue
            stages[_ENGINES[code]] += 1
            held = [name for name, value in obj.gi_frame.f_locals.items()
                    if _holds_packet(value)]
            if held:
                holding.append(f"{_ENGINES[code]}: {held}")
        elif isinstance(obj, Store):
            stores += 1
            if not len(obj) and isinstance(obj._items, deque):
                bad_stores.append(id(obj))
        elif isinstance(obj, CompletionQueue):
            queues += 1
            if isinstance(obj._events, deque):
                bad_queues.append(obj.name)
    assert all(stages.values()), stages
    assert stores and queues
    assert not holding, f"{len(holding)} idle stages hold a packet, " \
                        f"e.g. {holding[:3]}"
    assert not bad_stores, f"{len(bad_stores)} drained stores hold a deque"
    assert not bad_queues, f"{len(bad_queues)} completion queues hold a " \
                           f"deque, e.g. {bad_queues[:3]}"
