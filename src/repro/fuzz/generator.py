"""Seeded random workload generation and execution.

A :class:`WorkloadSpec` is a frozen, seed-reproducible description of a
small communication program: which protocol layer it drives (raw BCL,
EADI, MPI or PVM), how many ranks on how many nodes (intra- and
inter-node mixes fall out of random placement), the operation list
(point-to-point sends in blocking and non-blocking flavours, RMA reads
and writes, system-channel messages, collectives), and an optional
:class:`~repro.faults.FaultPlan`.

:func:`run_workload` executes a spec on a fresh cluster under a chosen
tie-break policy and returns a :class:`RunResult` whose ``delivery``
field is the *canonical delivery record*: per rank, the sorted multiset
of everything that rank received (kind, peer, tag, length, CRC-32 of
the payload).  The record deliberately contains no timestamps — two
runs of the same spec under different legal schedules must produce the
same record, which is exactly the differential oracle
:mod:`repro.fuzz.oracles` checks.

Programs are deadlock-free by construction: every rank walks the global
operation list in order, so each rank's next pending operation is
always the globally smallest one it participates in, and blocked
operations keep the EADI progress engine running (credit returns, CTS
grants and unexpected arrivals are all serviced while waiting).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from random import Random
from typing import Generator, Iterable, Optional

from repro.bcl.address import BclAddress
from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.config import DAWNING_3000, LOSSY_DAWNING
from repro.faults import FaultPlan, derive_seed
from repro.firmware.descriptors import EventKind
from repro.firmware.packet import ChannelKind
from repro.sim import Environment, Store
from repro.upper.job import run_spmd

__all__ = [
    "OpSpec",
    "RunResult",
    "WorkloadSpec",
    "generate_workload",
    "run_workload",
    "workload_seed",
]

#: operation kinds by layer
ENDPOINT_KINDS = ("p2p", "p2p_nb", "bcast", "allreduce", "barrier")
BCL_KINDS = ("bcl_send", "bcl_system", "rma_write", "rma_read")

#: fuzz ports start here (clear of job ranks at 100 and ad-hoc tests)
FUZZ_PORT_BASE = 200
#: per-rank open-channel binding used by RMA ops
_RMA_CHANNEL = 0
_RMA_BIND_BYTES = 1 << 17
#: largest rendezvous payload the generator emits (2+ segments)
_MAX_P2P_BYTES = 140_000
#: system-channel payloads must fit a default pool buffer
_MAX_SYSTEM_BYTES = 2048
_MAX_RMA_BYTES = 16_384


@dataclass(frozen=True)
class OpSpec:
    """One communication operation of a generated workload."""

    kind: str                  # see ENDPOINT_KINDS / BCL_KINDS
    src: int                   # sending rank (root for collectives)
    dst: int                   # receiving rank (== src for collectives)
    nbytes: int
    tag: int


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible random workload (plain data: picklable, repr-able,
    hashable by content via its fields)."""

    seed: int
    layer: str                 # "bcl" | "eadi" | "mpi" | "pvm"
    n_nodes: int
    n_ranks: int
    placement: tuple[int, ...]
    ops: tuple[OpSpec, ...]
    fault_plan: Optional[FaultPlan] = None

    def describe(self) -> str:
        kinds: dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        mix = ", ".join(f"{k}x{v}" for k, v in sorted(kinds.items()))
        plan = f", {self.fault_plan.describe()}" if self.fault_plan else ""
        return (f"workload(seed={self.seed}, {self.layer}, "
                f"{self.n_ranks} ranks / {self.n_nodes} nodes, "
                f"[{mix}]{plan})")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one execution of a workload spec.

    ``delivery`` is the canonical (schedule-invariant) delivery record;
    ``now``/``counters`` additionally pin the full timing and telemetry
    for the byte-identity oracles (audit transparency).
    """

    delivery: tuple
    now: int
    counters: tuple


def workload_seed(base_seed: int, index: int) -> int:
    """The seed of the ``index``-th workload of a campaign."""
    return derive_seed(base_seed, f"workload-{index}")


def _crc(data: bytes) -> int:
    return zlib.crc32(data)


def _payload(seed: int, op_index: int, nbytes: int) -> bytes:
    """Deterministic per-op payload (cheap, content-checkable)."""
    if nbytes == 0:
        return b""
    unit = bytes((seed * 131 + op_index * 31 + i) % 251
                 for i in range(min(nbytes, 256)))
    reps = -(-nbytes // len(unit))
    return (unit * reps)[:nbytes]


# ============================================================== generation
def _random_size(rng: Random, eager_threshold: int) -> int:
    """Size distribution: mostly eager, a tail of rendezvous sizes, and
    the interesting boundaries."""
    roll = rng.random()
    if roll < 0.10:
        return rng.choice([0, 1, 7])
    if roll < 0.55:
        return rng.randrange(8, eager_threshold + 1)
    if roll < 0.70:
        # straddle the eager/rendezvous boundary
        return eager_threshold + rng.randrange(-2, 3)
    if roll < 0.92:
        return rng.randrange(eager_threshold + 1, 66_000)
    return rng.randrange(66_000, _MAX_P2P_BYTES)


def generate_workload(seed: int, max_ops: int = 10,
                      allow_faults: bool = True) -> WorkloadSpec:
    """Generate one random workload, fully determined by ``seed``."""
    rng = Random(seed)
    layer = rng.choices(["eadi", "mpi", "pvm", "bcl"],
                        weights=[0.35, 0.25, 0.15, 0.25])[0]
    n_ranks = rng.randint(2, 4)
    n_nodes = rng.randint(1, min(3, n_ranks))
    # Random placement touching every node (intra-node pairs appear
    # whenever two ranks share a node).
    placement = list(range(n_nodes))
    placement += [rng.randrange(n_nodes) for _ in range(n_ranks - n_nodes)]
    rng.shuffle(placement)
    eager = DAWNING_3000.eadi_eager_threshold

    n_ops = rng.randint(3, max(3, max_ops))
    ops: list[OpSpec] = []
    system_per_rank = [0] * n_ranks
    rma_per_rank = [0] * n_ranks
    for index in range(n_ops):
        src = rng.randrange(n_ranks)
        dst = rng.choice([r for r in range(n_ranks) if r != src])
        tag = index
        if layer == "bcl":
            kind = rng.choices(BCL_KINDS, weights=[0.4, 0.25, 0.2, 0.15])[0]
            if kind == "bcl_system":
                # finite pool, no flow control on the raw path: cap the
                # fan-in so deliberate overflow never muddies the oracle
                if system_per_rank[dst] >= 8:
                    kind = "bcl_send"
                else:
                    system_per_rank[dst] += 1
            if kind in ("rma_write", "rma_read"):
                target = dst if kind == "rma_write" else src
                if rma_per_rank[target] >= _RMA_BIND_BYTES // _MAX_RMA_BYTES:
                    kind = "bcl_send"
                else:
                    rma_per_rank[target] += 1
            if kind == "bcl_system":
                nbytes = rng.randrange(0, _MAX_SYSTEM_BYTES + 1)
            elif kind in ("rma_write", "rma_read"):
                nbytes = rng.randrange(1, _MAX_RMA_BYTES + 1)
            else:
                nbytes = rng.randrange(0, 66_000)
        else:
            kind = rng.choices(
                ENDPOINT_KINDS, weights=[0.45, 0.25, 0.12, 0.10, 0.08])[0]
            if layer == "pvm" and kind == "p2p_nb":
                kind = "p2p"       # the PVM surface is blocking-only
            if kind in ("bcast", "allreduce", "barrier"):
                if layer == "eadi":
                    kind = "p2p"   # collectives live in the MPI/PVM mixin
                else:
                    dst = src      # root-only field is src
            if kind == "allreduce":
                nbytes = 8 * rng.randint(1, 64)     # float64 elements
            elif kind == "barrier":
                nbytes = 0
            elif kind == "bcast":
                nbytes = rng.randrange(1, 66_000)
            else:
                nbytes = _random_size(rng, eager)
        ops.append(OpSpec(kind=kind, src=src, dst=dst, nbytes=nbytes,
                          tag=tag))

    plan = None
    if allow_faults and rng.random() < 0.45:
        plan = FaultPlan(
            seed=derive_seed(seed, "fault-plan"),
            drop_rate=rng.choice([0.0, 0.02, 0.05, 0.10, 0.15]),
            corrupt_rate=rng.choice([0.0, 0.0, 0.02, 0.05]),
            duplicate_rate=rng.choice([0.0, 0.0, 0.03, 0.08]),
            reorder_rate=rng.choice([0.0, 0.0, 0.05]),
            drop_seqs=rng.choice([(), (), (0,), (1, 2)]),
            spare_acks=rng.random() < 0.85)
        if plan.is_null():
            plan = None
    return WorkloadSpec(seed=seed, layer=layer, n_nodes=n_nodes,
                        n_ranks=n_ranks, placement=tuple(placement),
                        ops=tuple(ops), fault_plan=plan)


# ============================================================== execution
def run_workload(spec: WorkloadSpec, tie_break=None,
                 observers: Optional[Iterable[str]] = None,
                 include_faults: bool = True) -> RunResult:
    """Execute ``spec`` on a fresh cluster and return its result.

    ``tie_break`` is handed to the :class:`~repro.sim.Environment`
    (``None`` = default FIFO).  ``observers`` is the cluster's observer
    set (``None`` = the global set); the transparency oracle passes
    the global set with and without ``"audit"``, so it always compares
    a genuinely audited against a genuinely unaudited run.
    ``include_faults=False`` runs the same spec with its fault plan
    stripped (the clean half of the fault-differential oracle).
    """
    env = Environment(tie_break=tie_break)
    plan = spec.fault_plan if include_faults else None
    cfg = LOSSY_DAWNING if spec.fault_plan is not None else DAWNING_3000
    cluster = Cluster(n_nodes=spec.n_nodes, env=env, cfg=cfg,
                      fault_plan=plan, observers=observers)
    if spec.layer == "bcl":
        records = _run_bcl_program(spec, cluster)
    else:
        records = _run_endpoint_program(spec, cluster)
    # Drain to quiesce: retransmit timers, trailing credit returns —
    # and, with the auditor attached, every conservation check.
    env.run()
    delivery = tuple(tuple(sorted(records[rank]))
                     for rank in range(spec.n_ranks))
    counters = (cluster.total_traps, cluster.total_interrupts,
                cluster.total_retransmissions,
                cluster.total_fast_retransmits)
    return RunResult(delivery=delivery, now=env.now, counters=counters)


# ------------------------------------------------- endpoint-layer program
def _run_endpoint_program(spec: WorkloadSpec, cluster: Cluster) -> dict:
    """EADI / MPI / PVM: every rank walks the global op list in order."""
    import numpy as np

    records: dict[int, list] = {rank: [] for rank in range(spec.n_ranks)}

    def fn(ep):
        rank = ep.rank
        proc = getattr(ep, "proc", None) or ep.lib.proc
        pending = []     # (op, handle, rbuf) in issue order
        for index, op in enumerate(spec.ops):
            payload = _payload(spec.seed, index, op.nbytes)
            if op.kind in ("p2p", "p2p_nb"):
                if rank == op.src:
                    if spec.layer == "pvm":
                        ep.initsend()
                        yield from ep.pack_bytes(payload)
                        yield from ep.send(op.dst, op.tag)
                        continue
                    buf = proc.alloc(max(op.nbytes, 1))
                    proc.write(buf, payload)
                    if op.kind == "p2p":
                        yield from ep.send(op.dst, buf, op.nbytes, op.tag)
                    else:
                        h = yield from ep.isend(op.dst, buf, op.nbytes,
                                                op.tag)
                        pending.append((op, h, None))
                elif rank == op.dst:
                    if spec.layer == "pvm":
                        src, tag, _length = yield from ep.recv(op.src,
                                                               op.tag)
                        data = yield from ep.upk_bytes()
                        records[rank].append(
                            ("p2p", src, tag, len(data), _crc(data)))
                        continue
                    rbuf = proc.alloc(max(op.nbytes, 1))
                    if op.kind == "p2p":
                        st = yield from ep.recv(op.src, op.tag, rbuf,
                                                op.nbytes)
                        data = proc.read(rbuf, st.length)
                        records[rank].append(
                            ("p2p", st.src_rank, st.tag, st.length,
                             _crc(data)))
                    else:
                        h = yield from ep.irecv(op.src, op.tag, rbuf,
                                                op.nbytes)
                        pending.append((op, h, rbuf))
            elif op.kind == "bcast":
                buf = proc.alloc(max(op.nbytes, 1))
                if rank == op.src:
                    proc.write(buf, payload)
                yield from ep.bcast(buf, op.nbytes, root=op.src)
                data = proc.read(buf, op.nbytes)
                records[rank].append(
                    ("bcast", op.src, op.tag, op.nbytes, _crc(data)))
            elif op.kind == "allreduce":
                n = op.nbytes // 8
                array = np.arange(n, dtype=np.float64) * (rank + 1) \
                    + spec.seed % 97 + index
                out = yield from ep.allreduce(array)
                records[rank].append(
                    ("allreduce", op.src, op.tag, op.nbytes,
                     _crc(np.asarray(out, dtype=np.float64).tobytes())))
            elif op.kind == "barrier":
                yield from ep.barrier()
        for op, handle, rbuf in pending:
            st = yield from ep.wait(handle)
            if rbuf is not None:
                data = proc.read(rbuf, st.length)
                records[rank].append(
                    ("p2p", st.src_rank, st.tag, st.length, _crc(data)))
        return True

    run_spmd(cluster, spec.n_ranks, fn, layer=spec.layer,
             placement=list(spec.placement))
    return records


# ------------------------------------------------------ raw BCL program
def _run_bcl_program(spec: WorkloadSpec, cluster: Cluster) -> dict:
    """Raw BCL: normal-channel rendezvous sends, system-channel
    messages, and RMA reads/writes against per-rank open-channel
    bindings."""
    env = cluster.env
    records: dict[int, list] = {rank: [] for rank in range(spec.n_ranks)}
    addresses = {rank: BclAddress(spec.placement[rank],
                                  FUZZ_PORT_BASE + rank)
                 for rank in range(spec.n_ranks)}
    #: per-op handshake: receiver posted its buffer -> sender may send
    ready: dict[int, Store] = {i: Store(env)
                               for i, _ in enumerate(spec.ops)}
    setup_done: dict[int, bool] = {}
    #: disjoint offsets into each target rank's RMA binding
    rma_offsets: dict[int, int] = {}
    offset_cursor: dict[int, int] = {}
    for index, op in enumerate(spec.ops):
        if op.kind in ("rma_write", "rma_read"):
            target = op.dst if op.kind == "rma_write" else op.src
            rma_offsets[index] = offset_cursor.get(target, 0)
            offset_cursor[target] = rma_offsets[index] + _MAX_RMA_BYTES
    #: post-run verification hooks: read delivered bytes once drained
    post_run: list = []

    def wait_event(port, stash, want) -> Generator:
        """Pop the next completion matching ``want(event)``; stash
        non-matching arrivals (system messages racing ahead of their op
        position) for later ops."""
        for i, ev in enumerate(stash):
            if want(ev):
                return stash.pop(i)
        while True:
            ev = yield from port.wait_recv()
            if want(ev):
                return ev
            stash.append(ev)

    def rank_main(rank: int) -> Generator:
        proc = cluster.spawn(spec.placement[rank])
        lib = BclLibrary(proc)
        port = yield from lib.create_port(port_id=FUZZ_PORT_BASE + rank)
        rma_base = proc.alloc(_RMA_BIND_BYTES)
        yield from port.bind_open(_RMA_CHANNEL, rma_base, _RMA_BIND_BYTES)
        # Pre-fill the regions rma_read ops will fetch from this rank.
        for index, op in enumerate(spec.ops):
            if op.kind == "rma_read" and op.src == rank:
                proc.write(rma_base + rma_offsets[index],
                           _payload(spec.seed, index, op.nbytes))
        setup_done[rank] = True
        while len(setup_done) < spec.n_ranks:
            yield env.timeout(1000)
        stash: list = []
        for index, op in enumerate(spec.ops):
            payload = _payload(spec.seed, index, op.nbytes)
            if op.kind == "bcl_send":
                if rank == op.src:
                    yield ready[index].get()
                    buf = proc.alloc(max(op.nbytes, 1))
                    proc.write(buf, payload)
                    dest = addresses[op.dst].with_channel(
                        ChannelKind.NORMAL, 0)
                    yield from port.send(dest, buf, op.nbytes)
                    yield from port.wait_send()
                elif rank == op.dst:
                    rbuf = proc.alloc(max(op.nbytes, 1))
                    yield from port.post_recv(0, rbuf, op.nbytes)
                    ready[index].try_put(index)
                    ev = yield from wait_event(
                        port, stash,
                        lambda e: (e.kind is EventKind.RECV_DONE and
                                   e.channel_kind is ChannelKind.NORMAL))
                    data = proc.read(rbuf, ev.length)
                    records[rank].append(
                        ("bcl_send", ev.src_node, index, ev.length,
                         _crc(data)))
            elif op.kind == "bcl_system":
                if rank == op.src:
                    buf = proc.alloc(max(op.nbytes, 1))
                    proc.write(buf, payload)
                    yield from port.send_system(addresses[op.dst], buf,
                                                op.nbytes)
                    yield from port.wait_send()
                elif rank == op.dst:
                    ev = yield from wait_event(
                        port, stash,
                        lambda e: (e.kind is EventKind.RECV_DONE and
                                   e.channel_kind is ChannelKind.SYSTEM))
                    data = yield from port.recv_system(ev)
                    records[rank].append(
                        ("bcl_system", ev.src_node, 0, len(data),
                         _crc(data)))
            elif op.kind == "rma_write":
                if rank == op.src:
                    buf = proc.alloc(max(op.nbytes, 1))
                    proc.write(buf, payload)
                    dest = addresses[op.dst].with_channel(
                        ChannelKind.OPEN, _RMA_CHANNEL)
                    yield from port.rma_write(
                        dest, buf, op.nbytes,
                        remote_offset=rma_offsets[index])
                    yield from port.wait_send()
            elif op.kind == "rma_read":
                if rank == op.dst:
                    rbuf = proc.alloc(max(op.nbytes, 1))
                    dest = addresses[op.src].with_channel(
                        ChannelKind.OPEN, _RMA_CHANNEL)
                    mid = yield from port.rma_read(
                        dest, rbuf, op.nbytes,
                        remote_offset=rma_offsets[index])
                    yield from wait_event(
                        port, stash,
                        lambda e, _mid=mid: (
                            e.kind is EventKind.RMA_READ_DONE and
                            e.message_id == _mid))
                    data = proc.read(rbuf, op.nbytes)
                    if data != payload:
                        raise RuntimeError(
                            f"rma_read op {index}: fetched bytes differ "
                            f"from the pre-filled payload")
                    records[rank].append(
                        ("rma_read", op.src, index, op.nbytes, _crc(data)))
        # One-sided writes land only while the target keeps polling:
        # the intra-node shm ring is receiver-driven, so a rank that
        # returns with inbound chunks still queued silently loses them.
        # Hold each target here until every write aimed at it reported
        # RMA_WRITE_DONE (pushed after the bytes are in place on both
        # the shm and the NIC paths).
        inbound = sum(1 for other in spec.ops
                      if other.kind == "rma_write" and other.dst == rank)
        for _ in range(inbound):
            yield from wait_event(
                port, stash,
                lambda e: e.kind is EventKind.RMA_WRITE_DONE)
        return proc, rma_base

    procs = [env.process(rank_main(rank), name=f"fuzz.rank{rank}")
             for rank in range(spec.n_ranks)]
    env.run(until=env.all_of(procs))
    for rank, proc_handle in enumerate(procs):
        post_run.append((rank, proc_handle.value))
    # Every rank waited for its inbound RMA_WRITE_DONEs, so the bound
    # regions are final; drain any trailing bookkeeping events anyway.
    env.run()
    rank_mem = {rank: value for rank, value in post_run}
    for index, op in enumerate(spec.ops):
        if op.kind == "rma_write":
            proc, rma_base = rank_mem[op.dst]
            data = proc.read(rma_base + rma_offsets[index], op.nbytes)
            if data != _payload(spec.seed, index, op.nbytes):
                raise RuntimeError(
                    f"rma_write op {index}: bytes in rank {op.dst}'s "
                    f"binding differ from the sent payload")
            records[op.dst].append(
                ("rma_write", op.src, index, op.nbytes, _crc(data)))
    return records
