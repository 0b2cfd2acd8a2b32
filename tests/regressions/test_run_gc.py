"""The run loop holds the cyclic garbage collector off, and model code
creates no reference cycles for it to find.

``Environment.run`` disables the cyclic collector while it runs and puts
the caller's setting back afterwards: a collection every few hundred
allocations would walk the whole live cluster and free nothing, because
reference counting already frees every event, packet and record.  That
only holds while the model builds no cycles per event, so each run below
keeps its cluster referenced, collects before and after, and requires
that no collection from the first to the last frees anything.  The same
``gc.callbacks`` hook checks that no collection starts while ``run()``
is on the stack.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.faults import FaultPlan
from repro.fuzz.policies import ShuffledTieBreak
from repro.instrument.measure import measure_one_way
from repro.serve.config import ServeConfig
from repro.serve.tier import run_serve
from repro.sim import Environment, SimulationError
from repro.upper.job import run_spmd

_RUN_CODE = Environment.run.__code__


def _run_on_stack() -> bool:
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is _RUN_CODE:
            return True
        frame = frame.f_back
    return False


def _assert_run_leaves_no_cycles(cluster, drive):
    """``drive(cluster)`` with the cluster referenced throughout: no
    collection may start inside ``run()``, and no collection from before
    the drive to one after it may free anything.

    Counting every collection, not just the last one, matters: a cycle
    left by one ``run()`` is young, so the first automatic collection
    between two runs (or right after the last) frees it unseen.
    """
    gc.collect()
    starts_in_run: list[int] = []
    freed: list[int] = []

    def hook(phase, info):
        if phase == "start" and _run_on_stack():
            starts_in_run.append(info["generation"])
        elif phase == "stop":
            freed.append(info["collected"])

    gc.callbacks.append(hook)
    try:
        result = drive(cluster)
        gc.collect()
    finally:
        gc.callbacks.remove(hook)
    assert starts_in_run == []
    assert gc.isenabled()
    assert sum(freed) == 0, f"collections freed {freed}"
    return result


# --------------------------------------------------------------- the runs
def _pingpong(ep):
    buf = ep.proc.alloc(4096)
    for i in range(4):
        if ep.rank == 0:
            yield from ep.eadi.send(1, buf, 4096, tag=i)
            yield from ep.eadi.recv(1, i, buf, 4096)
        else:
            yield from ep.eadi.recv(0, i, buf, 4096)
            yield from ep.eadi.send(0, buf, 4096, tag=i)


def _barrier(ep):
    yield from ep.barrier()
    yield from ep.barrier()


def _collective_stream(ep):
    # The 8-rank single-switch stream of test_topology_parity.py: its
    # alltoall parks eager-credit waiters that recv-queue wakes withdraw.
    yield from ep.barrier()
    yield from ep.allreduce(np.array([ep.rank + 1.0]))
    yield from ep.alltoall(
        [bytes([ep.rank, d]) * 32 for d in range(ep.size)], 64)


def test_bcl_pingpong_leaves_no_cycles():
    sample = _assert_run_leaves_no_cycles(
        Cluster(n_nodes=2),
        lambda c: measure_one_way(c, 4096, repeats=3, warmup=1))
    assert sample.received_payloads_ok


@pytest.mark.parametrize("intra", [False, True], ids=["inter", "intra"])
def test_mpi_pingpong_leaves_no_cycles(intra):
    _assert_run_leaves_no_cycles(
        Cluster(n_nodes=2),
        lambda c: run_spmd(c, 2, _pingpong,
                           placement=[0, 0] if intra else None))


def test_host_barrier_leaves_no_cycles():
    _assert_run_leaves_no_cycles(
        Cluster(n_nodes=16, trace=True),
        lambda c: run_spmd(c, 16, _barrier))


def test_fat_tree_nic_barrier_leaves_no_cycles():
    _assert_run_leaves_no_cycles(
        Cluster(n_nodes=64, topology="fat_tree", trace=True),
        lambda c: run_spmd(c, 64, _barrier, collectives="nic"))


def test_collective_stream_with_credit_stalls_leaves_no_cycles():
    out = _assert_run_leaves_no_cycles(
        Cluster(n_nodes=4, trace=True),
        lambda c: run_spmd(c, 8, _collective_stream))
    assert len(out) == 8


def test_bursty_serve_point_leaves_no_cycles():
    scfg = ServeConfig(requests=200, arrivals="bursty")
    report = _assert_run_leaves_no_cycles(
        Cluster(n_nodes=scfg.n_servers + scfg.n_client_ranks, trace=True),
        lambda c: run_serve(scfg, 1.4, cluster=c))
    assert report.completed_ok > 0


def test_go_back_n_under_faults_leaves_no_cycles():
    plan = FaultPlan(seed=7, drop_rate=0.1, corrupt_rate=0.1,
                     duplicate_rate=0.1)
    cluster = Cluster(n_nodes=2,
                      cfg=DAWNING_3000.replace(retransmit_timeout_us=200.0),
                      fault_plan=plan)
    payload = bytes(i % 251 for i in range(40000))
    got = {}

    def transfer(ep):
        buf = ep.proc.alloc(len(payload))
        if ep.rank == 0:
            ep.proc.write(buf, payload)
            yield from ep.eadi.send(1, buf, len(payload), tag=0)
        else:
            yield from ep.eadi.recv(0, 0, buf, len(payload))
            got["data"] = ep.proc.read(buf, len(payload))

    _assert_run_leaves_no_cycles(cluster,
                                 lambda c: run_spmd(c, 2, transfer))
    assert got["data"] == payload
    assert cluster.total_retransmissions > 0
    injectors = cluster.fault_injectors
    assert sum(inj.drops for inj in injectors) > 0
    assert sum(inj.corruptions for inj in injectors) > 0
    assert sum(inj.duplicates for inj in injectors) > 0


def test_closed_port_releases_its_library_without_cycles():
    """Closing a port drops the last reference to its library mid-run,
    so a library that pointed back at itself would be left as a cycle."""
    def reopen(cluster):
        def body():
            for _ in range(3):
                lib = BclLibrary(cluster.spawn(0))
                port = yield from lib.create_port(port_id=5)
                yield from port.close()

        cluster.env.run(cluster.env.process(body()))

    _assert_run_leaves_no_cycles(Cluster(n_nodes=1), reopen)


# ------------------------------------------------- the caller's setting
def _probe(env, seen):
    yield env.timeout(2)
    seen.append(gc.isenabled())


@pytest.mark.parametrize("tie_break", [None, ShuffledTieBreak(3)],
                         ids=["fifo", "shuffled"])
def test_setting_restored_after_return(tie_break):
    env = Environment(tie_break=tie_break)
    seen = []
    env.process(_probe(env, seen))
    env.run(until=10)
    assert seen == [False]
    assert env.now == 10
    assert gc.isenabled()


def test_setting_restored_after_process_exception():
    env = Environment()

    def boom():
        yield env.timeout(5)
        raise ValueError("boom")

    env.process(boom())
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert gc.isenabled()
    # An argument error is raised before the collector is touched.
    with pytest.raises(SimulationError):
        env.run(until=0)
    assert gc.isenabled()


def test_collector_disabled_by_caller_stays_disabled():
    env = Environment()
    seen = []
    env.process(_probe(env, seen))
    gc.disable()
    try:
        env.run()
        assert seen == [False]
        assert not gc.isenabled()
    finally:
        gc.enable()
