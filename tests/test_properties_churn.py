"""Property tests (hypothesis): pin-down table churn and EADI credit
balance under randomly-timed interrupts.

Both target state machines whose bugs historically hid in rare
interleavings: the pin-down LRU (double-unpin / leaked pages on
eviction vs process exit) and the EADI credit protocol (waiter leaks
and balance drift when a blocked sender is interrupted mid-protocol).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.kernel.pindown import PinDownTable
from repro.kernel.vm import AddressSpace
from repro.sim import Interrupt
from repro.upper.job import run_spmd

_SMALL = dataclasses.replace(DAWNING_3000, pindown_capacity_pages=8)
_PAGE = _SMALL.page_size


# ------------------------------------------------------- pin-down churn
@st.composite
def churn_programs(draw):
    """A random interleaving of lookups (random pid/offset/len) and
    whole-pid evictions against a tiny 8-page table."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        if draw(st.booleans()):
            ops.append(("lookup",
                        draw(st.integers(min_value=0, max_value=2)),
                        draw(st.integers(min_value=0, max_value=15)),
                        draw(st.integers(min_value=1, max_value=6))))
        else:
            ops.append(("evict_pid",
                        draw(st.integers(min_value=0, max_value=2))))
    return ops


@given(program=churn_programs())
def test_pindown_churn_never_double_unpins_or_leaks(program):
    table = PinDownTable(_SMALL)
    allocator = FrameAllocator(PhysicalMemory(1 << 24, _PAGE))
    spaces = [AddressSpace(allocator, pid) for pid in range(3)]
    bufs = [space.alloc(16 * _PAGE) for space in spaces]

    for op in program:
        if op[0] == "lookup":
            _, pid, page_off, n_pages = op
            nbytes = min(n_pages * _PAGE, 16 * _PAGE - page_off * _PAGE)
            # never raises VmFault (double-unpin) nor exhaustion (the
            # request fits the table)
            table.lookup(spaces[pid], bufs[pid] + page_off * _PAGE,
                         max(nbytes, 1))
        else:
            table.evict_pid(op[1])
            # eviction of a pid leaves none of its pages pinned
            assert spaces[op[1]].pinned_pages == 0

        # capacity is never exceeded, and the table and the address
        # spaces agree exactly on what is pinned (no leaks, no strays)
        assert len(table) <= table.capacity
        assert sum(space.pinned_pages for space in spaces) == len(table)
        for (pid, vpage), space in table._entries.items():
            assert space is spaces[pid]
            assert space.is_pinned(vpage)

    # full teardown drops every pin (exit_process invariant)
    for pid in range(3):
        table.evict_pid(pid)
    assert len(table) == 0
    assert all(space.pinned_pages == 0 for space in spaces)


# ------------------------------------- EADI credits under interrupts
@settings(max_examples=12)
@given(interrupt_at_us=st.integers(min_value=5, max_value=3000),
       n_messages=st.integers(min_value=1, max_value=8),
       nbytes=st.sampled_from([64, 2048, 4096]))
def test_eadi_credit_balance_survives_random_interrupts(
        interrupt_at_us, n_messages, nbytes):
    """Interrupt a credit-hungry sender at a random simulated time:
    whatever protocol state it dies in, teardown must leave no credit
    waiter behind and no peer's balance above its initial grant —
    checked by the auditor's quiesce pass over the whole drain."""
    cluster = Cluster(n_nodes=1, observers=("audit",))
    env = cluster.env
    endpoints = {}
    killable: list = []

    def fn(ep):
        endpoints[ep.rank] = ep
        killable.append(env.active_process)
        try:
            if ep.rank == 0:
                buf = ep.lib.proc.alloc(max(nbytes, 1))
                for i in range(n_messages):
                    yield from ep.send(1, buf, nbytes, tag=i)
            else:
                # rank 1 never receives: rank 0's eager sends exhaust
                # the credit grant and park it in _acquire_credit
                yield env.timeout(6000)
        except Interrupt:
            return "interrupted"
        return "done"

    def killer():
        yield env.timeout(interrupt_at_us * 1000)
        for proc in killable:
            if proc.is_alive and proc._target is not None:
                proc.interrupt("fuzz-interrupt")

    # run_spmd drives env.run itself; register the killer first
    env.process(killer(), name="killer")
    run_spmd(cluster, 2, fn, layer="eadi")
    env.run()          # quiesce: auditor checks waiters + balances

    for ep in endpoints.values():
        assert ep.closed
        assert not ep._credit_waiters
        for peer, credits in ep._credits.items():
            assert credits <= ep._credits_initial
