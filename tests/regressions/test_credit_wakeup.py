"""Pinned regressions for the eager-credit wakeup path.

Two bugs flushed out by the serving tier's many-senders traffic:

* **thundering herd** — ``_release_credits`` used to succeed *every*
  parked waiter regardless of how many credits arrived; all of them
  raced for the freed slots, the losers decremented the counter below
  zero or re-parked, and wakeup order was not FIFO.  It must wake at
  most ``count`` waiters, oldest first.

* **stall undercount** — ``_acquire_credit`` used to count one stall
  per ``send`` even when a spurious wake (an unrelated arrival on the
  recv queue) forced the sender to re-park.  Every park is a distinct
  stall, and each one lands in the ``repro_eadi_credit_stall_ns``
  histogram when telemetry is on.
"""

from __future__ import annotations

from repro.cluster import Cluster, enabled
from repro.upper.eadi import _CreditGate
from repro.upper.job import run_spmd


def test_release_wakes_at_most_count_waiters_fifo(cluster):
    """Three parked senders, two credits returned: exactly the two
    oldest gates fire and the third stays parked."""
    def fn(ep):
        yield ep.port.env.timeout(0)
        if ep.rank != 0:
            return True
        eadi = ep.eadi
        eadi._credits[1] = 0
        gates = [_CreditGate(eadi, 1) for _ in range(3)]
        eadi._credit_waiters[1] = list(gates)
        eadi._release_credits(1, 2)
        assert [g.triggered for g in gates] == [True, True, False]
        assert eadi._credit_waiters[1] == [gates[2]]
        assert eadi._credits[1] == 2
        # The remaining waiter picks up the next single credit, and
        # the emptied list is dropped from the map.
        eadi._release_credits(1, 1)
        assert gates[2].triggered
        assert 1 not in eadi._credit_waiters
        return True

    assert run_spmd(cluster, 2, fn) == [True, True]


def test_release_never_retriggers_a_withdrawn_gate(cluster):
    """A gate already satisfied (e.g. raced with a recv-queue wake)
    must not absorb a wake slot meant for a younger waiter."""
    def fn(ep):
        yield ep.port.env.timeout(0)
        if ep.rank != 0:
            return True
        eadi = ep.eadi
        eadi._credits[1] = 0
        stale = _CreditGate(eadi, 1)
        stale.succeed()
        fresh = _CreditGate(eadi, 1)
        eadi._credit_waiters[1] = [stale, fresh]
        eadi._release_credits(1, 1)
        # The stale gate consumed the slot by position (FIFO), but the
        # second release still reaches the live waiter.
        eadi._release_credits(1, 1)
        assert fresh.triggered
        assert 1 not in eadi._credit_waiters
        return True

    assert run_spmd(cluster, 2, fn) == [True, True]


def _stall_counting_program(n_spurious):
    """Rank 0 parks on credits to rank 1; rank 1's unrelated eager
    traffic to rank 0 wakes it spuriously ``n_spurious`` times before
    rank 0 hands itself the credit back."""
    def fn(ep):
        proc = ep.proc
        env = ep.port.env
        buf = proc.alloc(64)
        if ep.rank == 0:
            ep.eadi._credits[1] = 0

            def stalled_send():
                yield from ep.send(1, buf, 64, tag=7)

            sender = env.process(stalled_send())
            # Each unrelated arrival wakes the parked sender through
            # the recv-queue event; credits are still zero, so it must
            # re-park and count another stall.
            for i in range(n_spurious):
                yield from ep.recv(1, i, buf, 64)
            yield env.timeout(50_000)
            ep.eadi._release_credits(1, 1)
            yield sender
            hist = ep.eadi._stall_hist
            return (ep.eadi.credit_stalls,
                    None if hist is None else hist.count)
        for i in range(n_spurious):
            yield env.timeout(20_000 * (i + 1))
            yield from ep.send(0, buf, 64, tag=i)
        yield from ep.recv(0, 7, buf, 64)
        return None
    return fn


def test_each_park_counts_as_a_stall():
    cluster = Cluster(n_nodes=2)
    stalls, _ = run_spmd(cluster, 2, _stall_counting_program(2))[0]
    assert stalls == 3          # initial park + two spurious re-parks


def test_stall_histogram_matches_park_count():
    cluster = Cluster(n_nodes=2, observers=enabled() | {"telemetry"})
    stalls, observed = run_spmd(cluster, 2, _stall_counting_program(1))[0]
    assert stalls == 2
    assert observed == 2
    text = cluster.telemetry.registry.render_prometheus()
    assert "repro_eadi_credit_stall_ns" in text
