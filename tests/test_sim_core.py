"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import sys

import pytest

from repro.cluster import Cluster
from repro.instrument.measure import measure_one_way
from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
    Wake,
    wakeup,
    wakeup_event,
)


def test_clock_starts_at_zero(env):
    assert env.now == 0


def test_timeout_advances_clock(env):
    env.timeout(1500)
    env.run()
    assert env.now == 1500


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_is_built_by_the_environment(env):
    with pytest.raises(SimulationError, match="Environment.timeout"):
        Timeout(env, 5)


def test_retained_timeout_keeps_its_value(env):
    """A timer may be kept after it fires: nothing reuses or resets it."""
    retained = []

    def proc():
        for i in range(10):
            t = env.timeout(5, value=i)
            retained.append(t)
            assert (yield t) == i

    env.process(proc())
    env.run()
    assert all(type(t) is Timeout and t.processed for t in retained)
    assert [t.value for t in retained] == list(range(10))
    assert len({id(t) for t in retained}) == 10


def _trace(frame, event, arg):
    # Module-level, so installing it makes no function <-> cell cycle
    # for a later test's collection window to free.
    return _trace


def test_parity_under_settrace():
    """A trace function (coverage, a debugger) must not perturb the
    simulation itself."""
    def run():
        cluster = Cluster(n_nodes=2)
        sample = measure_one_way(cluster, 4096, repeats=3, warmup=1)
        return (tuple(sample.samples_us), sample.received_payloads_ok,
                cluster.env.now)

    baseline = run()
    old = sys.gettrace()
    sys.settrace(_trace)
    try:
        traced = run()
    finally:
        sys.settrace(old)
    assert traced == baseline


def test_events_processed_in_time_order(env):
    seen = []
    for delay in (300, 100, 200):
        env.timeout(delay).callbacks.append(
            lambda _e, d=delay: seen.append(d))
    env.run()
    assert seen == [100, 200, 300]


def test_same_time_events_fifo(env):
    """Ties are broken by scheduling order — determinism guarantee."""
    seen = []
    for i in range(5):
        env.timeout(100).callbacks.append(lambda _e, i=i: seen.append(i))
    env.run()
    assert seen == [0, 1, 2, 3, 4]


def test_process_waits_on_timeout(env):
    trace = []

    def proc():
        trace.append(env.now)
        yield env.timeout(50)
        trace.append(env.now)
        yield env.timeout(70)
        trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [0, 50, 120]


def test_process_return_value(env):
    def proc():
        yield env.timeout(10)
        return "payload"

    p = env.process(proc())
    assert env.run(until=p) == "payload"


def test_run_until_absolute_time(env):
    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=105)
    assert env.now == 105


def test_run_until_past_raises(env):
    env.timeout(10)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_event_succeed_value(env):
    ev = env.event()
    results = []

    def waiter():
        value = yield ev
        results.append(value)

    env.process(waiter())
    ev.succeed(42)
    env.run()
    assert results == [42]


def test_event_double_trigger_rejected(env):
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    env.run()


def test_event_fail_propagates_into_process(env):
    class Boom(Exception):
        pass

    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except Boom as exc:
            caught.append(exc)

    env.process(waiter())
    ev.fail(Boom("x"))
    env.run()
    assert len(caught) == 1


def test_unhandled_failure_raises_at_step(env):
    class Boom(Exception):
        pass

    env.event().fail(Boom("unhandled"))
    with pytest.raises(Boom):
        env.run()


def test_process_exception_fails_its_event(env):
    def bad():
        yield env.timeout(1)
        raise ValueError("inside process")

    p = env.process(bad())
    with pytest.raises(ValueError):
        env.run(until=p)


def test_yield_non_event_is_error(env):
    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(SimulationError):
        env.run(until=p)


def test_unnamed_process_error_names_its_generator(env):
    """An unnamed process stores no name; its error message reads the
    generator's qualified name instead."""
    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(SimulationError) as exc:
        env.run(until=p)
    qualname = "test_unnamed_process_error_names_its_generator.<locals>.bad"
    assert p.name == qualname
    assert f"process {qualname!r} yielded 42" in str(exc.value)
    assert env.process(bad(), name="rank3").name == "rank3"


def test_all_of_collects_values(env):
    t1 = env.timeout(10, value="a")
    t2 = env.timeout(20, value="b")
    result = env.run(until=env.all_of([t1, t2]))
    assert set(result.values()) == {"a", "b"}
    assert env.now == 20


def test_any_of_fires_on_first(env):
    t1 = env.timeout(10, value="fast")
    env.timeout(50, value="slow")
    env.run(until=env.any_of([t1, env.event()]))
    assert env.now == 10


def _noop(_event):
    pass


def test_triggered_condition_detaches_from_pending_constituents(env):
    never = env.event()
    shared = env.event()
    other = env.event()
    shared.callbacks.append(_noop)
    fast = env.timeout(10, value="fast")
    cond = env.any_of([fast, never, shared])
    env.run(until=cond)
    assert never._callbacks is None          # back to "no waiters"
    assert shared.callbacks == [_noop]       # other waiters stay
    # A constituent that fails after the trigger is still unhandled.
    late = env.all_of([env.timeout(5), other])
    env.run(until=env.any_of([late, env.timeout(1)]))
    assert late._callbacks is None
    other.fail(RuntimeError("late"))
    with pytest.raises(RuntimeError, match="late"):
        env.run()


def test_condition_triggered_while_wiring_leaves_rest_unwired(env):
    done = env.event()
    done.succeed("v")
    env.run()
    pending = env.event()
    cond = env.any_of([done, pending])
    assert cond.triggered
    assert pending._callbacks is None


def test_failed_condition_detaches(env):
    bad = env.event()
    pending = env.event()
    cond = env.any_of([bad, pending])
    bad.fail(ValueError("x"))
    with pytest.raises(ValueError):
        env.run(until=cond)
    assert pending._callbacks is None


def _after(env, delay, fn):
    yield env.timeout(delay)
    fn()


class _Owner:
    def __init__(self, env):
        self.env = env
        self.slot = None


def test_wakeup_chain_wakes_waiters_in_park_order(env):
    owner = _Owner(env)
    woken = []

    def waiter(name):
        yield wakeup_event(owner, "slot", ready=False)
        woken.append((env.now, name))

    for name in "abc":
        env.process(waiter(name))
    env.run()
    assert owner.slot is not None            # created by the first wait
    assert all(type(cb) is Wake for cb in owner.slot.callbacks)
    env.process(_after(env, 7, lambda: wakeup(owner, "slot")))
    env.run()
    assert woken == [(7, "a"), (7, "b"), (7, "c")]
    assert owner.slot is None
    wakeup(owner, "slot")                    # no waiters: a no-op


def test_wakeup_event_ready_fires_at_once(env):
    owner = _Owner(env)
    ev = wakeup_event(owner, "slot", ready=True)
    assert ev.triggered and owner.slot is None


def test_all_of_empty_fires_immediately(env):
    done = env.all_of([])
    env.run(until=done)
    assert env.now == 0


def test_interrupt_delivers_cause(env):
    causes = []

    def sleeper():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            causes.append(intr.cause)

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(100)
        p.interrupt("wake up")

    env.process(interrupter())
    env.run()
    assert causes == ["wake up"]
    assert env.now == 1000  # the abandoned timeout still drains the heap


def test_interrupt_leaves_the_other_waiter_on_a_shared_event(env):
    """Interrupting one of two processes parked on an event detaches
    only that process; the other still fires, and the event, which
    keeps a waiter, is not orphaned."""

    class Watched(Event):
        __slots__ = ("orphaned",)

        def _on_orphaned(self):
            self.orphaned = True

    target = Watched(env)
    target.orphaned = False
    seen = []

    def waiter(tag):
        try:
            value = yield target
        except Interrupt:
            value = "interrupted"
        seen.append((tag, env.now, value))

    first = env.process(waiter("first"))
    second = env.process(waiter("second"))
    env.run()
    assert target._callbacks == [first, second]
    first.interrupt()
    # The one waiter left is the lone callable again, not a list.
    assert target._callbacks is second
    env.run()
    assert seen == [("first", 0, "interrupted")]
    target.succeed("v")
    env.run()
    assert seen == [("first", 0, "interrupted"), ("second", 0, "v")]
    assert not target.orphaned


def test_schedule_at_rejects_a_processed_event(env):
    ev = env.event()
    ev.succeed()
    env.run()
    with pytest.raises(SimulationError, match="already processed"):
        env._schedule_at(ev, env.now)
    assert env.peek() is None


def test_interrupt_dead_process_rejected(env):
    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_peek_reports_next_event_time(env):
    assert env.peek() is None
    env.timeout(33)
    assert env.peek() == 33


def test_run_until_untriggered_event_deadlocks(env):
    ev = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_nested_process_chains(env):
    def inner():
        yield env.timeout(5)
        return 7

    def outer():
        value = yield env.process(inner())
        return value * 2

    p = env.process(outer())
    assert env.run(until=p) == 14
    assert env.now == 5


def test_already_processed_event_resumes_immediately(env):
    ev = env.event()
    ev.succeed("v")
    env.run()
    results = []

    def late_waiter():
        value = yield ev
        results.append((env.now, value))

    env.process(late_waiter())
    env.run()
    assert results == [(env.now, "v")]
