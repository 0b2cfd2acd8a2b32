"""Unit tests for Resource and Store."""

from __future__ import annotations

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    env.run()
    assert r1.processed and r2.processed
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_fifo_handoff(env):
    res = Resource(env, capacity=1)
    order = []

    def user(name, hold):
        with res.request() as req:
            yield req
            order.append((name, env.now))
            yield env.timeout(hold)

    env.process(user("a", 10))
    env.process(user("b", 10))
    env.process(user("c", 10))
    env.run()
    assert order == [("a", 0), ("b", 10), ("c", 20)]


def test_resource_release_unqueued_request_is_error(env):
    res = Resource(env, capacity=1)
    other = Resource(env, capacity=1)
    req = other.request()
    env.run()
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_release_waiting_request_cancels(env):
    res = Resource(env, capacity=1)
    held = res.request()
    waiting = res.request()
    res.release(waiting)          # give up the queue slot
    assert res.queue_length == 0
    res.release(held)
    env.run()
    assert res.count == 0


def test_resource_invalid_capacity(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_store_fifo_order(env):
    store = Store(env)
    for i in range(3):
        store.put(i)
    got = []

    def getter():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(getter())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put(env):
    store = Store(env)
    got = []

    def getter():
        item = yield store.get()
        got.append((env.now, item))

    def putter():
        yield env.timeout(40)
        yield store.put("x")

    env.process(getter())
    env.process(putter())
    env.run()
    assert got == [(40, "x")]


def test_store_capacity_blocks_put(env):
    store = Store(env, capacity=1)
    times = []

    def putter():
        yield store.put("a")
        times.append(env.now)
        yield store.put("b")
        times.append(env.now)

    def slow_getter():
        yield env.timeout(100)
        yield store.get()

    env.process(putter())
    env.process(slow_getter())
    env.run()
    assert times == [0, 100]


def test_store_try_put_drops_on_full(env):
    store = Store(env, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert len(store) == 2


def test_store_try_put_hands_to_waiting_getter(env):
    store = Store(env, capacity=1)
    got = []

    def getter():
        item = yield store.get()
        got.append(item)

    env.process(getter())
    env.run()          # getter is now parked
    assert store.try_put("direct")
    env.run()
    assert got == ["direct"]


def test_store_try_get(env):
    store = Store(env)
    ok, item = store.try_get()
    assert not ok and item is None
    store.try_put(9)
    ok, item = store.try_get()
    assert ok and item == 9


def test_store_peek(env):
    store = Store(env)
    with pytest.raises(SimulationError):
        store.peek()
    store.try_put("front")
    store.try_put("back")
    assert store.peek() == "front"
    assert len(store) == 2


def test_store_put_releases_blocked_putter_on_get(env):
    store = Store(env, capacity=1)
    store.try_put("first")
    done = store.put("second")     # blocked
    env.run()
    assert not done.triggered
    ok, item = store.try_get()
    assert ok and item == "first"
    env.run()
    assert done.processed
    assert store.peek() == "second"


# ------------------------------------------------- interrupted waiters
def test_interrupted_getter_does_not_swallow_put(env):
    """Regression: a getter interrupted while blocked on get() used to
    stay in the queue; the next put() handed it the item, which was
    silently lost."""
    from repro.sim import Interrupt

    store = Store(env)
    received = []

    def doomed():
        try:
            yield store.get()
            received.append("doomed got it")
        except Interrupt:
            pass

    def survivor():
        item = yield store.get()
        received.append(item)

    victim = env.process(doomed(), name="doomed")

    def driver():
        yield env.timeout(10)
        victim.interrupt("give up")
        env.process(survivor(), name="survivor")
        yield env.timeout(10)
        store.put("payload")

    env.process(driver(), name="driver")
    env.run()
    assert received == ["payload"]
    assert store.cancelled_gets == 1
    assert len(store) == 0


def test_interrupted_putter_item_is_not_stored(env):
    """A putter interrupted while blocked on a full store must not have
    its item admitted later."""
    from repro.sim import Interrupt

    store = Store(env, capacity=1)
    store.try_put("first")

    def doomed():
        try:
            yield store.put("orphan")
        except Interrupt:
            pass

    victim = env.process(doomed(), name="doomed")

    def driver():
        yield env.timeout(10)
        victim.interrupt()
        yield env.timeout(10)
        ok, item = store.try_get()
        assert ok and item == "first"

    env.process(driver(), name="driver")
    env.run()
    assert store.cancelled_puts == 1
    assert len(store) == 0         # "orphan" was never admitted


def test_interrupted_requester_is_never_granted(env):
    """An interrupted Resource waiter leaves the queue; release() must
    grant the next live waiter, and the dead waiter's with-block
    cleanup must not raise."""
    from repro.sim import Interrupt

    res = Resource(env, capacity=1)
    holder = res.request()
    granted = []

    dead_req = []

    def doomed():
        # No with-block: nothing releases the request on interrupt, so
        # only the orphan hook can withdraw it from the wait queue.
        req = res.request()
        dead_req.append(req)
        try:
            yield req
            granted.append("doomed")
        except Interrupt:
            pass

    def survivor():
        with res.request() as req:
            yield req
            granted.append("survivor")

    victim = env.process(doomed(), name="doomed")

    def driver():
        yield env.timeout(10)
        victim.interrupt()
        env.process(survivor(), name="survivor")
        yield env.timeout(10)
        res.release(holder)

    env.process(driver(), name="driver")
    env.run()
    assert granted == ["survivor"]
    assert res.count == 0
    assert res.queue_length == 0
    res.release(dead_req[0])       # withdrawn request: release is a no-op


# ------------------------------------------------ list-backed queues
def test_store_hands_puts_to_waiting_getters_fifo(env):
    store = Store(env)
    got = []

    def getter(name):
        item = yield store.get()
        got.append((name, item))

    for name in "abcd":
        env.process(getter(name))
    env.run()                      # all four parked, in that order
    for item in range(4):
        store.put(item)
    env.run()
    assert got == [("a", 0), ("b", 1), ("c", 2), ("d", 3)]
    assert len(store) == 0


def test_resource_grants_queued_requests_fifo(env):
    res = Resource(env, capacity=1)
    holder = res.request()
    queued = [res.request() for _ in range(4)]
    assert res.queue_length == 4
    granted = []
    for req in [holder] + queued:
        env.run()
        granted.append([q.processed for q in queued])
        res.release(req)
    env.run()
    assert granted == [[False] * 4,
                       [True, False, False, False],
                       [True, True, False, False],
                       [True, True, True, False],
                       [True, True, True, True]]
    assert res.count == 0 and res.queue_length == 0


def test_bounded_store_admits_blocked_putters_in_order(env):
    store = Store(env, capacity=1)
    store.try_put("first")
    second, third = store.put("second"), store.put("third")
    env.run()
    assert not second.triggered and not third.triggered
    got = []
    for _ in range(3):
        ok, item = store.try_get()
        assert ok
        got.append(item)
        env.run()
        if item == "first":
            assert second.processed and not third.triggered
    assert got == ["first", "second", "third"]
    assert third.processed and len(store) == 0


def test_interrupted_middle_getter_leaves_its_neighbours_queued(env):
    from repro.sim import Interrupt

    store = Store(env)
    got = []

    def getter(name):
        try:
            got.append((name, (yield store.get())))
        except Interrupt:
            pass

    procs = [env.process(getter(name)) for name in "abc"]
    env.run()
    procs[1].interrupt()
    env.run()
    assert store.cancelled_gets == 1
    store.put(1)
    store.put(2)
    env.run()
    assert got == [("a", 1), ("c", 2)]


def test_interrupted_middle_requester_leaves_its_neighbours_queued(env):
    from repro.sim import Interrupt

    res = Resource(env, capacity=1)
    holder = res.request()
    order = []

    def user(name):
        try:
            with res.request() as req:
                yield req
                order.append(name)
        except Interrupt:
            pass

    procs = [env.process(user(name)) for name in "abc"]
    env.run()
    assert res.queue_length == 3
    procs[1].interrupt()
    env.run()
    assert res.queue_length == 2
    res.release(holder)
    env.run()
    assert order == ["a", "c"]
    assert res.count == 0 and res.queue_length == 0


@pytest.mark.parametrize("capacity", [None, 1])
def test_store_that_never_buffered_reads_empty(env, capacity):
    store = Store(env, capacity=capacity)
    assert len(store) == 0
    assert not store.is_full
    assert store.try_get() == (False, None)
    with pytest.raises(SimulationError):
        store.peek()
    store.try_put("x")             # the first buffered item
    assert len(store) == 1
    assert store.is_full == (capacity == 1)
    assert store.peek() == "x"
    assert store.try_get() == (True, "x")
    assert len(store) == 0 and not store.is_full
