"""Core event loop, events and processes.

Semantics follow the familiar generator-coroutine discrete-event style:

* An :class:`Event` is triggered exactly once, either successfully
  (carrying a value) or as a failure (carrying an exception).
* A :class:`Process` wraps a generator.  The generator ``yield``\\ s
  events; the process resumes when the yielded event is processed.  A
  failed event is re-raised inside the generator, so protocol code can
  handle simulated faults with ordinary ``try``/``except``.
* The :class:`Environment` owns the clock and the event heap.  Events
  scheduled for the same instant are processed in scheduling order,
  which keeps runs deterministic.

The engine is the hot path under every experiment sweep, so the inner
loop is tuned:

* callback lists are created lazily — an event allocates no list until
  the first waiter attaches (``callbacks`` stays a plain list for
  waiters; it reads as ``None`` once the event is processed, exactly as
  before);
* the default scheduler is a *calendar queue*: pending events live in
  per-instant buckets (plain lists in scheduling order) and only the
  set of **distinct** occupied timestamps sits in a binary heap.  An
  event triggered at the current instant — the dominant case: every
  ``succeed``/``fail``, every Store hand-off — is one list append and
  one indexed read, no heap traffic at all; a timeout shares its
  bucket (and therefore its heap entry) with every other event landing
  on the same nanosecond.  Far-future or sparse events degrade
  gracefully to the distinct-times heap.  Pop order is identical to
  the classic ``(time, seq)`` heap, so runs are byte-for-byte the
  same; ``Environment(scheduler="heap")`` keeps the legacy heap for
  differential testing, and any ``tie_break`` policy forces it (an
  arbitrary tie key needs a real priority queue);
* :meth:`Environment.sleep` recycles processed :class:`Timeout`
  objects from a free pool.  Recycling is opt-in and guarded by an
  explicit ``_recycle`` flag rather than a refcount probe (which
  silently stopped firing under ``coverage``/``sys.settrace``):
  ``sleep()`` timeouts are fire-and-forget by contract — yield them
  immediately and never retain them — while :meth:`Environment.timeout`
  events are never pooled and safe to hold, pass to conditions, or use
  as ``run(until=...)`` targets;
* :meth:`Environment.run` processes events in an inlined loop instead
  of dispatching through :meth:`step` per event;
* :meth:`Environment.run` holds the cyclic garbage collector off while
  it runs and restores the caller's setting afterwards.  Every event
  allocates short-lived objects, and a collection every few hundred of
  them walks the whole live cluster to free nothing: reference counting
  already frees each event, packet and record as it dies.  Model code
  must therefore not create reference cycles per event;
  ``tests/regressions/test_run_gc.py`` pins that.

Same-instant ordering is *pluggable*: the heap key of an event is
``(time, tie_key)`` where ``tie_key`` defaults to the scheduling
sequence number (strict FIFO — byte-identical to the historical
behaviour).  An :class:`Environment` built with a ``tie_break`` policy
(any object with a ``key(when, seq) -> int`` method, see
:mod:`repro.fuzz.policies`) maps each ``(when, seq)`` pair to an
alternative key, deterministically permuting events that share a
timestamp.  Every permutation a policy can produce is a legal schedule
of the simulated machine; the fuzz harness uses this to explore
tie-break orderings the default FIFO run never exercises.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process sees this exception at its current yield
    point; ``cause`` carries whatever the interrupter passed.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


_PENDING = object()
#: sentinel stored in ``_callbacks`` once an event's callbacks have run
_PROCESSED = object()
#: maximum number of recycled Timeout objects kept per environment
_POOL_MAX = 256
#: compact the current calendar bucket once this many slots are consumed,
#: so a long same-instant cascade does not grow the list without bound
_COMPACT = 4096


class Event:
    """A one-shot occurrence other processes can wait on."""

    __slots__ = ("env", "_callbacks", "_value", "_ok", "_defused",
                 "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        # None = no waiters yet (lazy), list = waiters, _PROCESSED = done.
        self._callbacks: Any = None
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._scheduled: bool = False

    # -- state ---------------------------------------------------------
    @property
    def callbacks(self) -> Optional[list]:
        """Callables invoked (with this event) when the event is
        processed; ``None`` once it has been processed."""
        cbs = self._callbacks
        if cbs is _PROCESSED:
            return None
        if cbs is None:
            cbs = self._callbacks = []
        return cbs

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully with ``value`` (processed this instant)."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._scheduled = True
        env = self.env
        if env._use_heap:
            tb = env._tie_break
            seq = env._seq
            heappush(env._heap,
                     (env._now, seq if tb is None else tb.key(env._now, seq),
                      self))
            env._seq = seq + 1
        else:
            # Calendar fast path: triggering always lands on the current
            # instant, which is exactly the open bucket.
            env._bucket.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger as a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._scheduled = True
        env = self.env
        if env._use_heap:
            tb = env._tie_break
            seq = env._seq
            heappush(env._heap,
                     (env._now, seq if tb is None else tb.key(env._now, seq),
                      self))
            env._seq = seq + 1
        else:
            env._bucket.append(self)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the loop does not re-raise it."""
        self._defused = True

    def _on_orphaned(self) -> None:
        """Hook: the last waiter detached before the event triggered.

        Called by :meth:`Process.interrupt` when it strips the final
        callback off an untriggered event.  Resource primitives override
        this to drop the dead waiter from their queues so a later grant
        or item hand-off cannot be silently lost.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    ``_recycle`` marks a timeout as pool-eligible: only
    :meth:`Environment.sleep` sets it, and only the run loop consults
    it.  A plain :meth:`Environment.timeout` event is never recycled,
    so it is always safe to retain.
    """

    __slots__ = ("delay", "_recycle")

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.env = env
        self._callbacks = None
        self._value = value
        self._ok = True
        self._defused = False
        self._scheduled = True
        self.delay = delay
        self._recycle = False
        env._push(env._now + delay, self)


class _ConditionBase(Event):
    """Shared machinery for AllOf/AnyOf."""

    __slots__ = ("events", "_n_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        # Wire up after validation so a raise leaves no dangling callbacks.
        for ev in self.events:
            cbs = ev._callbacks
            if cbs is _PROCESSED:
                self._check(ev)
            elif cbs is None:
                ev._callbacks = [self._check]
            else:
                cbs.append(self._check)
        if not self.events and not self.triggered:
            self.succeed(self._result())

    def _result(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._result())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_orphaned(self) -> None:
        # The condition lost its last waiter before triggering: detach
        # _check from every pending constituent, and propagate
        # orphanhood so queue-backed constituents (Store getters,
        # Resource requests, credit gates) withdraw themselves instead
        # of absorbing a later hand-off into a dead condition.
        for ev in self.events:
            cbs = ev._callbacks
            if cbs is not _PROCESSED and cbs and self._check in cbs:
                cbs.remove(self._check)
                if not cbs and ev._value is _PENDING:
                    ev._on_orphaned()


class AllOf(_ConditionBase):
    """Succeeds when every constituent event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done == len(self.events)


class AnyOf(_ConditionBase):
    """Succeeds as soon as any constituent event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class Process(Event):
    """A running generator; the process-event fires when it returns."""

    __slots__ = ("generator", "name", "_target", "is_alive")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self.is_alive = True
        # Kick off at the current instant.
        start = Event(env)
        start.succeed()
        start._callbacks = [self._resume]

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at this instant."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._target is None:
            raise SimulationError(
                f"cannot interrupt {self.name!r}: it is not waiting yet")
        env = self.env
        hit = Event(env)
        hit._ok = False
        hit._value = Interrupt(cause)
        hit._defused = True
        # Detach from whatever it was waiting on so the wait outcome
        # does not also resume it later.
        target = self._target
        cbs = target._callbacks
        if cbs is not _PROCESSED and cbs and self._resume in cbs:
            cbs.remove(self._resume)
            if not cbs and target._value is _PENDING:
                # The wait target lost its last waiter before triggering:
                # let queue-backed events (Store getters/putters, Resource
                # requests) withdraw themselves instead of absorbing a
                # later hand-off into a dead event.
                target._on_orphaned()
        env._schedule(hit, 0)
        hit._callbacks = [self._resume]

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self.generator
        try:
            while True:
                try:
                    if event._ok:
                        yielded = generator.send(event._value)
                    else:
                        event._defused = True
                        yielded = generator.throw(event._value)
                except StopIteration as stop:
                    self.is_alive = False
                    self._target = None
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self.is_alive = False
                    self._target = None
                    self.fail(exc)
                    return

                if not isinstance(yielded, Event):
                    err = SimulationError(
                        f"process {self.name!r} yielded {yielded!r}, "
                        "which is not an Event")
                    self.is_alive = False
                    self._target = None
                    self.fail(err)
                    return
                cbs = yielded._callbacks
                if cbs is _PROCESSED:
                    # Already settled: loop and feed its value straight in.
                    event = yielded
                    continue
                if cbs is None:
                    yielded._callbacks = [self._resume]
                else:
                    cbs.append(self._resume)
                self._target = yielded
                return
        finally:
            env._active_process = None


class Environment:
    """Owner of the virtual clock and the pending-event queue.

    ``tie_break`` selects the same-instant ordering policy: ``None``
    (the default) keeps strict FIFO scheduling order and is
    byte-identical to an environment without the hook; any object with
    a ``key(when, seq) -> int`` method (e.g.
    :class:`repro.fuzz.policies.ShuffledTieBreak`) replaces the heap
    tie key, deterministically permuting same-timestamp events.

    ``scheduler`` picks the queue implementation: ``"calendar"`` (the
    default) keeps per-instant buckets with a heap of distinct
    timestamps; ``"heap"`` is the classic ``(time, seq)`` binary heap.
    Both produce identical schedules for FIFO runs — the heap survives
    as the differential-testing reference and as the carrier for
    ``tie_break`` policies, which force it.
    """

    __slots__ = ("_now", "_heap", "_seq", "_active_process", "_timeout_pool",
                 "_audit", "_tie_break", "_telemetry", "_recorder",
                 "_use_heap", "_bucket", "_pos", "_buckets", "_times",
                 "_n_events")

    def __init__(self, initial_time: int = 0, tie_break=None,
                 scheduler: str = "calendar"):
        if scheduler not in ("calendar", "heap"):
            raise SimulationError(
                f"unknown scheduler {scheduler!r} "
                "(expected 'calendar' or 'heap')")
        self._now: int = initial_time
        self._heap: list[tuple[int, int, Event]] = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self._timeout_pool: list[Timeout] = []
        # Optional repro.audit.Auditor; instrumented layers look it up
        # with getattr(env, "_audit", None) so the off-path cost is one
        # attribute read.
        self._audit = None
        # Optional repro.telemetry.TelemetrySession, looked up the same
        # way by runtime-created endpoints that register instruments.
        self._telemetry = None
        # Optional repro.telemetry.recorder.FlightRecorder; heartbeats
        # are taken only where the clock advances to a new instant, so
        # the disabled path costs one attribute read per clock advance
        # and the per-event hot loop stays untouched.
        self._recorder = None
        if tie_break is not None and not callable(
                getattr(tie_break, "key", None)):
            raise SimulationError(
                f"tie_break policy {tie_break!r} has no key(when, seq) "
                "method")
        self._tie_break = tie_break
        # An arbitrary tie key needs a real priority queue; the calendar
        # only preserves FIFO order within a bucket.
        self._use_heap = scheduler == "heap" or tie_break is not None
        #: events pending at the current instant, consumed by index
        self._bucket: list[Event] = []
        self._pos: int = 0
        #: future (or, via _schedule_at, past) instants -> their buckets
        self._buckets: dict[int, list[Event]] = {}
        #: heap of the *distinct* occupied timestamps in _buckets
        self._times: list[int] = []
        self._n_events: int = 0

    @property
    def tie_break(self):
        """The installed tie-break policy (``None`` = strict FIFO)."""
        return self._tie_break

    @property
    def scheduler(self) -> str:
        """Active queue implementation: ``"calendar"`` or ``"heap"``."""
        return "heap" if self._use_heap else "calendar"

    @property
    def events_processed(self) -> int:
        """Total events processed so far (perf-benchmark counter)."""
        return self._n_events

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories -----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """A timer event that is safe to retain.

        The returned event is never recycled, so it may be stored,
        passed to :meth:`all_of`/:meth:`any_of`, or used as a
        ``run(until=...)`` target.  Hot paths that just pause should
        prefer :meth:`sleep`.
        """
        return Timeout(self, int(delay), value)

    def sleep(self, delay: int) -> Timeout:
        """A fire-and-forget timer for hot paths; pooled and recycled.

        Contract: ``yield env.sleep(d)`` immediately and do not retain
        the returned event — once its callbacks have run, the engine
        recycles it into a free pool for a later ``sleep()``.  The
        hardware and firmware models use this for every wire, DMA and
        processing delay.  Code that keeps the event around (conditions,
        ``run(until=...)`` targets, value-carrying timers) must use
        :meth:`timeout` instead.
        """
        delay = int(delay)
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay}")
            t = pool.pop()
            t._callbacks = None
            t._value = None
            t._ok = True
            t._defused = False
            t.delay = delay
            self._push(self._now + delay, t)
            return t
        t = Timeout(self, delay)
        t._recycle = True
        return t

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------
    def _push(self, when: int, event: Event) -> None:
        """Enqueue a triggered event for processing at ``when``."""
        if self._use_heap:
            tb = self._tie_break
            seq = self._seq
            heappush(self._heap,
                     (when, seq if tb is None else tb.key(when, seq), event))
            self._seq = seq + 1
        elif when == self._now:
            self._bucket.append(event)
        else:
            bucket = self._buckets.get(when)
            if bucket is None:
                # First event on this instant: the only heap operation a
                # whole bucket ever costs.
                self._buckets[when] = [event]
                heappush(self._times, when)
            else:
                bucket.append(event)

    def _schedule(self, event: Event, delay: int) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._push(self._now + delay, event)

    def _schedule_at(self, event: Event, when: int) -> None:
        """Schedule a triggered event at an absolute time (test hook).

        Unlike every public path this accepts a ``when`` in the past;
        the run loop surfaces such events to the auditor's past-event
        check.  Used by the audit selftest to provoke exactly that
        violation without reaching into queue internals.
        """
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._push(when, event)

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None when idle."""
        if self._use_heap:
            return self._heap[0][0] if self._heap else None
        if self._pos < len(self._bucket):
            return self._now
        return self._times[0] if self._times else None

    def step(self) -> None:
        """Process exactly one event."""
        if self._use_heap:
            if not self._heap:
                raise SimulationError("no scheduled events")
            when, _, event = heappop(self._heap)
            if when < self._now:  # pragma: no cover - engine invariant
                raise SimulationError("time went backwards")
            if self._recorder is not None and when > self._now:
                self._recorder.on_advance(when, self._n_events)
            self._now = when
        else:
            if self._pos >= len(self._bucket):
                if not self._times:
                    raise SimulationError("no scheduled events")
                when = heappop(self._times)
                if when < self._now:  # pragma: no cover - engine invariant
                    raise SimulationError("time went backwards")
                if self._recorder is not None:
                    self._recorder.on_advance(when, self._n_events)
                self._bucket = self._buckets.pop(when)
                self._pos = 0
                self._now = when
            event = self._bucket[self._pos]
            self._pos += 1
            # Same amortized compaction as the run() loop — step() used
            # to never compact, so a long-lived same-instant bucket
            # pinned every consumed event for its whole lifetime.
            if self._pos >= _COMPACT and self._pos * 2 >= len(self._bucket):
                del self._bucket[:self._pos]
                self._pos = 0
        self._n_events += 1
        callbacks = event._callbacks
        event._callbacks = _PROCESSED
        if callbacks:
            for callback in callbacks:
                callback(event)
            if type(event) is Timeout and event._recycle \
                    and len(self._timeout_pool) < _POOL_MAX:
                self._timeout_pool.append(event)
        if not event._ok and not event._defused:
            # An unhandled simulated failure is a real failure.
            raise event._value

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be an absolute time (ns), an :class:`Event` (run
        until it is processed, return its value), or ``None`` (run the
        queue dry).

        The cyclic garbage collector is off while the loop runs; the
        caller's setting is restored on the way out, by return or by
        exception, and a nested call leaves it off.  Reference counting
        still frees every event, packet and record as it dies, so model
        code must not create reference cycles per event: such a cycle
        lives until the next collection after the run.
        ``tests/regressions/test_run_gc.py`` pins that representative
        runs leave none.
        """
        stop: Optional[Event] = None
        horizon: Optional[int] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
            else:
                horizon = int(until)
                if horizon < self._now:
                    raise SimulationError(
                        f"until={horizon} is in the past (now={self._now})")
        collecting = gc.isenabled()
        gc.disable()
        try:
            if self._use_heap:
                return self._run_heap(stop, horizon)
            return self._run_calendar(stop, horizon)
        finally:
            if collecting:
                gc.enable()

    def _run_calendar(self, stop: Optional[Event],
                      horizon: Optional[int]) -> Any:
        """The calendar-queue run loop (the default path)."""
        buckets = self._buckets
        times = self._times
        pool = self._timeout_pool
        audit = self._audit
        recorder = self._recorder
        bucket = self._bucket
        pos = self._pos
        n = self._n_events
        try:
            while True:
                if stop is not None and stop._callbacks is _PROCESSED:
                    if not stop._ok:
                        raise stop._value
                    return stop._value
                if pos < len(bucket):
                    # Inlined hot path: one indexed read per event.
                    event = bucket[pos]
                    pos += 1
                else:
                    # Current instant drained — advance the clock to the
                    # next occupied timestamp (or stop at the horizon).
                    if not times:
                        if stop is not None:
                            raise SimulationError(
                                "simulation ran out of events before the "
                                "target event triggered (deadlock at "
                                f"t={self._now} ns)")
                        if audit is not None:
                            audit.on_quiesce(self)
                        if horizon is not None:
                            self._now = horizon
                        return None
                    if horizon is not None and times[0] > horizon:
                        self._now = horizon
                        return None
                    when = heappop(times)
                    bucket = self._bucket = buckets.pop(when)
                    pos = 0
                    if audit is not None and when < self._now:
                        audit.on_past_event(bucket[0], when, self._now)
                    if recorder is not None:
                        recorder.on_advance(when, n)
                    self._now = when
                    continue
                n += 1
                callbacks = event._callbacks
                event._callbacks = _PROCESSED
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                    # Interrupt strips a waiter list down to []; such a
                    # timeout may still be referenced by the process, so
                    # only non-empty callback lists recycle.
                    if type(event) is Timeout and event._recycle \
                            and len(pool) < _POOL_MAX:
                        pool.append(event)
                if not event._ok and not event._defused:
                    raise event._value
                if pos >= _COMPACT and pos * 2 >= len(bucket):
                    # Amortized compaction: only shift the tail once the
                    # consumed prefix dominates the bucket.  Compacting
                    # unconditionally every _COMPACT events is O(len)
                    # per slice on a huge same-instant bucket (open-loop
                    # fan-in), i.e. quadratic overall; gating on the
                    # half-way mark keeps each element shifted O(1)
                    # times while still bounding memory at ~2x live.
                    del bucket[:pos]
                    pos = 0
        finally:
            self._pos = pos
            self._n_events = n

    def _run_heap(self, stop: Optional[Event],
                  horizon: Optional[int]) -> Any:
        """The classic binary-heap run loop (tie-break & differential
        reference path)."""
        heap = self._heap
        pool = self._timeout_pool
        audit = self._audit
        recorder = self._recorder
        n = self._n_events
        try:
            while True:
                if stop is not None:
                    if stop._callbacks is _PROCESSED:
                        if not stop._ok:
                            raise stop._value
                        return stop._value
                    if not heap:
                        raise SimulationError(
                            "simulation ran out of events before the target "
                            f"event triggered (deadlock at t={self._now} ns)")
                elif horizon is not None:
                    if not heap or heap[0][0] > horizon:
                        if audit is not None and not heap:
                            audit.on_quiesce(self)
                        self._now = horizon
                        return None
                elif not heap:
                    if audit is not None:
                        audit.on_quiesce(self)
                    return None
                # Inlined step(): one dispatch per event is the hot path.
                when, _, event = heappop(heap)
                if audit is not None and when < self._now:
                    audit.on_past_event(event, when, self._now)
                if recorder is not None and when > self._now:
                    recorder.on_advance(when, n)
                self._now = when
                n += 1
                callbacks = event._callbacks
                event._callbacks = _PROCESSED
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                    if type(event) is Timeout and event._recycle \
                            and len(pool) < _POOL_MAX:
                        pool.append(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._n_events = n
