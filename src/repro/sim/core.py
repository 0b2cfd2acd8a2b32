"""Core event loop, events and processes.

Semantics follow the familiar generator-coroutine discrete-event style:

* An :class:`Event` is triggered exactly once, either successfully
  (carrying a value) or as a failure (carrying an exception).
* A :class:`Process` wraps a generator.  The generator ``yield``\\ s
  events; the process resumes when the yielded event is processed.  A
  failed event is re-raised inside the generator, so protocol code can
  handle simulated faults with ordinary ``try``/``except``.
* The :class:`Environment` owns the clock and the event queue.  Events
  scheduled for the same instant are processed in scheduling order,
  which keeps runs deterministic.

The engine is the hot path under every experiment sweep, so the inner
loop is tuned:

* an event allocates no callback list for a lone waiter: ``_callbacks``
  is ``None`` while nobody waits, the waiter's callable itself while
  one does (a parked :class:`Process` itself, a condition's
  ``_check``, a :class:`Wake`), and a list only once a second waiter
  arrives; every site that adds, removes or runs callbacks handles both
  shapes, and call order is attach order either way; an interrupt that
  takes one of two waiters off leaves the other as the lone callable.
  The public :attr:`Event.callbacks` still returns a list (promoting a
  lone waiter into one) and reads as ``None`` once the event is
  processed;
* the same protocol runs the model's packet path without processes.  A
  link pump or delivery, a switch port's forwarder and an MCP inject
  engine are *callback stages*: ``__slots__`` objects that are
  callable, queue their own start event with :func:`_ready` when they
  are built, and set themselves as the lone callback of each fresh
  event they wait on next (``event._callbacks = self``).  A stage keeps
  its state in slots instead of a suspended generator frame, and waits
  on the events, in the order, that a process running the same loop
  would, so the schedule is the same;
* the event queue is a *calendar queue*: pending events live in
  per-instant buckets (plain lists in scheduling order) and only the
  set of **distinct** occupied timestamps sits in a binary heap.  An
  event triggered at the current instant — the dominant case: every
  ``succeed``/``fail``, every Store hand-off — is one list append and
  one indexed read, no heap traffic at all; a timeout shares its
  bucket (and therefore its heap entry) with every other event landing
  on the same nanosecond.  Far-future or sparse events degrade
  gracefully to the distinct-times heap.  Pop order is that of a
  classic ``(time, seq)`` priority queue, so runs are byte-for-byte
  those of the binary-heap scheduler this queue replaced
  (``tests/test_engine_parity.py`` pins the digests);
* :meth:`Environment.run` is the one place events are dispatched, in
  an inlined loop;
* the per-event path spends as few Python calls as it can:
  :attr:`Environment.now` is a plain attribute, not a property; an
  event born triggered (a process's start event, a free resource
  grant, a store hand-off) is built and queued by one helper,
  :func:`_ready`, without the constructor chain; and
  :meth:`Environment.timeout`, the one timer, builds its event the same
  way and queues a future one inline.  A process is callable and
  is its own callback, so parking it allocates nothing: no bound
  method per wait, and no bound method cached on the process (that
  would be a process <-> bound-method cycle per process, which a run
  with the collector off leaves behind);
* :meth:`Environment.run` holds the cyclic garbage collector off while
  it runs and restores the caller's setting afterwards.  Every event
  allocates short-lived objects, and a collection every few hundred of
  them walks the whole live cluster to free nothing: reference counting
  already frees each event, packet and record as it dies.  Model code
  must therefore not create reference cycles per event, and a finished
  wait must not stay reachable: a triggered :class:`AnyOf`/:class:`AllOf`
  detaches from its unprocessed constituents, and :func:`wakeup_event`
  chains waiter events, not closures;
  ``tests/regressions/test_run_gc.py`` pins both.

Same-instant ordering is *pluggable*: events pop in ``(time,
tie_key)`` order, where ``tie_key`` defaults to the scheduling sequence
number (strict FIFO — byte-identical to the historical behaviour).  An
:class:`Environment` built with a ``tie_break`` policy (any object with
a ``key(when, seq) -> int`` method, see :mod:`repro.fuzz.policies`)
maps each ``(when, seq)`` pair to an alternative key, deterministically
permuting events that share a timestamp.  The calendar keeps that order
inside the bucket: each event's key is recorded in a dict that exists
only in tie-break mode, a bucket is sorted by key when it opens, and
the events triggered since the last pop are merged into its pending
tail by binary search before the next event is taken — exactly what a
``(time, key)`` priority queue would pop.  Every permutation a policy
can produce is a legal schedule of the simulated machine; the fuzz
harness uses this to explore tie-break orderings the default FIFO run
never exercises.
"""

from __future__ import annotations

import gc
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Wake",
    "wakeup",
    "wakeup_event",
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
#: compact the current calendar bucket once this many slots are consumed,
#: so a long same-instant cascade does not grow the list without bound
_COMPACT = 4096


class Event:
    """A one-shot occurrence other processes can wait on."""

    __slots__ = ("env", "_callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        # None = no waiters, a callable = its one waiter, a list = two or
        # more waiters in attach order, _PROCESSED = done.
        self._callbacks: Any = None
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

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
        elif type(cbs) is not list:
            cbs = self._callbacks = [cbs]
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
        env = self.env
        if env._keys is None:
            # Fast path: triggering always lands on the current instant,
            # which is exactly the open bucket.
            env._bucket.append(self)
        else:
            env._push(env.now, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger as a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        if env._keys is None:
            env._bucket.append(self)
        else:
            env._push(env.now, self)
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


_new = object.__new__


def _ready(cls: type, env: "Environment", value: Any = None) -> Event:
    """A new ``cls`` event, triggered with ``value`` and queued at the
    current instant: what ``cls(env).succeed(value)`` does, in one call.

    For events born triggered: a process's start event, a free
    :class:`~repro.sim.Resource` grant, a :class:`~repro.sim.Store` get
    of a waiting item and a ``put`` that did not block.  Slots a
    subclass adds to :class:`Event`'s are the caller's to set.
    """
    ev = _new(cls)
    ev.env = env
    ev._callbacks = None
    ev._value = value
    ev._ok = True
    ev._defused = False
    if env._keys is None:
        env._bucket.append(ev)
    else:
        env._push(env.now, ev)
    return ev


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation; built
    by :meth:`Environment.timeout`."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # Built without the constructor, so a direct call could only
        # make a timer that never fires.
        raise SimulationError("build a timer with Environment.timeout()")


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
        # Once a processed constituent has triggered the condition, the
        # rest would only call a _check that returns at once: leave them
        # unwired.
        check = self._check
        for ev in self.events:
            if self._value is not _PENDING:
                break
            cbs = ev._callbacks
            if cbs is _PROCESSED:
                check(ev)
            elif cbs is None:
                ev._callbacks = check
            elif type(cbs) is list:
                cbs.append(check)
            else:
                ev._callbacks = [cbs, check]
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
        else:
            self._n_done += 1
            if not self._satisfied():
                return
            self.succeed(self._result())
        self._detach()

    def _detach(self, orphaned: bool = False) -> None:
        """Take ``_check`` off every constituent not yet processed.

        Called once the condition has triggered: a constituent that
        never fires (a wakeup nobody signals, a withdrawn credit gate)
        would otherwise hold the condition, its value dict and every
        other constituent for the rest of the run.  The removed
        ``_check`` could only have returned at once, so no outcome
        changes: a constituent that fails later is unhandled exactly as
        before, and no orphan hook runs.

        With ``orphaned`` (the condition lost its last waiter before
        triggering), a pending constituent left with no callbacks is
        told so, so queue-backed constituents (Store getters, Resource
        requests, credit gates) withdraw themselves instead of absorbing
        a later hand-off into a dead condition.
        """
        check = self._check
        for ev in self.events:
            cbs = ev._callbacks
            if type(cbs) is list:
                if check not in cbs:
                    continue
                cbs.remove(check)
                if cbs:
                    continue
            elif cbs != check:
                continue
            ev._callbacks = None
            if orphaned and ev._value is _PENDING:
                ev._on_orphaned()

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_orphaned(self) -> None:
        self._detach(orphaned=True)


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


class Wake(Event):
    """A waiter's own event on a shared wakeup chain.

    The waiter event itself is the callback on the shared event:
    processing the shared event calls it, and the call succeeds it.  A
    parked wait therefore allocates this one event, and no closure,
    cell or bound method; the first waiter of a chain is the shared
    event's lone callback, so a chain allocates a list only for its
    second waiter.
    """

    __slots__ = ()

    def __call__(self, _event: Event) -> None:
        self.succeed()


def wakeup_event(owner: Any, attr: str, ready: bool) -> Wake:
    """An event that fires on the next :func:`wakeup` of ``owner.attr``.

    ``ready`` means the condition the waiter waits for already holds:
    the event then succeeds at once, so a waiter never sleeps through a
    signal.  Otherwise the event is chained onto the shared event held
    in ``owner.attr``, which is created here on the first wait.  Several
    waiters share one shared event and are woken in the order they
    parked.
    """
    ev = Wake(owner.env)
    if ready:
        ev.succeed()
        return ev
    shared = getattr(owner, attr)
    if shared is None:
        shared = Event(owner.env)
        shared._callbacks = ev
        setattr(owner, attr, shared)
    else:
        cbs = shared._callbacks
        if type(cbs) is list:
            cbs.append(ev)
        else:
            shared._callbacks = [cbs, ev]
    return ev


def wakeup(owner: Any, attr: str) -> None:
    """Wake every waiter parked on ``owner.attr`` and start a new chain."""
    shared = getattr(owner, attr)
    if shared is not None:
        shared.succeed()
        setattr(owner, attr, None)


class Process(Event):
    """A running generator; the process-event fires when it returns.

    The process is its own callback: calling it with an event resumes
    the generator with that event's outcome.  It is the callback on its
    start event, on every event it yields and on an interrupt's hit, so
    a parked process costs no bound method.  An unnamed process stores
    no name: :attr:`name` reads the generator's ``__qualname__``
    (``Mcp._recv_engine``) when an error message asks for it.
    """

    __slots__ = ("generator", "_name", "_target", "is_alive")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        self.env = env
        self._callbacks = None
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.generator = generator
        self._name = name
        self._target: Optional[Event] = None
        self.is_alive = True
        # Kick off at the current instant.
        _ready(Event, env)._callbacks = self

    @property
    def name(self) -> str:
        """The name given at construction, else the generator's
        ``__qualname__``."""
        return self._name or getattr(self.generator, "__qualname__",
                                     "process")

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
        # does not also resume it later.  An event compares by
        # identity, so ``in`` and ``remove`` find this process only.
        target = self._target
        cbs = target._callbacks
        orphaned = False
        if type(cbs) is list:
            if self in cbs:
                cbs.remove(self)
                if len(cbs) < 2:
                    # A list holds two or more waiters: go back to the
                    # lone waiter itself, or to no waiter at all.
                    target._callbacks = cbs[0] if cbs else None
                    orphaned = not cbs
        elif cbs is self:
            target._callbacks = None
            orphaned = True
        if orphaned and target._value is _PENDING:
            # The wait target lost its last waiter before triggering:
            # let queue-backed events (Store getters/putters, Resource
            # requests) withdraw themselves instead of absorbing a
            # later hand-off into a dead event.
            target._on_orphaned()
        env._schedule_at(hit, env.now)
        hit._callbacks = self

    def __call__(self, event: Event) -> None:
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
                    yielded._callbacks = self
                elif type(cbs) is list:
                    cbs.append(self)
                else:
                    yielded._callbacks = [cbs, self]
                self._target = yielded
                return
        finally:
            env._active_process = None


class Environment:
    """Owner of the virtual clock and the pending-event queue.

    Pending events sit in a calendar queue: per-instant buckets plus a
    heap of the distinct occupied timestamps.

    ``tie_break`` selects the same-instant ordering policy: ``None``
    (the default) keeps strict FIFO scheduling order and is
    byte-identical to an environment without the hook; any object with
    a ``key(when, seq) -> int`` method (e.g.
    :class:`repro.fuzz.policies.ShuffledTieBreak`) supplies the key
    that orders events within a bucket, deterministically permuting
    same-timestamp events.
    """

    __slots__ = ("now", "_seq", "_active_process", "_audit", "_tie_break",
                 "_telemetry", "_recorder", "_keys", "_bucket", "_pos",
                 "_merged", "_buckets", "_times", "_n_events")

    def __init__(self, initial_time: int = 0, tie_break=None):
        #: current virtual time in nanoseconds (a plain attribute: the
        #: model reads it on every charged operation)
        self.now: int = initial_time
        self._seq: int = 0
        self._active_process: Optional[Process] = None
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
        #: tie-break mode only: pending event -> its tie key
        self._keys: Optional[dict[Event, int]] = (
            None if tie_break is None else {})
        #: events pending at the current instant, consumed by index
        self._bucket: list[Event] = []
        self._pos: int = 0
        #: tie-break mode only: ``_bucket[_pos:_merged]`` is in key order
        self._merged: int = 0
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
    def events_processed(self) -> int:
        """Total events processed so far (perf-benchmark counter)."""
        return self._n_events

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories -----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ns from now with ``value``.

        The one timer: every wire, DMA and processing delay yields one,
        and it may equally be kept, passed to :meth:`all_of`/
        :meth:`any_of` or used as a ``run(until=...)`` target.  Built
        like :func:`_ready`, and queued inline when it lands on a future
        instant in FIFO mode: a serial sleeper pays one call per timer.
        """
        delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        t = _new(Timeout)
        t.env = self
        t._callbacks = None
        t._value = value
        t._ok = True
        t._defused = False
        if delay and self._keys is None:
            # _push inlined for a future instant in FIFO mode.
            when = self.now + delay
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [t]
                heappush(self._times, when)
            else:
                bucket.append(t)
        else:
            self._push(self.now + delay, t)
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
        keys = self._keys
        if keys is not None:
            seq = self._seq
            keys[event] = self._tie_break.key(when, seq)
            self._seq = seq + 1
        if when == self.now:
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

    def _schedule_at(self, event: Event, when: int) -> None:
        """Schedule a triggered event at an absolute time.

        :meth:`Process.interrupt` queues its hit at the current instant
        through here.  Unlike every public path this accepts a ``when``
        in the past; the run loop surfaces such events to the auditor's
        past-event check, which the audit selftest provokes this way
        without reaching into queue internals.
        """
        if event._callbacks is _PROCESSED:
            raise SimulationError(f"{event!r} already processed")
        self._push(when, event)

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None when idle."""
        if self._pos < len(self._bucket):
            return self.now
        return self._times[0] if self._times else None

    def _order_tail(self, bucket: list[Event], pos: int,
                    merged: int) -> int:
        """Tie-break mode: put the pending tail ``bucket[pos:]`` in key
        order, drop the key of ``bucket[pos]`` (the event about to be
        taken) and return the new ordered end.

        ``bucket[pos:merged]`` is already ordered; what follows it was
        triggered since the last pop.  A few such events are merged one
        by one, each a binary search and a list insert.  Many against a
        short ordered tail (a freshly opened bucket, a wide fan-out) are
        cheaper to sort at once.  Re-sorting the whole tail on every pop
        would be quadratic in a long same-instant cascade.
        """
        keys = self._keys
        key = keys.__getitem__
        fresh = len(bucket) - merged
        if fresh * 64 >= len(bucket) - pos:
            bucket[pos:] = sorted(bucket[pos:], key=key)
        elif fresh:
            tail = bucket[merged:]
            del bucket[merged:]
            for event in tail:
                insort(bucket, event, pos, key=key)
        del keys[bucket[pos]]
        return len(bucket)

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
        lives until the next collection after the run.  Nor may a
        finished wait stay reachable: a triggered condition detaches
        from its unprocessed constituents, and shared wakeups chain the
        waiters' own :class:`Wake` events (:func:`wakeup_event`) rather
        than a closure per wait.  ``tests/regressions/test_run_gc.py``
        pins that representative runs leave no cycles and retain no
        finished wait.
        """
        stop: Optional[Event] = None
        horizon: Optional[int] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
            else:
                horizon = int(until)
                if horizon < self.now:
                    raise SimulationError(
                        f"until={horizon} is in the past (now={self.now})")
        buckets = self._buckets
        times = self._times
        audit = self._audit
        recorder = self._recorder
        keys = self._keys
        bucket = self._bucket
        pos = self._pos
        merged = self._merged
        n = self._n_events
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                if stop is not None and stop._callbacks is _PROCESSED:
                    if not stop._ok:
                        raise stop._value
                    return stop._value
                if pos < len(bucket):
                    if keys is not None:
                        merged = self._order_tail(bucket, pos, merged)
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
                                f"t={self.now} ns)")
                        if audit is not None:
                            audit.on_quiesce(self)
                        if horizon is not None:
                            self.now = horizon
                        return None
                    if horizon is not None and times[0] > horizon:
                        self.now = horizon
                        return None
                    when = heappop(times)
                    bucket = self._bucket = buckets.pop(when)
                    pos = merged = 0
                    if audit is not None and when < self.now:
                        audit.on_past_event(bucket[0], when, self.now)
                    if recorder is not None:
                        recorder.on_advance(when, n)
                    self.now = when
                    continue
                n += 1
                callbacks = event._callbacks
                event._callbacks = _PROCESSED
                if callbacks:
                    if type(callbacks) is list:
                        for callback in callbacks:
                            callback(event)
                    else:
                        callbacks(event)
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
                    merged -= pos
                    pos = 0
        finally:
            self._pos = pos
            self._merged = merged
            self._n_events = n
            if collecting:
                gc.enable()
