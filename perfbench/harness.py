"""Measurement harness: phase clock, repetition loop and statistics.

The benchmark times the program from the outside.  It wraps
``Environment.run`` for the life of a run, so every operation splits
into two host-time phases with no change to the program:

* **setup** - from :meth:`PhaseClock.begin` (just before the operation
  builds its clusters and pre-generates its inputs) to the first entry
  into ``Environment.run``, i.e. the first simulated event;
* **run** - from that first entry to :meth:`PhaseClock.end`, called as
  soon as the operation returns and before its output is checked.

Host-speed samples (:mod:`hostspeed`) that interrupt a phase are taken
out of it, and each phase is scaled to reference host speed by the
samples around it.  The same hooks switch between the build and the run
profiler in a traced run (see :mod:`layers`).
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: setup samples wanted per op; cheap setups are probed up to this
SETUP_SAMPLES = 48
#: a setup shorter than this (s) is probed; longer ones (the
#: thousand-rank build) come only from full rounds
PROBE_SETUP_BELOW_S = 0.05


class SetupDone(Exception):
    """Raised at the first simulated event of a setup-only probe."""


class PhaseClock:
    """Splits each timed operation at its first simulated event."""

    def __init__(self, profiles=None, speed=None):
        #: optional :class:`layers.PhaseProfiles` switched at the phase
        #: boundaries (traced runs only)
        self.profiles = profiles
        #: optional :class:`hostspeed.HostSpeed` scaling each phase to
        #: reference host speed (untraced runs only)
        self.speed = speed
        #: stop each op at its first simulated event (setup probes)
        self.setup_only = False
        self._t_begin: Optional[float] = None
        self._t_first: Optional[float] = None
        self._pauses: list[tuple[float, float]] = []

    def begin(self) -> None:
        self._t_first = None
        self._pauses = []
        if self.profiles is not None:
            self.profiles.enter_build()
        self._t_begin = time.perf_counter()

    def on_run(self) -> None:
        if self._t_begin is None or self._t_first is not None:
            return
        self._t_first = time.perf_counter()
        if self.setup_only:
            raise SetupDone
        if self.profiles is not None:
            self.profiles.enter_run()

    def pause(self, start: float, end: float) -> None:
        """Leave the host interval ``[start, end]`` out of the op."""
        if self._t_begin is not None:
            self._pauses.append((start, end))

    def end(self) -> tuple[float, float]:
        """``(setup_s, run_s)`` of the operation just finished, at
        reference host speed when the clock has a ``speed``."""
        t_end = time.perf_counter()
        if self.profiles is not None:
            self.profiles.leave()
        t_begin, t_first = self._t_begin, self._t_first
        self._t_begin = self._t_first = None
        if t_begin is None:
            raise RuntimeError("PhaseClock.end() without begin()")
        if t_first is None:          # never reached a simulated event
            t_first = t_end

        def active(lo: float, hi: float) -> float:
            raw = hi - lo - sum(max(0.0, min(hi, b) - max(lo, a))
                                for a, b in self._pauses)
            return raw if self.speed is None else \
                raw * self.speed.factor(lo, hi)

        return active(t_begin, t_first), active(t_first, t_end)

    @contextlib.contextmanager
    def installed(self):
        """Route every ``Environment.run`` entry through :meth:`on_run`."""
        from repro.sim.core import Environment
        original = Environment.run
        clock = self

        def run(env, until=None):
            clock.on_run()
            return original(env, until)

        Environment.run = run
        try:
            yield self
        finally:
            Environment.run = original


@contextlib.contextmanager
def collect_instances(*classes, on_new=None):
    """Record every instance of ``classes`` built inside the block, and
    pass each to ``on_new`` as soon as it is built.

    Used by traced runs to read the simulated counters (public
    attributes) of clusters and endpoints that entry points such as
    ``run_cell`` build and drop internally.
    """
    found: dict[type, list] = {cls: [] for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def wrap(cls, init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            found[cls].append(self)
            if on_new is not None:
                on_new(self)
        return __init__

    for cls, init in originals.items():
        cls.__init__ = wrap(cls, init)
    try:
        yield found
    finally:
        for cls, init in originals.items():
            cls.__init__ = init


@dataclass
class Tally:
    """Checked operations: what was attempted and what failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Op:
    """One timed operation of a workload (a stream, a cell, a point)."""

    label: str
    run: Callable[[], object]           #: performs the operation
    check: Callable[[object], list[str]]  #: returns mismatch messages


@dataclass
class Measured:
    """Per-op ``(setup_s, run_s)`` samples of a repetition loop; a
    setup-only probe has ``run_s`` None."""

    samples: dict[str, list]
    rounds: int = 0
    #: peak resident set (MiB) when the first round ended: one pass
    #: over the workload, independent of how many rounds fit the budget
    first_round_rss_mb: float = 0.0


def run_ops(ops: list[Op], clock: PhaseClock, tally: Tally,
            seconds: float, min_rounds: int = 1) -> Measured:
    """Repeat every op round-robin until ``seconds`` of host time pass.

    A round runs each op once.  After ``min_rounds``, a new round starts
    only if the rounds so far predict it finishes inside the budget.
    """
    out = Measured({op.label: [] for op in ops})
    start = time.perf_counter()
    round_times: list[float] = []
    while out.rounds < min_rounds or (
            time.perf_counter() - start + statistics.median(round_times)
            <= seconds):
        t_round = time.perf_counter()
        for op in ops:
            gc.collect()
            clock.begin()
            try:
                result = op.run()
            except Exception as exc:   # a crashed op is a failed op
                clock.end()
                tally.record(False, f"{op.label}: {type(exc).__name__}: "
                                    f"{exc}")
                continue
            out.samples[op.label].append(clock.end())
            problems = op.check(result)
            tally.record(not problems, f"{op.label}: {'; '.join(problems)}")
        round_times.append(time.perf_counter() - t_round)
        out.rounds += 1
        if out.rounds == 1:
            out.first_round_rss_mb = peak_rss_mb()
    return out


def probe_setups(ops: list[Op], clock: PhaseClock, measured: Measured,
                 tally: Tally) -> None:
    """Top up each op's cheap setup samples to SETUP_SAMPLES by running
    it only up to its first simulated event."""
    clock.setup_only = True
    try:
        for op in ops:
            values = measured.samples[op.label]
            if not values or min(v[0] for v in values) >= PROBE_SETUP_BELOW_S:
                continue
            while len(values) < SETUP_SAMPLES:
                gc.collect()
                clock.begin()
                try:
                    op.run()
                except SetupDone:
                    values.append((clock.end()[0], None))
                    continue
                except Exception as exc:
                    tally.record(False, f"{op.label} setup: "
                                        f"{type(exc).__name__}: {exc}")
                clock.end()
                break
    finally:
        clock.setup_only = False


def op_cost(values: list) -> tuple[float, float]:
    """``(setup_s, run_s)`` of one op: medians over its samples, so one
    disturbed sample does not move the run's figure."""
    runs = [v[1] for v in values if v[1] is not None]
    return (statistics.median(v[0] for v in values),
            statistics.median(runs) if runs else 0.0)


def phase_costs(samples: dict[str, list]) -> tuple[float, float]:
    """``(setup_s, run_s)`` of the workload: its ops' costs summed."""
    setup = run = 0.0
    for values in samples.values():
        if values:
            op_setup, op_run = op_cost(values)
            setup += op_setup
            run += op_run
    return setup, run


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
