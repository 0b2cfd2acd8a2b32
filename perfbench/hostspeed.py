"""Host-speed reference: a fixed kernel timed alongside the program.

On a shared machine the same Python code runs up to about 1.6x slower
while other tenants are busy, in episodes from under a second to
several minutes, and CPU time grows with wall time.  Raw seconds of two
sets of ten runs of identical code differed by up to 27 % (see the
steadiness record in README.md).  A run therefore also times
:func:`reference_kernel` - a small heap-ordered generator loop, like the
simulator's inner loop but frozen here so that it never changes with
the program - every :data:`EVERY_S` of wall time from a ``SIGALRM``
timer, and takes the kernel's time out of the phase it interrupted.
Each phase's raw seconds are scaled by ``REFERENCE_S`` over the median
kernel time of the samples taken from :data:`WINDOW_S` before the phase
to its end, to the power :data:`SENSITIVITY`: host seconds at the
reference speed.  The program and the kernel are timed over the same
few seconds, so an episode slows both; one median over the whole run
would not follow episodes that hit some phases and miss others.  The
small kernel stays in cache and slows more than the simulator does, so
the factor is damped by a fitted power.

The episodes are per CPU: with two CPUs, one often runs the kernel in
3 ms while the other needs 5-6 ms, and the two swap every few seconds.
So each sample times the kernel on every CPU the process may use and
pins the process to the fastest for the next interval.  The program
then spends most of a run on an uncontended CPU, and the scale corrects
only the intervals when every CPU is busy.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import os
import signal
import statistics
import time

#: median kernel time (s), under Python 3.11, on a vCPU of the shared
#: 2-vCPU Xeon VM the steadiness record was made on, while no other
#: tenant competed; only a constant factor, it makes no figure steadier
REFERENCE_S = 0.0030
#: wall seconds between kernel samples
EVERY_S = 0.25
#: a phase is scaled by the samples from this many seconds before it
WINDOW_S = 2.0
#: ... or by the last this many samples, if the window holds fewer
MIN_SAMPLES = 5
#: simulator time grows as kernel time to this power: fitted over 214
#: 0.7 s serve chunks timed between kernel samples (kernel 3.0-5.8 ms),
#: where it left 9.9 % variation against 12.0 % at 1.0 and 15.5 % at 0
SENSITIVITY = 0.6


class _Event:
    __slots__ = ("when", "value", "callbacks")

    def __init__(self, when: int, value: int):
        self.when = when
        self.value = value
        self.callbacks: list = []


def _process(totals: dict, steps: int):
    total = 0
    for k in range(steps):
        event = yield (k * 7 + 3) % 11
        total += event.value
    totals["done"] += total


def reference_kernel(n_procs: int = 300, steps: int = 12) -> int:
    """A fixed discrete-event loop: heap-ordered generator resumptions."""
    totals = {"done": 0}
    queue: list = []
    procs = {}
    seq = 0
    for i in range(n_procs):
        procs[i] = proc = _process(totals, steps)
        heapq.heappush(queue, (proc.send(None), seq, i))
        seq += 1
    while queue:
        when, _, i = heapq.heappop(queue)
        event = _Event(when, i & 15)
        event.callbacks.append(i)
        try:
            delay = procs[i].send(event)
        except StopIteration:
            del procs[i]
            continue
        heapq.heappush(queue, (when + delay, seq, i))
        seq += 1
    return totals["done"]


def _timed_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Reference-kernel samples taken while a run measures."""

    def __init__(self):
        #: ``(when, kernel_s)``: perf_counter at the sample, kernel time
        self.samples: list[tuple[float, float]] = []
        #: the :class:`harness.PhaseClock` whose phases samples leave out
        self.clock = None
        #: CPUs to choose among; empty where the process cannot pin itself
        self.cpus: list[int] = []
        if hasattr(os, "sched_getaffinity"):
            allowed = sorted(os.sched_getaffinity(0))
            if len(allowed) > 1:
                self.cpus = allowed

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()     # a collection of the program's heap is not ours
        try:
            took = self._move_to_fastest_cpu()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((start, took))
        if self.clock is not None:
            self.clock.pause(start, time.perf_counter())

    def _move_to_fastest_cpu(self) -> float:
        """Time the kernel on each CPU, stay on the fastest, and return
        the kernel's time there."""
        if not self.cpus:
            return _timed_kernel()
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _timed_kernel()
        fastest = min(times, key=times.get)
        os.sched_setaffinity(0, {fastest})
        return times[fastest]

    @contextlib.contextmanager
    def sampling(self, clock):
        """Sample every EVERY_S of wall time inside the block, leaving
        each sample out of ``clock``'s phases."""
        self.clock = clock
        for _ in range(MIN_SAMPLES):      # so the first phase has a scale
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.clock = None
            if self.cpus:
                os.sched_setaffinity(0, self.cpus)

    def factor(self, start: float, end: float) -> float:
        """Factor from raw host seconds of the phase ``[start, end]`` to
        seconds at reference speed.

        A median, like the per-op costs it scales: one slow sample must
        not move the phase's figure.
        """
        local = [took for when, took in self.samples
                 if start - WINDOW_S <= when <= end]
        if len(local) < MIN_SAMPLES:
            local = [took for when, took in self.samples
                     if when <= end][-MIN_SAMPLES:]
        return (REFERENCE_S / statistics.median(local)) ** SENSITIVITY

    def kernel_s(self) -> float:
        """The run-wide median kernel time, for the record."""
        return statistics.median(took for _, took in self.samples)
