"""Calendar-queue behaviour under open-loop arrivals.

The serving tier schedules tens of thousands of *distinct* future
instants (open-loop arrival schedules) plus occasional huge same-
instant bursts.  Two degenerate behaviours are pinned here:

* the calendar queue must reproduce the digest recorded while the
  binary-heap reference scheduler still ran beside it (the open-loop
  scenario tracked by ``BENCH_engine.json``);
* bucket compaction must be amortized: consuming a giant same-instant
  bucket may not leave the consumed prefix in memory, and must never
  recompact per-slice (the old unconditional ``del`` at every 4096th
  event was quadratic on a single large bucket).
"""

from __future__ import annotations

import hashlib

from repro.sim import Environment, SimulationError
from repro.sim.core import _COMPACT


def _open_loop_run():
    env = Environment()
    fired: list[tuple[int, int]] = []

    def arrival(i, delay):
        yield env.timeout(delay)
        fired.append((env.now, i))

    # Distinct arrival instants (pairwise-coprime stride) plus one
    # same-instant burst in the middle.
    for i in range(2_000):
        env.process(arrival(i, 1_000 + i * 997))
    for i in range(2_000, 3_000):
        env.process(arrival(i, 500_000))
    env.run()
    assert len(fired) == 3_000
    return hashlib.sha256(
        repr((fired, env.now, env.events_processed)).encode()).hexdigest()


#: sha256 of (arrival order, final clock, events processed), recorded
#: from both the calendar queue and the binary heap it replaced
OPEN_LOOP_DIGEST = \
    "19264fdfb43228bb13395dde7706f06fffc11bc9b5ca33e992fe0db9dc842b28"


def test_calendar_matches_heap_on_open_loop_arrivals():
    assert _open_loop_run() == OPEN_LOOP_DIGEST


def test_current_bucket_compaction_is_amortized():
    """Stepping through a bucket much larger than the compaction stride
    keeps the consumed prefix bounded: once the read position passes
    both the stride and half the bucket, the prefix is reclaimed."""
    env = Environment()
    n = 3 * _COMPACT
    done = []

    def wake(i):
        yield env.timeout(100)
        done.append(i)

    for i in range(n):
        env.process(wake(i))
    while True:
        try:
            env.step()
        except SimulationError:
            break
        # The invariant the amortized compaction maintains: never both
        # past the stride *and* past half the (remaining) bucket.
        assert not (env._pos >= _COMPACT
                    and env._pos * 2 >= len(env._bucket))
    assert len(done) == n


def test_compaction_preserves_fifo_order_within_the_bucket():
    env = Environment()
    order = []

    def wake(i):
        yield env.timeout(100)
        order.append(i)

    n = 2 * _COMPACT + 17
    for i in range(n):
        env.process(wake(i))
    env.run()
    assert order == list(range(n))
