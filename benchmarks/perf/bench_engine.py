"""Engine microbenchmarks: events/sec of the calendar-queue event core.

Four scenarios stress different cost centres of the event core:

* ``churn`` — pure scheduler throughput: a large batch of timeouts over
  a small set of coincident instants, no processes.  This isolates the
  queue data structure (O(1) per event plus one heap operation per
  *distinct* instant) and is the headline scenario the CI gate holds.
* ``lockstep`` — wide fan-in: many processes sleeping in lockstep, so
  every instant wakes a crowd (generator resume cost included).
* ``cascade`` — immediate-event chains (``succeed`` at the current
  instant), the Store/Resource hand-off pattern; process-bound.
* ``open_loop`` — serving-style arrival schedules: tens of thousands
  of *distinct* far-future timestamps (one heap entry each) plus one
  saturated instant whose bucket dwarfs the compaction threshold.
  This is the shape that exposed the unconditional ``del bucket[:pos]``
  slice (O(bucket) every 4096 events, quadratic on a fan-in burst).

Event counts are deterministic; events/sec is machine-dependent.  So
each scenario is also timed against :func:`perfbench.hostspeed.
reference_kernel`, a frozen heap-ordered generator loop that never
changes with the program, in the same process and right after each
repeat.  ``calendar_vs_reference`` — scenario events/sec over kernel
events/sec — moves with the engine's code far more than with the
host's speed, which is what the gate leans on.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

from perfbench.hostspeed import reference_kernel
from repro.sim import Environment

from benchmarks.perf.common import write_bench

SEED = 1

#: (scenario, events) -- sized so the whole suite stays in CI-smoke
#: territory (a few seconds) while each timing is long enough to trust
CHURN_EVENTS = 400_000
LOCKSTEP_PROCS = 1024
LOCKSTEP_ROUNDS = 200
CASCADE_PROCS = 4
CASCADE_ROUNDS = 50_000
OPEN_LOOP_ARRIVALS = 60_000
OPEN_LOOP_BURST = 160_000
#: best-of-N wall time per measurement; simulated results are
#: deterministic, so repeats only suppress scheduler/GC noise spikes
REPEATS = 3
#: events one reference_kernel() call pops: 300 processes x 12 steps
KERNEL_EVENTS = 300 * 12


def _fill_churn(env: Environment) -> None:
    for i in range(CHURN_EVENTS):
        env.timeout(i % 64)


def _fill_lockstep(env: Environment) -> None:
    def proc():
        for _ in range(LOCKSTEP_ROUNDS):
            yield env.sleep(100)
    for _ in range(LOCKSTEP_PROCS):
        env.process(proc())


def _fill_cascade(env: Environment) -> None:
    def proc():
        for _ in range(CASCADE_ROUNDS):
            ev = env.event()
            ev.succeed()
            yield ev
    for _ in range(CASCADE_PROCS):
        env.process(proc())


def _fill_open_loop(env: Environment) -> None:
    # Distinct far-future arrivals (997 is coprime to everything in
    # sight, so every instant is unique) ...
    for i in range(OPEN_LOOP_ARRIVALS):
        env.timeout(1_000 + i * 997)
    # ... plus one saturated instant: a single bucket ~40x the
    # compaction threshold, the admission fan-in shape.
    for _ in range(OPEN_LOOP_BURST):
        env.timeout(500)


SCENARIOS: tuple[tuple[str, Callable[[Environment], None]], ...] = (
    ("churn", _fill_churn),
    ("lockstep", _fill_lockstep),
    ("cascade", _fill_cascade),
    ("open_loop", _fill_open_loop),
)


def _kernel_s(span: float) -> float:
    """Seconds per reference_kernel() call, over about ``span`` seconds."""
    calls = 0
    start = time.perf_counter()
    while True:
        reference_kernel()
        calls += 1
        took = time.perf_counter() - start
        if took >= span:
            return took / calls


def _run_one(scenario: str,
             fill: Callable[[Environment], None]) -> tuple[dict, float]:
    """One scenario's row and its calendar/reference ratio.

    Each repeat times the kernel right after the scenario, for half the
    scenario's wall time, and yields one ratio; the median over repeats
    is reported.  A busy host slows both halves of a pair alike, so the
    median of pairs is steadier than either side's best time.
    """
    wall = None
    kernels, ratios = [], []
    for _ in range(REPEATS):
        env = Environment()
        gc.collect()
        t = time.perf_counter()
        fill(env)
        env.run()
        t = time.perf_counter() - t
        wall = t if wall is None else min(wall, t)
        kernel = _kernel_s(t / 2)
        kernels.append(kernel)
        ratios.append(env.events_processed / t * kernel / KERNEL_EVENTS)
    row = {
        "name": scenario,
        "events": env.events_processed,
        "final_sim_ns": env.now,
        "wall_s": round(wall, 6),
        "events_per_sec": round(env.events_processed / wall, 1),
        "reference_kernel_s": round(statistics.median(kernels), 6),
    }
    return row, round(statistics.median(ratios), 3)


def run(out_path="BENCH_engine.json") -> dict:
    results, ratios = [], {}
    for scenario, fill in SCENARIOS:
        row, ratios[scenario] = _run_one(scenario, fill)
        results.append(row)
    return write_bench(
        out_path, "engine",
        units={"events": "count", "final_sim_ns": "simulated ns",
               "wall_s": "seconds", "events_per_sec": "events/second",
               "reference_kernel_s": "seconds per reference_kernel() call",
               "calendar_vs_reference":
                   "ratio (events/sec over reference-kernel events/sec, "
                   "median of per-repeat pairs)"},
        results=results, seed=SEED,
        extra={"calendar_vs_reference": ratios})


if __name__ == "__main__":
    doc = run()
    for r in doc["results"]:
        print(f"{r['name']:22s} {r['events_per_sec']:>12,.0f} events/s "
              f"({r['events']} events)")
    for scenario, ratio in doc["calendar_vs_reference"].items():
        print(f"calendar/reference {scenario:10s} {ratio:.3f}x")
