"""The tracked performance trajectory: ``python -m benchmarks.perf``.

One JSON artifact per suite:

* :mod:`benchmarks.perf.bench_engine` -> ``BENCH_engine.json`` —
  events/sec of the simulation engine itself over scheduler-bound and
  process-bound scenarios, each also as a ratio to perfbench's frozen
  host-speed reference kernel timed in the same process;
* :mod:`benchmarks.perf.bench_scale` -> ``BENCH_scale.json`` — host vs
  NIC collective latency and wall time per scale-out cell;
* :mod:`benchmarks.perf.bench_serve` -> ``BENCH_serve.json`` (run as
  ``python -m benchmarks.perf.bench_serve``) — simulated goodput, tail
  latency and wall time per serving-tier load point.

``ci/perf_gate.py`` compares a fresh run against the committed
baselines under ``benchmarks/perf/baseline/`` and fails CI on a > 20 %
events/sec regression (or a churn calendar/reference ratio below its
floor).
"""

from benchmarks.perf.common import SCHEMA, run_metadata, write_bench

__all__ = ["SCHEMA", "run_metadata", "write_bench"]
