"""The tracked performance trajectory: ``python -m benchmarks.perf``.

Two suites, two JSON artifacts:

* :mod:`benchmarks.perf.bench_engine` -> ``BENCH_engine.json`` —
  events/sec of the simulation engine itself over scheduler-bound and
  process-bound scenarios, each also as a ratio to perfbench's frozen
  host-speed reference kernel timed in the same process;
* :mod:`benchmarks.perf.bench_experiments` -> ``BENCH_experiments.json``
  — wall time per canonical Table 1/Table 2 experiment cell plus
  latency p50/p99 from the telemetry registry.

``ci/perf_gate.py`` compares a fresh run against the committed
baselines under ``benchmarks/perf/baseline/`` and fails CI on a > 20 %
events/sec regression (or a churn calendar/reference ratio below its
floor).
"""

from benchmarks.perf.common import SCHEMA, run_metadata, write_bench

__all__ = ["SCHEMA", "run_metadata", "write_bench"]
