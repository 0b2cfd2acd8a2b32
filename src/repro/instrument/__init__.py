"""Instrumentation that the simulation itself calls.

* :mod:`repro.instrument.measure` — the one-way latency harness
  (:func:`~repro.instrument.measure.measure_one_way`, ``LatencySample``);
* :mod:`repro.instrument.stats` — MB/s and the exact nearest-rank
  percentile;
* :mod:`repro.instrument.counters` — ``PathCounters``, the kernel's
  Table 1 tallies;
* :mod:`repro.instrument.recovery` — ``RecoveryTracker`` and the
  recovery summary of a fault campaign.

Every tally is read through the metrics registry
(:mod:`repro.telemetry.metrics`); import from the submodules.
"""
