"""Traffic generators: one driver per pattern, each with an experiment
or CLI caller.

* :func:`~repro.workloads.streams.measure_streaming_bandwidth` — a
  window of BCL system-channel messages in flight (sustained
  throughput, unlike the one-way T(n) sweep).
* :mod:`repro.workloads.congestion` — fabric-scale adversarial MPI
  traffic for judging topologies under load: many-to-one
  (:func:`~repro.workloads.congestion.run_hotspot`; incast is
  ``hot_fraction=1.0``) and a seeded permutation — see the scale-out
  experiments.
* :mod:`repro.workloads.serve` — the serving tier's open-loop load:
  seeded Poisson/bursty arrival schedules with heavy-tailed request
  sizes over a million-client id space — see ``repro.serve``, the one
  request/response driver.

The paper's three motivating domains (technical computing, Internet
service, databases) each have an application kernel under
``examples/``: an MPI heat stencil and sample sort, the serving tier,
and an RMA key-value store.
"""

from repro.workloads.congestion import (
    CongestionResult,
    run_hotspot,
    run_permutation,
)
from repro.workloads.streams import measure_streaming_bandwidth
from repro.workloads.serve import (
    Arrival,
    client_schedule,
    schedules,
)

__all__ = [
    "Arrival",
    "client_schedule",
    "schedules",
    "CongestionResult",
    "measure_streaming_bandwidth",
    "run_hotspot",
    "run_permutation",
]
