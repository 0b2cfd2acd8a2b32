"""repro — reproduction of "Semi-User-Level Communication Architecture"
(Meng, Ma, He, Xiao, Xu — IPPS 2002).

The package simulates the DAWNING-3000 superserver substrate (SMP
nodes, PCI, Myrinet-class NICs with MCP firmware, cut-through switches,
an AIX-like kernel) and implements the paper's BCL protocol on top,
together with user-level and kernel-level baselines, EADI-2/MPI/PVM
upper layers, and a benchmark harness that regenerates every table and
figure of the paper's evaluation.

Quick start::

    from repro import Cluster, measure_one_way

    cluster = Cluster(n_nodes=2)
    sample = measure_one_way(cluster, nbytes=0)
    print(f"one-way 0-byte latency: {sample.latency_us:.2f} us")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel, dawning_3000, lossy_dawning
from repro.faults import Brownout, FaultPlan, GilbertElliott
from repro.instrument.measure import (
    LatencySample,
    measure_intra_node,
    measure_one_way,
)
from repro.instrument.recovery import RecoveryTracker, recovery_summary

__version__ = "1.0.0"

__all__ = [
    "Brownout",
    "Cluster",
    "CostModel",
    "DAWNING_3000",
    "FaultPlan",
    "GilbertElliott",
    "LatencySample",
    "RecoveryTracker",
    "dawning_3000",
    "lossy_dawning",
    "measure_intra_node",
    "measure_one_way",
    "recovery_summary",
    "__version__",
]
