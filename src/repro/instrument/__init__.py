"""Instrumentation: path counters, measurement harness, statistics."""

from repro.instrument.counters import PathCounters, ReliabilityCounters
from repro.instrument.recovery import (
    LossEpisode,
    RecoveryTracker,
    recovery_summary,
)
from repro.instrument.report import ClusterReport, cluster_report
from repro.instrument.stats import bandwidth_mb_s, summarize
from repro.instrument.measure import (
    LatencySample,
    measure_intra_node,
    measure_one_way,
)

__all__ = [
    "ClusterReport",
    "LatencySample",
    "LossEpisode",
    "PathCounters",
    "RecoveryTracker",
    "ReliabilityCounters",
    "cluster_report",
    "bandwidth_mb_s",
    "measure_intra_node",
    "measure_one_way",
    "recovery_summary",
    "summarize",
]
