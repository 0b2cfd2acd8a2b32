"""Message-lifecycle telemetry: causal spans, metrics, critical paths.

The paper's headline numbers are *breakdowns* — 7.04 us of send
overhead against 1.01 us of receive, one trap on send and zero on
receive, a 4.17 us semi-user tax inside an 18.3 us 0-byte one-way —
and this package makes those breakdowns a first-class, per-message
query instead of an aggregate experiment output:

* :mod:`repro.telemetry.spans` — every message gets a causal span
  tree stitched across its lifecycle (send trap -> checks ->
  pin-down -> SRQ PIO fill -> wire -> DMA -> poll), exported as JSONL;
  the module also holds the Chrome/Perfetto trace exporter, which draws
  those trees as flow arrows;
* :mod:`repro.telemetry.metrics` — a registry of counters, gauges and
  log-scaled histograms (exact p50/p95/p99) that the kernel, firmware,
  NIC, link and upper layers register into, with Prometheus-style text
  exposition and JSON export;
* :mod:`repro.telemetry.critical_path` — walks a completed message's
  records and attributes every nanosecond to a canonical Figure-7
  stage, naming the stage that bounded end-to-end latency and flagging
  anomalies (pin-down thrashing, injected faults, recovery stalls);
  its :class:`StageFold` is the one busy-time fold, summing simulated
  ns per stage over every span (``repro_stage_ns_total``, the scale and
  serve stage tables);
* :mod:`repro.telemetry.session` / ``repro observe`` — the per-cluster
  session and operator CLI over all of the above;
* :mod:`repro.telemetry.ledger` — self-describing ``repro-run/1``
  run artifacts (config digest, stage table, exact percentiles) with
  BENCH perf files readable as a special case;
* :mod:`repro.telemetry.diff` — ``repro diff`` / :func:`diff_runs`
  regression attribution between two ledgers, naming the stage whose
  share grew;
* :mod:`repro.telemetry.recorder` — the crash flight recorder
  (``Cluster(observers=("recorder",))``): bounded rings of recent
  heartbeats and span openings, dumped to ``postmortem-*.json`` on
  audit violations, oracle failures and serve crashes.

Enable per cluster with ``Cluster(observers=("telemetry",))``, or
globally with ``repro.cluster.enable("telemetry")`` (or
``REPRO_OBSERVERS=telemetry``, inherited by ``--jobs N`` workers).
Telemetry is a **pure observer**: it schedules no events and consumes
no randomness, so an enabled run is byte-identical to a disabled one
(pinned by ``tests/regressions/test_telemetry_parity.py``), and
disabled runs don't execute a single telemetry instruction on the hot
path.
"""

from __future__ import annotations

from repro.telemetry.critical_path import (
    FIGURE7_STAGES,
    CriticalPathReport,
    StageFold,
    StageShare,
    attribute_records,
    canonical_stage,
)
from repro.telemetry.diff import MetricDelta, RunDiff, StageDelta, diff_runs
from repro.telemetry.ledger import (
    RunView,
    config_digest,
    load_run,
    make_ledger,
    write_ledger,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.recorder import (
    FlightRecorder,
    load_postmortem,
    render_postmortem,
)
from repro.telemetry.session import TelemetrySession
from repro.telemetry.spans import (
    Span,
    SpanBuilder,
    chrome_trace_events,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "Counter",
    "CriticalPathReport",
    "FIGURE7_STAGES",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricDelta",
    "MetricsRegistry",
    "RunDiff",
    "RunView",
    "Span",
    "SpanBuilder",
    "StageDelta",
    "StageFold",
    "StageShare",
    "TelemetrySession",
    "attribute_records",
    "canonical_stage",
    "chrome_trace_events",
    "config_digest",
    "diff_runs",
    "load_postmortem",
    "load_run",
    "make_ledger",
    "render_postmortem",
    "write_chrome_trace",
    "write_ledger",
    "write_spans_jsonl",
]
