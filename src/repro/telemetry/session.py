"""Per-cluster telemetry session: spans + metrics + critical paths.

A :class:`TelemetrySession` attaches to one
:class:`~repro.cluster.Cluster` and wires the whole observability
layer together:

* forces the cluster's tracer on and feeds every record to a
  :class:`~repro.telemetry.spans.SpanBuilder` (causal span trees), to
  a :class:`~repro.telemetry.critical_path.StageFold` (busy ns per
  stage, read as ``repro_stage_ns_total``) and to the wire instruments
  in a :class:`~repro.telemetry.metrics.MetricsRegistry`;
* asks the cluster to register every component's instruments (CPU
  busy time, PCI traffic, kernel path counters, MCP reliability
  counters, NIC tables, link occupancy, injected faults) and exposes
  itself on the environment (``env._telemetry``) so runtime-created
  upper-layer endpoints (EADI) self-register the same way auditor
  checkers do;
* serves the analysis queries behind ``repro observe``:
  per-message critical paths, the top-K slowest messages, and the
  one-way latency distribution.

The session is a pure observer: it schedules no simulation events and
consumes no randomness, so a telemetry-enabled run is byte-identical
to a disabled one (pinned by ``tests/regressions/test_telemetry_parity``).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.trace import TraceRecord
from repro.telemetry.critical_path import (
    CriticalPathReport,
    StageFold,
    attribute_records,
)
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.spans import Span, SpanBuilder

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Observability for one cluster: spans, metrics, critical paths."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.registry = MetricsRegistry()
        self.spans = SpanBuilder()
        self._latency_hist: Histogram = self.registry.histogram(
            "repro_message_latency_ns",
            "end-to-end message lifecycle span in simulated ns")
        self._wire_hist: Histogram = self.registry.histogram(
            "repro_wire_payload_bytes",
            "payload bytes per injected wire packet")
        #: busy ns per stage group over every traced span
        self.stage_fold = StageFold()
        self.stage_fold.armed = True
        self.registry.add_collector(self._register_stage_series)
        self._observed: set[int] = set()
        self._eadi_seq = 0

        cluster.tracer.enabled = True
        cluster.tracer.add_listener(self._on_record)
        # Runtime-created endpoints (EADI) find the session here, the
        # same way protocol objects find the auditor via env._audit.
        cluster.env._telemetry = self
        cluster.register_metrics(self.registry)

    # ------------------------------------------------------------ intake
    def _on_record(self, record: TraceRecord) -> None:
        self.spans.on_record(record)
        self.stage_fold._on_record(*record[:6])
        if record.category == "wire":
            self._wire_hist.observe(record.data.get("nbytes", 0))

    def _register_stage_series(self, registry: MetricsRegistry) -> None:
        """One ``repro_stage_ns_total`` series per stage group with
        busy time, read from the fold."""
        fold = self.stage_fold
        for group, ns in fold.group_ns().items():
            if ns:
                registry.register_callback(
                    "repro_stage_ns_total",
                    lambda group=group: fold.group_ns()[group],
                    "simulated busy nanoseconds summed per canonical stage",
                    stage=group)

    def register_eadi(self, endpoint) -> None:
        """Upper-layer registration hook, called by EadiEndpoint.

        The ``ep`` label keeps endpoints of successive jobs (which can
        reuse ranks) as distinct series.
        """
        self._eadi_seq += 1
        labels = {"rank": endpoint.rank, "ep": self._eadi_seq}
        self.registry.register_callback(
            "repro_eadi_credit_stalls_total",
            lambda ep=endpoint: ep.credit_stalls,
            "sends that blocked waiting for an eager credit",
            kind="counter", **labels)
        self.registry.register_callback(
            "repro_eadi_unexpected_total",
            lambda ep=endpoint: ep.unexpected_count,
            "eager arrivals queued before a matching receive was posted",
            kind="counter", **labels)
        endpoint._stall_hist = self.registry.histogram(
            "repro_eadi_credit_stall_ns",
            "sim time spent parked per eager-credit stall",
            **labels)

    # ----------------------------------------------------------- queries
    def _refresh(self) -> None:
        """Fold newly completed messages into the latency histogram."""
        for mid in self.spans.message_ids():
            if mid in self._observed:
                continue
            start_ns, end_ns = self.spans.extent(mid)
            self._latency_hist.observe(end_ns - start_ns)
            self._observed.add(mid)

    @property
    def latency_histogram(self) -> Histogram:
        self._refresh()
        return self._latency_hist

    def message_ids(self) -> list[int]:
        return self.spans.message_ids()

    def critical_path(self, message_id: int) -> CriticalPathReport:
        return attribute_records(message_id,
                                 self.spans.records_for(message_id))

    def reports(self) -> list[CriticalPathReport]:
        return [self.critical_path(mid) for mid in self.message_ids()]

    def top_slowest(self, k: int) -> list[CriticalPathReport]:
        """The K slowest messages by end-to-end span, slowest first."""
        reports = self.reports()
        reports.sort(key=lambda r: (-r.total_ns, r.message_id))
        return reports[:k]

    def span_tree(self, message_id: int) -> Span:
        return self.spans.build(message_id)

    def span_trees(self) -> list[Span]:
        return self.spans.build_all()

    # ------------------------------------------------------------ ledger
    def to_ledger(self, kind: str = "run", *, seed: Optional[int] = None,
                  wall_s: Optional[float] = None,
                  extra: Optional[dict] = None) -> dict:
        """Snapshot this session as a ``repro-run/1`` ledger document.

        The stage table comes from the per-message critical-path
        reports (which include wire time and wait gaps, so it sums to
        end-to-end latency); when no message completed, it falls back
        to the busy time of :attr:`stage_fold`.  Percentiles are
        the exact nearest-rank p50/p99/p99.9 of every populated
        histogram in the registry.
        """
        import json as _json

        from repro.telemetry.ledger import make_ledger

        stages: dict[str, int] = {}
        for report in self.reports():
            for share in report.stages:
                stages[share.stage] = stages.get(share.stage, 0) \
                    + share.ns
        if not stages:
            stages = {group: ns for group, ns
                      in sorted(self.stage_fold.group_ns().items()) if ns}

        self._refresh()
        percentiles: dict[str, dict[str, float]] = {}
        for instrument in self.registry:
            if not isinstance(instrument, Histogram) or not instrument.count:
                continue
            labels = dict(instrument.labels)
            key = instrument.name
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in
                                      sorted(labels.items())) + "}"
            percentiles[key] = {
                "p50": instrument.quantile(0.50),
                "p99": instrument.quantile(0.99),
                "p999": instrument.quantile(0.999),
            }

        return make_ledger(
            kind, seed=seed, cfg=self.cluster.cfg,
            events=self.cluster.env.events_processed, wall_s=wall_s,
            stages=stages, percentiles=percentiles,
            metrics=_json.loads(self.registry.to_json())["metrics"],
            extra=extra)

    def detach(self) -> None:
        """Stop observing (listener off, env hook cleared)."""
        self.cluster.tracer.remove_listener(self._on_record)
        if getattr(self.cluster.env, "_telemetry", None) is self:
            self.cluster.env._telemetry = None
