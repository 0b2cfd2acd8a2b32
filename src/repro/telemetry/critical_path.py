"""Critical-path attribution: where one message spent its time.

Walks a completed message's trace (via :class:`SpanBuilder`) and
attributes **every nanosecond** of its end-to-end interval to exactly
one canonical stage — the per-message version of the paper's Figure 7
breakdown (trap, check, translate/pin, SRQ fill, wire, DMA, poll ...).

Attribution is a sweep over the record timeline: at each instant the
innermost active record (latest start, ties to latest end) wins, so
e.g. the DMA charged inside an MCP processing window is attributed to
DMA, not double-counted.  Instants covered by no record are charged to
``wire`` when the message was last seen at the wire-injection engine
(link propagation/serialization is deliberately not re-traced per
hop), and to ``wait`` otherwise (queueing, go-back-N stalls).  The
per-stage nanoseconds therefore sum to the end-to-end interval
*exactly* — the breakdown's total is the measured latency, not an
approximation of it.

Anomaly flags are derived from the same records: pin-down misses on
the send path (eviction thrashing shows up here), injected faults, and
wait-dominated messages (recovery stalls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.time import ns_to_us
from repro.sim.trace import TraceRecord

__all__ = ["CriticalPathReport", "StageFold", "StageShare",
           "attribute_records", "FIGURE7_STAGES", "canonical_stage",
           "stage_group"]

#: the stage set of the paper's Figure 7, in path order
FIGURE7_STAGES = ("compose", "trap", "check", "translate/pin", "SRQ fill",
                  "mcp", "wire", "dma", "poll", "event check")

#: raw stage name -> canonical group (checked before the category map)
_STAGE_GROUP = {
    "compose_send_request": "compose",
    "compose_recv_post": "compose",
    "compose_bind": "compose",
    "compose_rma_read": "compose",
    "trap_enter": "trap",
    "trap_exit": "trap",
    "security_checks": "check",
    "nic_context_check": "check",
    "pindown_lookup": "translate/pin",
    "pindown_miss": "translate/pin",
    "pin_pool_buffer": "translate/pin",
    "map_shm_ring": "translate/pin",
    "fill_send_descriptor": "SRQ fill",
    "fill_recv_descriptor": "SRQ fill",
    "fill_rma_request": "SRQ fill",
    "init_port": "SRQ fill",
    "poll_recv_event": "poll",
    "poll_send_event": "poll",
    "check_recv_event": "event check",
    "complete_send": "event check",
    # NIC-offloaded collectives: posting the descriptor is compose
    # work, reaping the completion is event-check work (the category
    # of both is "bcl", which would lump them into compose).
    "coll_post": "compose",
    "coll_complete": "event check",
    "shm_post": "shm",
    "shm_check": "poll",
}

#: trace category -> canonical group, for stages not listed above
_CATEGORY_GROUP = {
    "trap": "trap",
    "kernel": "check",
    "pio": "SRQ fill",
    "mcp": "mcp",
    "tlb": "translate/pin",
    "wire": "wire",
    "dma": "dma",
    "copy": "copy",
    "shm": "shm",
    "bcl": "compose",
    "upper": "upper",
    "interrupt": "interrupt",
}


def stage_group(stage: str, category: str) -> str:
    """Map a span's ``(stage, category)`` to its Figure-7 stage group."""
    group = _STAGE_GROUP.get(stage)
    if group is None:
        group = _CATEGORY_GROUP.get(category, category)
    return group


def canonical_stage(record: TraceRecord) -> str:
    """Map one trace record to its Figure-7 stage group."""
    return stage_group(record.stage, record.category)


class StageFold:
    """Busy time per stage group: simulated ns summed over every span.

    Given a tracer, it subscribes as a raw-span listener and switches
    ``keep_records`` off, so no :class:`TraceRecord` is built for it: a
    5M-event run holds none, and builds none unless an
    ``add_listener`` listener asks for them.  Without one, its owner
    feeds :meth:`_on_record` (the telemetry session does, from its
    record listener).  It folds only while ``armed`` and sums per
    ``(stage, category)`` pair, mapping each pair to its stage group
    once, when read.  Busy time overlaps across components, so it is
    not critical-path time.
    """

    def __init__(self, tracer=None):
        self.armed = False
        self._pair_ns: dict[tuple[str, str], int] = {}
        if tracer is not None:
            tracer.keep_records = False
            tracer.add_span_listener(self._on_record)

    def _on_record(self, start_ns, end_ns, category, stage, _component,
                   _message_id) -> None:
        if self.armed:
            pair_ns = self._pair_ns
            key = (stage, category)
            pair_ns[key] = pair_ns.get(key, 0) + end_ns - start_ns

    def group_ns(self) -> dict[str, int]:
        """``{stage group: busy ns}``, zero-time groups included."""
        totals: dict[str, int] = {}
        for (stage, category), ns in self._pair_ns.items():
            group = stage_group(stage, category)
            totals[group] = totals.get(group, 0) + ns
        return totals

    def table(self) -> list[list]:
        """``[[stage, total_us], ...]`` sorted by descending time."""
        return [[stage, ns_to_us(ns)]
                for stage, ns in sorted(self.group_ns().items(),
                                        key=lambda kv: (-kv[1], kv[0]))]


@dataclass
class StageShare:
    """One canonical stage's share of a message's end-to-end time."""

    stage: str
    ns: int
    total_ns: int

    @property
    def us(self) -> float:
        return ns_to_us(self.ns)

    @property
    def share(self) -> float:
        return self.ns / self.total_ns if self.total_ns else 0.0


@dataclass
class CriticalPathReport:
    """Per-stage wall time of one message, summing exactly to total."""

    message_id: int
    start_ns: int
    end_ns: int
    stages: list[StageShare] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)

    @property
    def total_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def total_us(self) -> float:
        return ns_to_us(self.total_ns)

    @property
    def bounding_stage(self) -> Optional[str]:
        """The stage that bounded end-to-end latency (max wall share)."""
        if not self.stages:
            return None
        return max(self.stages, key=lambda s: (s.ns, s.stage)).stage

    def stage_ns(self, stage: str) -> int:
        return sum(s.ns for s in self.stages if s.stage == stage)

    def format(self, indent: str = "  ") -> str:
        lines = [f"message {self.message_id}: "
                 f"{self.total_us:.3f} us end-to-end"]
        for share in self.stages:
            marker = " <- bounding" if share.stage == self.bounding_stage \
                else ""
            lines.append(f"{indent}{share.stage:<14s} {share.us:8.3f} us "
                         f"{100 * share.share:5.1f}%{marker}")
        for anomaly in self.anomalies:
            lines.append(f"{indent}! {anomaly}")
        return "\n".join(lines)


def attribute_records(message_id: int,
                      records: list[TraceRecord]) -> CriticalPathReport:
    """Sweep the message's records and attribute every nanosecond."""
    if not records:
        raise ValueError(f"message {message_id} has no trace records")
    timed = [r for r in records if r.duration_ns > 0]
    start = min(r.start_ns for r in records)
    end = max(r.end_ns for r in records)
    report = CriticalPathReport(message_id=message_id,
                                start_ns=start, end_ns=end)

    boundaries = sorted({start, end}
                        | {r.start_ns for r in timed}
                        | {r.end_ns for r in timed})
    attributed: dict[str, int] = {}
    order: list[str] = []
    last_group: Optional[str] = None
    for lo, hi in zip(boundaries, boundaries[1:]):
        active = [r for r in timed if r.start_ns <= lo and r.end_ns >= hi]
        if active:
            winner = max(active, key=lambda r: (r.start_ns, r.end_ns))
            group = canonical_stage(winner)
            last_group = group
        else:
            # A gap: in flight after wire injection, else queued/stalled.
            group = "wire" if last_group == "wire" else "wait"
        if group not in attributed:
            attributed[group] = 0
            order.append(group)
        attributed[group] += hi - lo
    total = end - start
    report.stages = [StageShare(stage=g, ns=attributed[g], total_ns=total)
                     for g in order]

    # ----------------------------------------------------------- anomalies
    misses = [r for r in records if r.stage == "pindown_miss"]
    if misses:
        miss_ns = sum(r.duration_ns for r in misses)
        report.anomalies.append(
            f"pin-down miss on the send path ({ns_to_us(miss_ns):.2f} us "
            "pin/translate work; repeated misses indicate eviction "
            "thrashing)")
    faults = [r for r in records if r.category == "fault"]
    if faults:
        kinds = sorted({r.stage for r in faults})
        report.anomalies.append(
            f"{len(faults)} fault(s) injected on this message's path "
            f"({', '.join(kinds)})")
    wait_ns = attributed.get("wait", 0)
    if total and wait_ns / total > 0.25:
        report.anomalies.append(
            f"wait-dominated: {100 * wait_ns / total:.0f}% of end-to-end "
            "time unattributed to any stage (queueing or go-back-N "
            "recovery stall)")
    return report
