"""Tracing and stage-timeline instrumentation.

The paper's Figures 5-7 are *timelines*: the one-way path of a BCL
message broken into named stages with per-stage durations.  Every
component in this reproduction reports the stages it executes to a
shared :class:`Tracer`; :class:`StageTimeline` then reconstructs the
per-message breakdown the figures show.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional

from repro.sim.time import ns_to_us

__all__ = ["TraceRecord", "Tracer", "StageTimeline"]


#: ``data`` of a record built without any: read-only, so no two
#: records can share a mutable dict through the default
_NO_DATA: Mapping[str, Any] = MappingProxyType({})


class TraceRecord(NamedTuple):
    """One traced span: a named stage executed by a component.

    An immutable tuple, so building one is a single allocation: the
    tracer builds hundreds of thousands per thousand-rank cell.
    """

    start_ns: int
    end_ns: int
    category: str      # e.g. "pio", "dma", "trap", "mcp", "wire", "copy"
    stage: str         # e.g. "fill_send_descriptor"
    component: str     # e.g. "node0.nic", "node0.kernel"
    message_id: Optional[int] = None
    data: Mapping[str, Any] = _NO_DATA

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_us(self) -> float:
        return ns_to_us(self.duration_ns)


class Tracer:
    """Collects :class:`TraceRecord`\\ s; may be disabled for speed."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self._listeners: list[Callable[[TraceRecord], None]] = []
        #: (listener, exception) pairs for listeners detached after
        #: raising — observers must not abort the simulation
        self.listener_errors: list[tuple[Callable[[TraceRecord], None],
                                         BaseException]] = []

    def clear(self) -> None:
        """Reset for a fresh trial: drop records AND detach listeners.

        Listeners are typically bound to per-trial objects (exporters,
        recovery trackers); a tracer reused across trials used to keep
        them, so every re-attached listener fired once per prior trial
        as well — duplicating downstream records.
        """
        self.records.clear()
        self._listeners.clear()

    def add_listener(self, fn: Callable[[TraceRecord], None]) -> None:
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[TraceRecord], None]) -> None:
        """Detach one listener; unknown listeners are ignored."""
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def record(self, start_ns: int, end_ns: int, category: str, stage: str,
               component: str, message_id: Optional[int] = None,
               **data: Any) -> None:
        if not self.enabled:
            return
        if end_ns < start_ns:
            raise ValueError(
                f"stage {stage!r} ends ({end_ns}) before it starts ({start_ns})")
        rec = TraceRecord(start_ns, end_ns, category, stage, component,
                          message_id, data)
        self.records.append(rec)
        failed = None
        for listener in self._listeners:
            try:
                listener(rec)
            except Exception as exc:
                # Listeners are observers (exporters, span builders,
                # recovery trackers); one raising must not abort the
                # simulation mid-event.  Record the failure once and
                # detach the offender so it cannot fail on every
                # subsequent record.
                if failed is None:
                    failed = []
                failed.append((listener, exc))
        if failed:
            for listener, exc in failed:
                self.listener_errors.append((listener, exc))
                self.remove_listener(listener)

    # -- queries --------------------------------------------------------
    def for_message(self, message_id: int) -> list[TraceRecord]:
        return [r for r in self.records if r.message_id == message_id]

    def by_category(self, category: str) -> list[TraceRecord]:
        return [r for r in self.records if r.category == category]

    def by_stage(self, stage: str) -> list[TraceRecord]:
        return [r for r in self.records if r.stage == stage]

    def total_us(self, *, category: Optional[str] = None,
                 stage: Optional[str] = None,
                 message_id: Optional[int] = None) -> float:
        total = 0
        for r in self.records:
            if category is not None and r.category != category:
                continue
            if stage is not None and r.stage != stage:
                continue
            if message_id is not None and r.message_id != message_id:
                continue
            total += r.duration_ns
        return ns_to_us(total)


class StageTimeline:
    """Ordered per-stage breakdown of one message's critical path.

    Built from the trace records of a single message, sorted by start
    time.  Overlapping stages (pipelined DMA, for instance) are kept
    as-is; ``critical_path_us`` reports last-end minus first-start,
    which is what the paper's end-to-end timelines measure.
    """

    def __init__(self, records: list[TraceRecord]):
        self.records = sorted(records, key=lambda r: (r.start_ns, r.end_ns))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def critical_path_us(self) -> float:
        if not self.records:
            return 0.0
        start = min(r.start_ns for r in self.records)
        end = max(r.end_ns for r in self.records)
        return ns_to_us(end - start)

    def stage_us(self, stage: str) -> float:
        return ns_to_us(sum(r.duration_ns for r in self.records
                            if r.stage == stage))

    def as_rows(self) -> list[tuple[str, str, float, float, float]]:
        """Rows of (component, stage, start_us, end_us, duration_us)."""
        return [(r.component, r.stage, ns_to_us(r.start_ns),
                 ns_to_us(r.end_ns), r.duration_us) for r in self.records]

    def format(self, title: str = "timeline") -> str:
        lines = [f"{title}  (total {self.critical_path_us:.2f} us)"]
        if self.records:
            origin = min(r.start_ns for r in self.records)
            for r in self.records:
                lines.append(
                    f"  [{ns_to_us(r.start_ns - origin):7.2f} -> "
                    f"{ns_to_us(r.end_ns - origin):7.2f} us] "
                    f"{r.duration_us:6.2f} us  {r.component:<22s} {r.stage}")
        return "\n".join(lines)
