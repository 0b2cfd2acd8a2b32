"""Stage tracing: the record every observer reads.

The paper's Figures 5-7 are *timelines*: the one-way path of a BCL
message broken into named stages with per-stage durations.  Every
component in this reproduction reports the stages it executes to a
shared :class:`Tracer`.  Readers live in :mod:`repro.telemetry`:
:class:`~repro.telemetry.spans.SpanBuilder` gathers one message's
records (the per-message view Figures 5-7 and ``repro observe`` share)
and :func:`~repro.telemetry.spans.write_chrome_trace` exports a run for
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Optional

from repro.sim.time import ns_to_us

__all__ = ["TraceRecord", "Tracer"]


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
    """Collects :class:`TraceRecord`\\ s; may be disabled for speed.

    Two kinds of subscriber read the stream.  An ``add_listener``
    listener receives every record as a :class:`TraceRecord`, the same
    object ``records`` keeps.  A raw-span subscriber
    (:meth:`add_span_listener`) receives ``(start_ns, end_ns, category,
    stage, component, message_id)`` and costs no record at all: a record
    is built only when the tracer keeps records (``keep_records``) or a
    listener is attached.  Stage folds subscribe raw and switch
    ``keep_records`` off, so a thousand-rank traced cell holds no
    records and builds none unless someone listens.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: append every record to ``records`` (off while a raw-span
        #: fold is the only reader)
        self.keep_records = True
        self.records: list[TraceRecord] = []
        self._listeners: list[Callable[[TraceRecord], None]] = []
        self._span_listeners: list[Callable[..., None]] = []
        #: (listener, exception) pairs for listeners detached after
        #: raising — observers must not abort the simulation
        self.listener_errors: list[tuple[Callable, BaseException]] = []

    def add_listener(self, fn: Callable[[TraceRecord], None]) -> None:
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[TraceRecord], None]) -> None:
        """Detach one listener; unknown listeners are ignored."""
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def add_span_listener(self, fn: Callable[..., None]) -> None:
        """Subscribe ``fn(start_ns, end_ns, category, stage, component,
        message_id)`` to every span; no record is built for it."""
        self._span_listeners.append(fn)

    def record(self, start_ns: int, end_ns: int, category: str, stage: str,
               component: str, message_id: Optional[int] = None,
               **data: Any) -> None:
        if not self.enabled:
            return
        if end_ns < start_ns:
            raise ValueError(
                f"stage {stage!r} ends ({end_ns}) before it starts ({start_ns})")
        # Subscribers are observers (stage folds, exporters, span
        # builders, recovery trackers); one raising must not abort the
        # simulation mid-event.  Record the failure once and detach the
        # offender so it cannot fail on every subsequent span.
        failed = None
        for fn in self._span_listeners:
            try:
                fn(start_ns, end_ns, category, stage, component, message_id)
            except Exception as exc:
                if failed is None:
                    failed = []
                failed.append((fn, exc))
        listeners = self._listeners
        if self.keep_records or listeners:
            rec = TraceRecord(start_ns, end_ns, category, stage, component,
                              message_id, data)
            if self.keep_records:
                self.records.append(rec)
            for listener in listeners:
                try:
                    listener(rec)
                except Exception as exc:
                    if failed is None:
                        failed = []
                    failed.append((listener, exc))
        if failed:
            for fn, exc in failed:
                self.listener_errors.append((fn, exc))
                for subscribers in (self._listeners, self._span_listeners):
                    if fn in subscribers:
                        subscribers.remove(fn)
