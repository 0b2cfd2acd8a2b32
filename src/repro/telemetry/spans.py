"""Causal spans: one tree per message, stitched across its lifecycle.

A :class:`SpanBuilder` consumes :class:`~repro.sim.trace.TraceRecord`\\ s
(as a tracer listener, or post-hoc from a tracer's record list) and
reconstructs, per message id, the span tree of its lifecycle:

* the **root span** covers the whole message, first stage start to last
  stage end;
* **component spans** group the message's consecutive records on one
  simulated component (``node0.cpu0``, ``node0.nic.mcp``, ...) — one
  hop of the causal chain, annotated with the stack layer it belongs
  to (user/BCL, kernel, firmware, wire, upper);
* **stage spans** are the individual traced stages, the leaves.

The receiver's successful completion-queue poll is charged *before*
the event (and its message id) is known, so the matching anonymous
``poll_recv_event`` record is adopted into the tree by adjacency: the
poll whose end meets the message's ``check_recv_event`` start on the
same component.

Exports: JSONL (one span per line, parent ids intact) and the Chrome
trace of a tracer, loadable in ``chrome://tracing`` / Perfetto with one
row per simulated component.  Given span trees as ``flows``, the Chrome
export links each message's consecutive component spans by flow events
(``ph:"s"``/``ph:"f"``), so Perfetto draws the causal arrow from the
send-side CPU through the NICs to the receive-side poll::

    cluster = Cluster(n_nodes=2, trace=True)
    ...
    write_chrome_trace(cluster.tracer, "run.json")
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Optional, Union

from repro.sim.trace import TraceRecord, Tracer

__all__ = ["Span", "SpanBuilder", "chrome_trace_events", "write_chrome_trace",
           "write_spans_jsonl", "LAYER_OF_CATEGORY"]

#: trace category -> stack layer (the BCL->EADI->MPI/PVM layering plus
#: the hardware below it)
LAYER_OF_CATEGORY = {
    "bcl": "bcl",
    "copy": "bcl",
    "shm": "bcl",
    "upper": "upper",
    "trap": "kernel",
    "kernel": "kernel",
    "interrupt": "kernel",
    "pio": "hw",
    "dma": "hw",
    "mcp": "firmware",
    "tlb": "firmware",
    "wire": "wire",
    "fault": "wire",
}

#: receiver-side stages charged before the message id is known, keyed
#: by the id-carrying successor stage they precede on the same component
_ADOPTABLE = {"check_recv_event": "poll_recv_event",
              "complete_send": "poll_send_event"}


@dataclass
class Span:
    """One node of a message's causal span tree."""

    span_id: str
    parent_id: Optional[str]
    name: str
    start_ns: int
    end_ns: int
    component: str = ""
    category: str = ""
    layer: str = ""
    message_id: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def walk(self):
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        out = {"span_id": self.span_id, "parent_id": self.parent_id,
               "name": self.name, "start_ns": self.start_ns,
               "end_ns": self.end_ns, "message_id": self.message_id}
        if self.component:
            out["component"] = self.component
        if self.category:
            out["category"] = self.category
        if self.layer:
            out["layer"] = self.layer
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class SpanBuilder:
    """Accumulates trace records and stitches per-message span trees.

    Attach :meth:`on_record` as a tracer listener for live collection,
    or call :meth:`from_tracer` after a run.  A pure observer either
    way: it never touches the simulation.
    """

    def __init__(self):
        self._by_message: dict[int, list[TraceRecord]] = {}
        self._anonymous: list[TraceRecord] = []

    # ------------------------------------------------------------ intake
    def on_record(self, record: TraceRecord) -> None:
        if record.message_id is None:
            self._anonymous.append(record)
        else:
            self._by_message.setdefault(record.message_id, []).append(record)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanBuilder":
        builder = cls()
        for record in tracer.records:
            builder.on_record(record)
        return builder

    # ----------------------------------------------------------- queries
    def message_ids(self) -> list[int]:
        return sorted(self._by_message)

    def records_for(self, message_id: int) -> list[TraceRecord]:
        """The message's records plus adopted anonymous predecessors,
        in (start, end) order."""
        records = list(self._by_message.get(message_id, ()))
        adopted = self._adopt(records)
        return sorted(records + adopted,
                      key=lambda r: (r.start_ns, r.end_ns))

    def _adopt(self, records: list[TraceRecord]) -> list[TraceRecord]:
        adopted: list[TraceRecord] = []
        for successor_stage, orphan_stage in _ADOPTABLE.items():
            successors = [r for r in records if r.stage == successor_stage]
            for successor in successors:
                for orphan in self._anonymous:
                    if (orphan.stage == orphan_stage
                            and orphan.component == successor.component
                            and orphan.end_ns == successor.start_ns):
                        adopted.append(orphan)
                        break
        return adopted

    def extent(self, message_id: int) -> tuple[int, int]:
        """(first start, last end) over the message's records."""
        records = self.records_for(message_id)
        if not records:
            raise KeyError(f"no records for message {message_id}")
        return (min(r.start_ns for r in records),
                max(r.end_ns for r in records))

    # ------------------------------------------------------------- build
    def build(self, message_id: int) -> Span:
        """Stitch the message's span tree: root -> components -> stages."""
        records = self.records_for(message_id)
        if not records:
            raise KeyError(f"no records for message {message_id}")
        root = Span(span_id=f"msg{message_id}", parent_id=None,
                    name=f"message-{message_id}",
                    start_ns=records[0].start_ns,
                    end_ns=max(r.end_ns for r in records),
                    message_id=message_id)
        hop_index = 0
        current: Optional[Span] = None
        for record in records:
            if current is None or record.component != current.component:
                current = Span(
                    span_id=f"msg{message_id}.h{hop_index}",
                    parent_id=root.span_id,
                    name=record.component,
                    start_ns=record.start_ns, end_ns=record.end_ns,
                    component=record.component,
                    layer=LAYER_OF_CATEGORY.get(record.category,
                                                record.category),
                    message_id=message_id)
                root.children.append(current)
                hop_index += 1
            current.end_ns = max(current.end_ns, record.end_ns)
            stage = Span(
                span_id=f"{current.span_id}.s{len(current.children)}",
                parent_id=current.span_id,
                name=record.stage,
                start_ns=record.start_ns, end_ns=record.end_ns,
                component=record.component, category=record.category,
                layer=LAYER_OF_CATEGORY.get(record.category,
                                            record.category),
                message_id=message_id,
                attrs=dict(record.data))
            current.children.append(stage)
        return root

    def build_all(self) -> list[Span]:
        return [self.build(mid) for mid in self.message_ids()]


# ---------------------------------------------------------------- export
def write_spans_jsonl(spans: list[Span],
                      destination: Union[str, IO[str]]) -> int:
    """One JSON object per span, depth-first; returns #lines written."""
    rows = [json.dumps(span.to_dict(), sort_keys=True)
            for root in spans for span in root.walk()]
    text = "\n".join(rows) + ("\n" if rows else "")
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        destination.write(text)
    return len(rows)


#: stable pseudo-pid for the whole cluster in the trace viewer
_TRACE_PID = 1


def chrome_trace_events(tracer: Tracer, message_id: Optional[int] = None,
                        flows: Iterable[Span] = ()) -> list[dict]:
    """Convert trace records to Chrome trace-event dicts.

    Complete events ("ph": "X") with microsecond timestamps; the
    component name becomes the thread name so each component renders as
    its own row.  Zero-duration ``fault`` records (injected packet
    drops, corruptions, duplications, reorders — see
    :mod:`repro.faults`) become instant events ("ph": "i"), so a
    Perfetto timeline shows each fault as a marker on its link's row,
    right next to the go-back-N recovery activity it triggered.

    Each span tree in ``flows`` adds a flow start ("ph": "s") at the
    end of every component span and a binding-point flow finish
    ("ph": "f") at the start of the next one, sharing an id — Perfetto
    then draws the causal arrows of the message's lifecycle.
    """
    events: list[dict] = []
    components: dict[str, int] = {}

    def tid_of(component: str) -> int:
        return components.setdefault(component, len(components) + 1)

    for record in tracer.records:
        if message_id is not None and record.message_id != message_id:
            continue
        tid = tid_of(record.component)
        args = ({"message_id": record.message_id} | dict(record.data)) \
            if record.message_id is not None else dict(record.data)
        if record.category == "fault" and record.duration_ns == 0:
            events.append({
                "name": record.stage,
                "cat": record.category,
                "ph": "i",
                "s": "t",                      # thread-scoped marker
                "pid": _TRACE_PID,
                "tid": tid,
                "ts": record.start_ns / 1000.0,
                "args": args,
            })
            continue
        events.append({
            "name": record.stage,
            "cat": record.category,
            "ph": "X",
            "pid": _TRACE_PID,
            "tid": tid,
            "ts": record.start_ns / 1000.0,    # chrome wants us
            "dur": record.duration_ns / 1000.0,
            "args": args,
        })
    for root in flows:
        hops = [c for c in root.children if c.component]
        for upstream, downstream in zip(hops, hops[1:]):
            common = {"name": root.name, "cat": "message-flow",
                      "pid": _TRACE_PID,
                      "id": f"{root.span_id}:{upstream.span_id}"}
            # Hops can overlap (e.g. trap_exit runs while the MCP
            # fetches the descriptor); the arrow must not depart after
            # it arrives, so clamp the start to the downstream start.
            depart_ns = min(upstream.end_ns, downstream.start_ns)
            events.append({**common, "ph": "s",
                           "tid": tid_of(upstream.component),
                           "ts": depart_ns / 1000.0})
            events.append({**common, "ph": "f", "bp": "e",
                           "tid": tid_of(downstream.component),
                           "ts": downstream.start_ns / 1000.0})
    # Thread-name metadata so rows are labelled.
    for component, tid in components.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": _TRACE_PID,
            "tid": tid,
            "args": {"name": component},
        })
    return events


def write_chrome_trace(tracer: Tracer, destination: Union[str, IO[str]],
                       message_id: Optional[int] = None,
                       flows: Iterable[Span] = ()) -> int:
    """Write the trace to a path or file object; returns #events."""
    events = chrome_trace_events(tracer, message_id, flows)
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    if isinstance(destination, str):
        # A fresh output directory must not fail the dump after the
        # traced run already did its work (same contract as
        # benchmarks' write_bench and the ledger writer).
        parent = os.path.dirname(os.path.abspath(destination))
        os.makedirs(parent, exist_ok=True)
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    else:
        json.dump(payload, destination)
    return len(events)
