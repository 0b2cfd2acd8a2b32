"""Crash flight recorder: a bounded ring buffer dumped on failure.

A :class:`FlightRecorder` rides along on a cluster and keeps the last
``capacity`` of each of two streams in fixed-size ring buffers:

* **heartbeats** — ``(virtual time, events processed)`` pairs taken by
  the engine every time the clock advances to a new instant
  (:class:`~repro.sim.core.Environment` calls ``on_advance``);
* **span openings** — the most recent :class:`~repro.sim.trace
  .TraceRecord` observations, when tracing is on.

Like the auditor and the telemetry session it is a **pure observer**:
it schedules no events, consumes no randomness, and only ever appends
to its own deques, so a recorder-on run is byte-identical to a
recorder-off run (pinned by
``tests/regressions/test_recorder_parity.py``).  It is off by default;
turn it on per cluster with ``Cluster(observers=("recorder",))`` or
globally with ``repro.cluster.enable("recorder")`` /
``REPRO_OBSERVERS=recorder``.

When something dies — an audit violation fires
(:meth:`repro.audit.core.Auditor._raise`), a fault campaign fails its
oracle, or a serve run raises — the failure path calls
:func:`dump_on_failure` and the recorder writes a
``postmortem-*.json`` artifact (schema ``repro-postmortem/1``) with
the last-K event timeline, the spans open at death, and a metrics
snapshot if a telemetry session was attached.
``repro postmortem <file>`` renders it.  :meth:`dump` is exception-
safe by contract: it must never mask the failure that triggered it.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import deque
from typing import Any, Optional

from repro.telemetry.ledger import run_meta

__all__ = ["FlightRecorder", "POSTMORTEM_SCHEMA", "dump_on_failure",
           "last", "load_postmortem", "render_postmortem"]

POSTMORTEM_SCHEMA = "repro-postmortem/1"

#: the most recently constructed recorder, for failure paths (fuzz
#: campaigns, CLI handlers) that cannot reach the cluster that died
_LAST: Optional["weakref.ReferenceType[FlightRecorder]"] = None


def last() -> Optional["FlightRecorder"]:
    """The most recently constructed live recorder, if any."""
    return _LAST() if _LAST is not None else None


def dump_on_failure(reason: str, env=None,
                    exc: Optional[BaseException] = None,
                    note: Optional[str] = None) -> Optional[str]:
    """The one crash hook: dump the riding recorder's postmortem.

    The recorder is the one on ``env`` (the environment that failed)
    or, when no environment is given, :func:`last`.  An ``AuditError``
    ``exc`` is skipped: the auditor dumped before raising it.  Like
    :meth:`FlightRecorder.dump` it never raises, since it runs on paths
    that already are; returns the artifact's path, or ``None`` when
    nothing was written.
    """
    if type(exc).__name__ == "AuditError":
        return None
    try:
        recorder = (last() if env is None
                    else getattr(env, "_recorder", None))
        if recorder is None:
            return None
        return recorder.dump(reason, note=note)
    except Exception:
        return None


class FlightRecorder:
    """Bounded ring buffer of recent engine activity for one cluster."""

    def __init__(self, cluster, capacity: int = 256):
        global _LAST
        if capacity <= 0:
            raise ValueError(f"recorder capacity must be positive, "
                             f"got {capacity}")
        self.cluster = cluster
        self.capacity = capacity
        self.heartbeats: deque[tuple[int, int]] = deque(maxlen=capacity)
        self.records: deque = deque(maxlen=capacity)
        self.dumps: list[str] = []
        cluster.env._recorder = self
        # Span openings only flow when tracing is on; the recorder does
        # not force the tracer (that would change per-event cost and
        # belongs to the telemetry switch), it just listens if present.
        cluster.tracer.add_listener(self._on_record)
        _LAST = weakref.ref(self)

    # ------------------------------------------------------------ intake
    def on_advance(self, when: int, n_events: int) -> None:
        """Engine heartbeat: the clock is advancing to ``when`` after
        ``n_events`` processed events."""
        self.heartbeats.append((when, n_events))

    def _on_record(self, record) -> None:
        self.records.append(record)

    def detach(self) -> None:
        """Stop observing (listener off, env hook cleared)."""
        self.cluster.tracer.remove_listener(self._on_record)
        if getattr(self.cluster.env, "_recorder", None) is self:
            self.cluster.env._recorder = None

    # ----------------------------------------------------------- analysis
    def open_messages(self) -> dict[int, dict[str, Any]]:
        """Last observed stage per message among the retained records.

        A message whose final lifecycle stage never appeared in the
        window was in flight at death — this is the "open spans" view
        of the postmortem.
        """
        latest: dict[int, dict[str, Any]] = {}
        for rec in self.records:
            if rec.message_id is None:
                continue
            latest[rec.message_id] = {
                "message_id": rec.message_id,
                "stage": rec.stage,
                "category": rec.category,
                "component": rec.component,
                "end_ns": rec.end_ns,
            }
        return latest

    def to_doc(self, reason: str,
               note: Optional[str] = None) -> dict[str, Any]:
        """Assemble the ``repro-postmortem/1`` document."""
        env = self.cluster.env
        doc: dict[str, Any] = {
            "schema": POSTMORTEM_SCHEMA,
            "reason": reason,
            "t_ns": env.now,
            "events_processed": env.events_processed,
            "meta": run_meta(None),
            "capacity": self.capacity,
            "heartbeats": [[when, n] for when, n in self.heartbeats],
            "records": [
                {"start_ns": r.start_ns, "end_ns": r.end_ns,
                 "category": r.category, "stage": r.stage,
                 "component": r.component, "message_id": r.message_id}
                for r in self.records
            ],
            "open_messages": sorted(self.open_messages().values(),
                                    key=lambda m: m["message_id"]),
        }
        if note:
            doc["note"] = note
        telemetry = getattr(env, "_telemetry", None)
        if telemetry is not None:
            try:
                doc["metrics"] = json.loads(telemetry.registry.to_json())
            except Exception:
                # The snapshot is best-effort garnish on a crash path.
                doc["metrics"] = None
        return doc

    def dump(self, reason: str, directory: Optional[str] = None,
             path: Optional[str] = None,
             note: Optional[str] = None) -> Optional[str]:
        """Write a postmortem artifact; returns its path.

        Exception-safe: any I/O or serialization failure is swallowed
        (returning ``None``) because this runs on paths that are
        already raising — a postmortem must never mask the failure it
        documents.  ``REPRO_POSTMORTEM_DIR`` overrides the default
        destination (the working directory).
        """
        try:
            if path is None:
                directory = (directory
                             or os.environ.get("REPRO_POSTMORTEM_DIR")
                             or ".")
                slug = "".join(c if c.isalnum() or c in "-_" else "-"
                               for c in reason.lower())[:40].strip("-")
                stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
                base = f"postmortem-{slug or 'failure'}-{stamp}"
                path = os.path.join(directory, base + ".json")
                n = 0
                while os.path.exists(path):
                    n += 1
                    path = os.path.join(directory, f"{base}-{n}.json")
            doc = self.to_doc(reason, note=note)
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except Exception:
            return None
        self.dumps.append(path)
        return path


# ------------------------------------------------------------- inspection
def load_postmortem(path) -> dict[str, Any]:
    with open(os.fspath(path), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != POSTMORTEM_SCHEMA:
        raise ValueError(f"{path}: unknown schema {doc.get('schema')!r} "
                         f"(expected {POSTMORTEM_SCHEMA!r})")
    return doc


def render_postmortem(doc: dict[str, Any], last: int = 20) -> str:
    """Human-readable postmortem view (``repro postmortem`` output)."""
    lines = [f"postmortem: {doc.get('reason', '?')}",
             f"  died at t={doc.get('t_ns', 0)} ns after "
             f"{doc.get('events_processed', 0)} events"]
    if doc.get("note"):
        lines.append(f"  note: {doc['note']}")
    meta = doc.get("meta") or {}
    if meta.get("git_sha"):
        lines.append(f"  git {meta['git_sha'][:12]}  "
                     f"python {meta.get('python', '?')}")

    beats = doc.get("heartbeats") or []
    if beats:
        lines.append("")
        lines.append(f"heartbeats (last {min(last, len(beats))} of "
                     f"{len(beats)} retained clock advances):")
        for when, n in beats[-last:]:
            lines.append(f"  t={when:>14} ns  after {n:>10} events")

    records = doc.get("records") or []
    if records:
        lines.append("")
        lines.append(f"recent spans (last {min(last, len(records))} of "
                     f"{len(records)} retained):")
        for rec in records[-last:]:
            mid = rec.get("message_id")
            tag = f"  msg={mid}" if mid is not None else ""
            lines.append(
                f"  [{rec['start_ns']:>12} -> {rec['end_ns']:>12} ns] "
                f"{rec['component']:<22} {rec['stage']}{tag}")

    open_messages = doc.get("open_messages") or []
    if open_messages:
        lines.append("")
        lines.append(f"messages seen in the window ({len(open_messages)}), "
                     "last observed stage:")
        for msg in open_messages[:last]:
            lines.append(f"  msg={msg['message_id']:<6} last stage "
                         f"{msg['stage']!r} ({msg['component']}) "
                         f"at t={msg['end_ns']} ns")

    metrics = (doc.get("metrics") or {}).get("metrics") if \
        isinstance(doc.get("metrics"), dict) else None
    if metrics:
        nonzero = [m for m in metrics
                   if m.get("value") or m.get("count")]
        lines.append("")
        lines.append(f"metrics snapshot: {len(metrics)} series "
                     f"({len(nonzero)} non-zero)")
    return "\n".join(lines)
