"""Run ledgers: one self-describing artifact per run (``repro-run/1``).

Every experiment, serve, scale or observe run can emit a *ledger* — a
JSON document carrying everything a later reader needs to compare the
run against another one without rerunning it:

* **provenance** — git sha, python, platform, UTC timestamp, seed, and
  a :func:`config_digest` of the :class:`~repro.config.CostModel` so
  two ledgers are only compared like-with-like;
* **volume** — events processed and (optionally) host wall time;
* **the critical-path stage table** — total simulated nanoseconds per
  canonical Figure-7 stage (:mod:`repro.telemetry.critical_path`),
  which is what :func:`repro.telemetry.diff.diff_runs` attributes
  regressions to;
* **exact percentiles** — nearest-rank p50/p99/p99.9 of every
  populated histogram in the metrics registry;
* **the metrics snapshot** — the registry's full series list.

:class:`~repro.telemetry.session.TelemetrySession.to_ledger` builds
one from a live session; :func:`make_ledger` builds one from raw parts
(the ``repro evaluate``/``repro scale`` paths, which aggregate stage
tables without a session).  :func:`load_run` reads either a ledger
*or* a ``BENCH_*.json`` perf artifact and normalizes both into the
same :class:`RunView`, so the BENCH trajectory files are just a
special case of ledgers as far as the differ is concerned.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["SCHEMA", "RunView", "config_digest", "load_run",
           "make_ledger", "write_ledger"]

SCHEMA = "repro-run/1"
BENCH_SCHEMA = "repro-bench/1"


# ------------------------------------------------------------ provenance
def config_digest(cfg) -> str:
    """Stable short digest of every CostModel field.

    Two runs with the same digest executed the same simulated machine;
    a differ should flag digest mismatches because stage deltas across
    *deliberately different* cost models are expected, not regressions.
    """
    import dataclasses
    items = sorted((f.name, getattr(cfg, f.name))
                   for f in dataclasses.fields(cfg))
    blob = json.dumps(items, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def git_sha() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_meta(seed: Optional[int]) -> dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
    }


# -------------------------------------------------------------- assembly
def make_ledger(kind: str, *, seed: Optional[int] = None, cfg=None,
                events: Optional[int] = None, wall_s: Optional[float] = None,
                stages: Optional[dict[str, int]] = None,
                percentiles: Optional[dict[str, dict[str, float]]] = None,
                metrics: Optional[list[dict[str, Any]]] = None,
                extra: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """Assemble one ``repro-run/1`` document.

    ``stages`` maps canonical stage name -> total simulated ns;
    ``percentiles`` maps a histogram key -> ``{"p50": .., "p99": ..,
    "p999": ..}`` (exact nearest-rank, in the histogram's own unit);
    ``metrics`` is the registry series list
    (:meth:`MetricsRegistry.to_json` shape).
    """
    stages = stages or {}
    return {
        "schema": SCHEMA,
        "kind": kind,
        "meta": run_meta(seed),
        "config_digest": config_digest(cfg) if cfg is not None else None,
        "events_processed": events,
        "wall_s": wall_s,
        "stages": [[stage, int(ns)] for stage, ns in
                   sorted(stages.items(), key=lambda kv: (-kv[1], kv[0]))],
        "percentiles": percentiles or {},
        "metrics": metrics or [],
        "extra": extra or {},
    }


def write_ledger(path, doc: dict[str, Any]) -> str:
    """Write a ledger, creating parent directories; returns the path."""
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ------------------------------------------------------------- run views
@dataclass
class RunView:
    """A normalized run: what the differ compares.

    ``stages`` is canonical stage -> total simulated ns; ``metrics``
    is a flat scalar map (histogram percentiles flattened to
    ``name.p99``-style keys; BENCH results flattened to
    ``result/field`` keys).
    """

    path: str
    schema: str
    kind: str
    meta: dict = field(default_factory=dict)
    config_digest: Optional[str] = None
    events: Optional[int] = None
    stages: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return os.path.basename(self.path) if self.path else self.kind

    @property
    def total_stage_ns(self) -> int:
        return sum(self.stages.values())


def _series_key(entry: dict) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return entry["name"]
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{body}}}"


def _view_from_ledger(doc: dict, path: str) -> RunView:
    view = RunView(path=path, schema=doc["schema"],
                   kind=doc.get("kind", "run"),
                   meta=doc.get("meta", {}),
                   config_digest=doc.get("config_digest"),
                   events=doc.get("events_processed"),
                   stages={stage: int(ns)
                           for stage, ns in doc.get("stages", [])})
    if view.events is not None:
        view.metrics["events_processed"] = float(view.events)
    if doc.get("wall_s") is not None:
        view.metrics["wall_s"] = float(doc["wall_s"])
    for key, quantiles in (doc.get("percentiles") or {}).items():
        for q, value in quantiles.items():
            view.metrics[f"{key}.{q}"] = float(value)
    for entry in doc.get("metrics", []):
        key = _series_key(entry)
        if "value" in entry:
            view.metrics[key] = float(entry["value"])
        elif "count" in entry:        # histogram series
            view.metrics[f"{key}.count"] = float(entry["count"])
    return view


def _view_from_bench(doc: dict, path: str) -> RunView:
    """Normalize a ``BENCH_*.json`` perf artifact into a RunView.

    Per-result numeric fields become ``result-name/field`` metrics;
    per-result ``stage_table`` entries (microseconds) are merged into
    one nanosecond stage map; ``calendar_vs_reference`` ratios (engine
    suite) become ``calendar_vs_reference/<scenario>`` metrics.
    """
    view = RunView(path=path, schema=doc["schema"],
                   kind=f"bench-{doc.get('suite', 'unknown')}",
                   meta=doc.get("meta", {}),
                   config_digest=doc.get("meta", {}).get("config_digest"))
    events = 0
    saw_events = False
    for result in doc.get("results", []):
        name = result.get("name", "?")
        for key, value in result.items():
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue
            view.metrics[f"{name}/{key}"] = float(value)
        for stage, us in result.get("stage_table") or []:
            view.stages[stage] = (view.stages.get(stage, 0)
                                  + int(round(us * 1000)))
        if isinstance(result.get("events"), (int, float)):
            events += int(result["events"])
            saw_events = True
    for scenario, ratio in (doc.get("calendar_vs_reference")
                            or {}).items():
        view.metrics[f"calendar_vs_reference/{scenario}"] = float(ratio)
    if saw_events:
        view.events = events
        view.metrics["events_processed"] = float(events)
    return view


def load_run(source) -> RunView:
    """Load a ledger or BENCH artifact into a :class:`RunView`.

    ``source`` may be a path, an already-parsed document dict, or a
    :class:`RunView` (returned unchanged).
    """
    if isinstance(source, RunView):
        return source
    if isinstance(source, dict):
        doc, path = source, ""
    else:
        path = os.fspath(source)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    schema = doc.get("schema")
    if schema == SCHEMA:
        return _view_from_ledger(doc, path)
    if schema == BENCH_SCHEMA:
        return _view_from_bench(doc, path)
    raise ValueError(
        f"{path or 'document'}: unknown schema {schema!r} "
        f"(expected {SCHEMA!r} or {BENCH_SCHEMA!r})")
