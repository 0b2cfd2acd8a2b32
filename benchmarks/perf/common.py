"""Shared schema and metadata for the BENCH_*.json artifacts.

Every artifact carries:

* ``schema`` — format tag (bump on incompatible layout changes);
* ``suite`` — ``"engine"`` or ``"experiments"``;
* ``units`` — the unit of every numeric result field, spelled out so a
  reader never has to guess;
* ``meta`` — run provenance: git sha, python, platform, UTC timestamp,
  and the benchmark seed;
* ``results`` — a list of per-scenario measurement objects.

Simulated quantities (event counts, simulated nanoseconds) are
deterministic for a given seed; wall-clock fields are machine-dependent
and only comparable against a baseline from similar hardware (the CI
gate allows 20 % of noise headroom).
"""

from __future__ import annotations

import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

SCHEMA = "repro-bench/1"

#: required top-level keys of every BENCH_*.json document
REQUIRED_KEYS = ("schema", "suite", "units", "meta", "results")
#: required keys of the ``meta`` object
REQUIRED_META_KEYS = ("git_sha", "python", "platform", "timestamp_utc",
                      "seed")


def git_sha() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata(seed: int) -> dict[str, Any]:
    meta = {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
    }
    # Digest of the default cost model, so `repro diff` can tell a
    # deliberate reconfiguration apart from a behaviour drift.  The
    # benchmarks all run DAWNING_3000; tolerate an unimportable package
    # (the bench scripts insert src/ on sys.path themselves).
    try:
        from repro.config import DAWNING_3000
        from repro.telemetry.ledger import config_digest
        meta["config_digest"] = config_digest(DAWNING_3000)
    except Exception:
        meta["config_digest"] = "unknown"
    return meta


def write_bench(path: Path | str, suite: str, units: dict[str, str],
                results: list[dict[str, Any]], seed: int,
                extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Assemble and write one BENCH_*.json document; returns it."""
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "suite": suite,
        "units": units,
        "meta": run_metadata(seed),
        "results": results,
    }
    if extra:
        doc.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


class GcTimer:
    """Context manager: host seconds spent inside cyclic garbage
    collections while it is active, timed with ``gc.callbacks``.

    A profiler charges collection time to whichever function happened
    to allocate when a collection started, so it is spread over every
    layer; this timer shows it as one number.
    """

    def __init__(self):
        self.seconds = 0.0
        self._started = 0.0

    def _hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._hook)


class RunProbe:
    """Context manager: watches every ``Environment.run`` call inside it.

    * ``first_run`` — host time of the first entry (``None`` if nothing
      ran), so a caller can split the cluster build out of wall time;
    * ``retained_objects`` — ``gc.get_count()[0]`` when the outermost
      call last returned.  The run loop holds the cyclic collector off,
      so this is the net count of GC-tracked allocations since the last
      collection as the run ends: about how much the simulation keeps,
      not how much it churned.  Frees of objects made before that
      collection count against it, so it moves by a few hundred on runs
      whose live objects do not change.
    """

    def __init__(self):
        self.first_run: float | None = None
        self.retained_objects: int | None = None
        self._depth = 0
        self._original = None

    def __enter__(self) -> "RunProbe":
        from repro.sim import Environment

        original = self._original = Environment.run

        def run(env, until=None):
            if self.first_run is None:
                self.first_run = time.perf_counter()
            self._depth += 1
            try:
                return original(env, until)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.retained_objects = gc.get_count()[0]

        Environment.run = run
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim import Environment

        Environment.run = self._original
