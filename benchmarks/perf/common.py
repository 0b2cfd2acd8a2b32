"""Shared schema and metadata for the BENCH_*.json artifacts.

Every artifact carries:

* ``schema`` — format tag (bump on incompatible layout changes);
* ``suite`` — ``"engine"``, ``"scale"`` or ``"serve"``;
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


def run_metadata(seed: int) -> dict[str, Any]:
    """Run provenance (:func:`repro.telemetry.ledger.run_meta`) plus the
    digest of the default cost model, so `repro diff` can tell a
    deliberate reconfiguration apart from a behaviour drift.  The
    benchmarks all run DAWNING_3000."""
    from repro.config import DAWNING_3000
    from repro.telemetry.ledger import config_digest, run_meta

    meta = run_meta(seed)
    meta["config_digest"] = config_digest(DAWNING_3000)
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


#: objects handed to one ``gc.get_referents`` call by the census
_REFERENT_BATCH = 4096


def _untracked_bytes(objects: list) -> int:
    """Summed ``sys.getsizeof`` of every object the GC does not track
    that ``objects`` reach, directly or through other untracked
    objects, each counted once.

    ``gc.get_objects()`` lists containers only.  Buffers, strings and
    numbers are not tracked, and neither is a dict or tuple that holds
    nothing else, so a page store (``dict`` of ``bytearray``) hides
    behind one untracked level.  All of them are alive while the
    caller holds ``objects``, so ``id`` is a stable key.
    """
    seen: set[int] = set()
    total = 0
    frontier = objects
    while frontier:
        reached = []
        for start in range(0, len(frontier), _REFERENT_BATCH):
            for ref in gc.get_referents(
                    *frontier[start:start + _REFERENT_BATCH]):
                if not gc.is_tracked(ref) and id(ref) not in seen:
                    seen.add(id(ref))
                    total += sys.getsizeof(ref)
                    reached.append(ref)
        frontier = reached
    return total


class RunProbe:
    """Context manager: watches every ``Environment.run`` call and every
    cyclic garbage collection inside it.

    * ``first_run`` — host time of the first entry (``None`` if nothing
      ran), so a caller can split the cluster build out of wall time;
    * ``gc_s`` — host seconds inside cyclic garbage collections, timed
      with ``gc.callbacks``.  A profiler charges collection time to
      whichever function happened to allocate when a collection
      started, so it is spread over every layer; this shows it as one
      number;
    * ``retained_objects`` and ``retained_kib`` — a census taken when
      the outermost call last returned, while the caller still holds
      its cluster: ``gc.collect()``, then the number of live GC-tracked
      objects (``gc.get_objects()``: containers, not ints or strings)
      and, in KiB, the summed ``sys.getsizeof`` of those objects plus
      every untracked object they reach (``bytearray``, ``bytes``,
      ``str``, ``int``, and dicts and tuples holding only such
      objects, followed into their contents), each counted once.  It
      counts the whole interpreter, so it is exact but only comparable
      between runs of the same sweep on the same Python
      ``major.minor``;
    * ``page_kib`` — the bytes stored by every live
      :class:`~repro.hw.memory.PhysicalMemory` at the census
      (``resident_bytes``), in KiB.  It counts model bytes, not Python
      objects, so it is the same on every interpreter;
    * ``census_s`` — host seconds the census took.  Its collection is
      left out of ``gc_s``; callers take ``census_s`` out of wall time.
    """

    def __init__(self):
        self.first_run: float | None = None
        self.gc_s = 0.0
        self.census_s = 0.0
        self.retained_objects: int | None = None
        self.retained_kib: float | None = None
        self.page_kib: float | None = None
        self._depth = 0
        self._original = None
        self._gc_started = 0.0

    def _gc_hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started

    def _census(self) -> None:
        from repro.hw.memory import PhysicalMemory

        started = time.perf_counter()
        gc.callbacks.remove(self._gc_hook)
        try:
            gc.collect()
            objects = gc.get_objects()
            self.retained_objects = len(objects)
            self.retained_kib = round(
                (sum(map(sys.getsizeof, objects))
                 + _untracked_bytes(objects)) / 1024, 1)
            self.page_kib = round(sum(
                obj.resident_bytes for obj in objects
                if type(obj) is PhysicalMemory) / 1024, 1)
        finally:
            gc.callbacks.append(self._gc_hook)
        self.census_s += time.perf_counter() - started

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
                    self._census()

        Environment.run = run
        gc.callbacks.append(self._gc_hook)
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim import Environment

        gc.callbacks.remove(self._gc_hook)
        Environment.run = self._original
