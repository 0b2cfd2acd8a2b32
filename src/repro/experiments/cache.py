"""Content-addressed cache of experiment cell results.

Every runner cell is a pure function of ``(CostModel, cell function,
parameters)`` on a deterministic simulator, so its payload can be
cached on disk and reused across invocations (repeated CLI runs, CI,
benchmark harnesses).  Keys are SHA-256 over the canonical JSON of the
full configuration plus a fingerprint of the ``repro`` package source,
so any code change invalidates the whole cache rather than serving
stale numbers.

Payloads are stored as JSON.  Cells only emit scalars
(str/int/float/bool/None) inside dicts and lists, and Python's JSON
writer round-trips floats exactly (shortest-repr), so a cache hit is
byte-identical to recomputing.

``hashlib`` is imported where a key is hashed, so a run that never
consults the cache does not load OpenSSL.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.config import CostModel

__all__ = ["RunCache", "default_cache_dir"]

#: environment variable overriding the default cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_DEFAULT_DIR = ".repro-cache"

_fingerprint_cache: Optional[str] = None


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, _DEFAULT_DIR))


def _code_fingerprint() -> str:
    """Hash of every ``repro`` source file, cached per process."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import hashlib

        import repro
        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


class RunCache:
    """Directory of ``<key>.json`` cell payloads, keyed by content."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def key(self, cfg: CostModel, fn: str, params: dict) -> str:
        import hashlib
        blob = json.dumps(
            {"code": _code_fingerprint(),
             "cfg": dataclasses.asdict(cfg),
             "fn": fn, "params": params},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, payload)``; unreadable entries count as misses."""
        try:
            with open(self._path(key)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, payload

    def put(self, key: str, payload: Any) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so concurrent runners never read a torn file.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
