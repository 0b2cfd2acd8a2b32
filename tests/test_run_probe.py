"""``RunProbe``'s census sees host page bytes.

``gc.get_objects()`` lists containers only, and a page store (a dict
of ``bytearray``) is untracked too, so a census summing tracked objects
alone missed every stored page.  Writing 1 MiB of pages must grow
``retained_kib`` by at least that much and read exactly 1,024 KiB in
``page_kib``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.common import RunProbe  # noqa: E402
from repro.hw.memory import PhysicalMemory  # noqa: E402
from repro.sim import Environment  # noqa: E402

PAGES = 256


def _census(memory: PhysicalMemory) -> RunProbe:
    with RunProbe() as probe:
        Environment().run()
    return probe


def test_census_counts_stored_pages():
    memory = PhysicalMemory(PAGES * 4096 * 2)
    empty = _census(memory)
    for page in range(PAGES):
        memory.write(page * 4096, bytes([page % 255 + 1]) * 4096)
    full = _census(memory)
    assert empty.page_kib == 0.0
    assert full.page_kib == PAGES * 4.0
    assert full.retained_kib - empty.retained_kib >= PAGES * 4.0
