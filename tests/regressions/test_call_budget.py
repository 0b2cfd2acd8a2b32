"""Host-call budgets of three small cells: the per-event cost may not grow.

Each cell runs once to warm the process's lazy caches, then once more
under ``cProfile`` after a ``gc.collect()`` (so a collection of an
earlier cell's garbage cannot land in the profile, as
``test_run_gc.py::test_profiled_call_counts_repeat_in_process`` pins).
The counts are exact and repeat in-process, so the budgets are exact
too, and one-sided: a change may lower a count (and should lower the
budget with it) but never raise it.

* ``repro`` counts calls of Python functions in the package and
  ``sim`` those in ``repro/sim`` (the engine and resources).  They do
  not depend on the interpreter, apart from comprehensions, which are
  inlined from CPython 3.12 on and then count lower.
* ``total`` also counts builtins and the standard library, whose call
  counts differ between interpreter versions, so it is checked only on
  the version the budgets were taken with.

Every per-operation unit conversion the message path hoists (host CPU
charges, MCP processing, wire injection, link serialization, DMA setup
and bursts) and the single page-table walk of ``AddressSpace.segments``
shows in these counts: putting a per-call conversion back raises
``repro`` or ``sim`` by at least one call per operation.
"""

from __future__ import annotations

import cProfile
import gc
import os
import sys

import pytest

import repro
from repro.cluster import Cluster
from repro.experiments.scale import measure_scale_point
from repro.instrument.measure import measure_one_way

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SIM = os.path.join(_PACKAGE, "sim") + os.sep

#: interpreter the ``total`` budgets were taken with
BUDGET_PYTHON = (3, 11)

#: cell -> (total, repro, sim) calls, measured on CPython 3.11.  Before
#: the message path's conversions were hoisted and the engine's event
#: construction slimmed, the same cells counted (16205, 8691, 4302),
#: (220790, 105504, 61281) and (515229, 304219, 131290).  Before link
#: endpoints called the NIC's or switch port's inbox ``try_put``
#: directly, an event's second waiter stopped costing a list ``append``
#: and the page table dropped its ``dict.get`` per page and its
#: ``is_mapped`` generator, they counted (14192, 6541, 2496),
#: (192961, 77355, 36438) and (458531, 244339, 82179).  Before the
#: engine's pooled ``sleep()`` was folded into ``timeout()`` (the run
#: loop no longer tests and appends every fired timer to a free pool)
#: and a link endpoint's ``send`` put into its own inbox (no
#: ``Link._enqueue`` call), they counted (13906, 6391, 2496),
#: (189778, 75330, 36438) and (452860, 241523, 82179).
BUDGETS = {
    "bcl_one_way_0B": (13252, 6354, 2486),
    "bcl_one_way_128KiB": (178614, 74414, 36418),
    "host_barrier_16": (431769, 240153, 81801),
}


def _one_way(nbytes: int):
    def cell():
        measure_one_way(Cluster(n_nodes=2), nbytes)
    return cell


def _host_barrier():
    measure_scale_point(n_ranks=16, topology="single_switch",
                        collectives="host")


CELLS = {
    "bcl_one_way_0B": _one_way(0),
    "bcl_one_way_128KiB": _one_way(128 * 1024),
    "host_barrier_16": _host_barrier,
}


def profiled_calls(cell) -> tuple[int, int, int]:
    """``(total, repro, sim)`` calls of one warm run of ``cell``.

    Counted from the profiler's raw entries, one per code object:
    ``pstats`` keys entries by ``(file, line, name)``, and keeps only
    one of several generated functions with the same key (dataclass
    ``__init__``\\ s are all ``<string>:2``), so its total is not exact.
    """
    cell()
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        cell()
    finally:
        profile.disable()
    total = in_package = in_sim = 0
    for entry in profile.getstats():
        total += entry.callcount
        filename = getattr(entry.code, "co_filename", "")
        if filename.startswith(_PACKAGE):
            in_package += entry.callcount
            if filename.startswith(_SIM):
                in_sim += entry.callcount
    return total, in_package, in_sim


@pytest.mark.parametrize("name", sorted(CELLS))
def test_calls_within_budget(name, monkeypatch):
    # Observers add calls of their own; budget the bare message path.
    monkeypatch.delenv("REPRO_OBSERVERS", raising=False)
    total, repro, sim = profiled_calls(CELLS[name])
    budget_total, budget_repro, budget_sim = BUDGETS[name]
    assert sim <= budget_sim, f"sim calls {sim} > budget {budget_sim}"
    assert repro <= budget_repro, \
        f"repro calls {repro} > budget {budget_repro}"
    if sys.version_info[:2] == BUDGET_PYTHON:
        assert total <= budget_total, \
            f"total calls {total} > budget {budget_total}"
