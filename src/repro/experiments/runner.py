"""Run the full evaluation: every table, figure and ablation.

``python -m repro.experiments.runner`` regenerates the paper's
evaluation section and prints paper-vs-measured for each entry (the
source of EXPERIMENTS.md's numbers).

The evaluation is decomposed into *cells* — independent simulations of
one configuration each (a sweep point of Figures 8/9, one ablation
setting, one Table 2/3 protocol row...).  Cells are pure functions of
``(CostModel, parameters)`` on a deterministic simulator, which buys
two things:

* ``--jobs N`` fans the cells out over a ``multiprocessing`` pool and
  merges the payloads back in paper order, so the parallel output is
  byte-identical to the serial run (``multiprocessing`` is imported
  only when a pool is started);
* a content-addressed on-disk cache (:mod:`repro.experiments.cache`)
  lets repeated invocations skip already-computed cells.

Cells shared between experiments (Figures 8 and 9 use the same sweep
points) are computed once per invocation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.baselines.models import table2_presets
from repro.config import DAWNING_3000, CostModel
from repro.experiments import ablations, curves, extensions, overheads, \
    resilience, scale, serve, table1, table2, table3, timelines
from repro.experiments.cache import RunCache, default_cache_dir
from repro.experiments.common import ExperimentResult, result_from_payload, \
    result_to_payload
from repro.telemetry.ledger import fold_stage_rows

__all__ = ["run_all", "run_cell", "plan", "main", "Cell", "Experiment",
           "EXPERIMENTS"]


@dataclass(frozen=True)
class Cell:
    """One independent unit of evaluation work.

    ``fn`` keys into :data:`CELL_FNS`; ``params`` is a sorted tuple of
    ``(name, value)`` pairs with picklable scalar values, so a cell can
    cross a process boundary and serve as a cache/dedup key.
    """

    fn: str
    params: tuple = ()

    def kwargs(self) -> dict:
        return dict(self.params)


def _cell(fn: str, **params: Any) -> Cell:
    return Cell(fn, tuple(sorted(params.items())))


@dataclass(frozen=True)
class Experiment:
    """A named experiment: a cell plan plus a deterministic merge."""

    name: str                 # key for --only
    group: str                # "core" | "ablation" | "extension"
    plan: Callable[[CostModel], list]
    merge: Callable[[CostModel, list], ExperimentResult]


# --------------------------------------------------------------- cell fns
# Whole-experiment cells (not worth decomposing further): the payload is
# the flattened ExperimentResult.
def _timeline_cell(cfg: CostModel, fig: str) -> dict:
    return result_to_payload(getattr(timelines, f"run_{fig}")(cfg))


def _overheads_cell(cfg: CostModel) -> dict:
    return result_to_payload(overheads.run(cfg))


def _extension_cell(cfg: CostModel, which: str) -> dict:
    return result_to_payload(getattr(extensions, f"run_{which}")(cfg))


#: Registry of cell functions.  Workers receive only the key string and
#: look the callable up in their own copy of this module, so nothing
#: unpicklable ever crosses the process boundary.
CELL_FNS: dict[str, Callable] = {
    "table1.count": table1.count_architecture,
    "timelines.fig": _timeline_cell,
    "curves.point": curves.measure_point,
    "table2.protocol": table2.measure_protocol,
    "table3.layer": table3.measure_layer,
    "overheads.run": _overheads_cell,
    "ablations.pindown": ablations.pindown_latency,
    "ablations.pio": ablations.pio_point,
    "ablations.cpu": ablations.cpu_point,
    "ablations.nic_tlb": ablations.nic_tlb_latency,
    "ablations.shm": ablations.shm_point,
    "ablations.reliability": ablations.reliability_point,
    "ablations.nack": ablations.nack_transfer_us,
    "extensions.run": _extension_cell,
    "resilience.point": resilience.measure_resilience_point,
    "scale.point": scale.measure_scale_point,
    "scale.congestion": scale.measure_congestion_point,
    "serve.point": serve.measure_serve_point,
}


# ------------------------------------------------------------------- plans
def _curve_cells(cfg: CostModel) -> list:
    return ([_cell("curves.point", nbytes=n, intra=False)
             for n in curves.DEFAULT_SIZES]
            + [_cell("curves.point", nbytes=n, intra=True)
               for n in curves.DEFAULT_SIZES])


def _single(fn: str, **params: Any) -> Callable[[CostModel], list]:
    return lambda cfg: [_cell(fn, **params)]


def _from_payload(cfg: CostModel, payloads: list) -> ExperimentResult:
    return result_from_payload(payloads[0])


EXPERIMENTS: tuple = (
    Experiment("table1", "core",
               lambda cfg: [_cell("table1.count", architecture=arch)
                            for arch, *_ in table1._ARCHITECTURES],
               table1.merge_counts),
    Experiment("fig5", "core", _single("timelines.fig", fig="fig5"),
               _from_payload),
    Experiment("fig6", "core", _single("timelines.fig", fig="fig6"),
               _from_payload),
    Experiment("fig7", "core", _single("timelines.fig", fig="fig7"),
               _from_payload),
    Experiment("fig8", "core", _curve_cells, curves.merge_fig8),
    Experiment("fig9", "core", _curve_cells, curves.merge_fig9),
    Experiment("table2", "core",
               lambda cfg: [_cell("table2.protocol", protocol=preset.name)
                            for preset in table2_presets(cfg)],
               table2.merge_protocols),
    Experiment("table3", "core",
               lambda cfg: [_cell("table3.layer", layer=layer)
                            for layer in table3.LAYERS],
               table3.merge_layers),
    Experiment("overheads", "core", _single("overheads.run"),
               _from_payload),
    Experiment("abl-pindown", "ablation",
               lambda cfg: [_cell("ablations.pindown", n_buffers=n)
                            for _, n in ablations.PINDOWN_SCENARIOS],
               ablations.merge_pindown),
    Experiment("abl-pio", "ablation",
               lambda cfg: [_cell("ablations.pio", factor=f)
                            for f in ablations.PIO_FACTORS],
               ablations.merge_pio),
    Experiment("abl-cpu", "ablation",
               lambda cfg: [_cell("ablations.cpu", mhz=m)
                            for m in ablations.CPU_MHZ],
               ablations.merge_cpu_frequency),
    Experiment("abl-nic-tlb", "ablation",
               lambda cfg: [_cell("ablations.nic_tlb", architecture=a,
                                  n_buffers=n)
                            for a, n in ablations.NIC_TLB_POINTS],
               ablations.merge_nic_tlb),
    Experiment("abl-shm-chunk", "ablation",
               lambda cfg: [_cell("ablations.shm", chunk=c)
                            for c in ablations.SHM_CHUNKS],
               ablations.merge_shm_chunk),
    Experiment("abl-reliability", "ablation",
               lambda cfg: [_cell("ablations.reliability", reliable=r)
                            for _, r in ablations.RELIABILITY_CONFIGS],
               ablations.merge_reliability),
    Experiment("abl-nack", "ablation",
               lambda cfg: [_cell("ablations.nack", nack=n)
                            for _, n in ablations.NACK_CONFIGS],
               ablations.merge_nack),
) + tuple(
    Experiment(f"ext-{which.replace('_', '-')}", "extension",
               _single("extensions.run", which=which), _from_payload)
    for which in ("smp_scaling", "bidirectional", "topologies",
                  "send_window", "dnet", "collective_scaling",
                  "allreduce_algorithms")
) + (
    # Scale-out sweep (env-overridable axes; bench_scale.py drives the
    # same cells out to 1024 ranks for BENCH_scale.json).
    Experiment("ext-scale", "extension",
               lambda cfg: [_cell("scale.point", n_ranks=n, topology=t,
                                  collectives=c, op=op)
                            for t in scale.scale_topologies()
                            for op in scale.SCALE_OPS
                            for n in scale.scale_ranks()
                            for c in ("host", "nic")]
                           + [_cell("scale.congestion", n_ranks=16,
                                    topology=t, scenario=s)
                              for t in scale.scale_topologies()
                              for s in ("incast", "hotspot",
                                        "permutation")],
               scale.merge_scale),
    # Serving tier: offered load through saturation for both arrival
    # processes (round_robin), plus a policy comparison at overload.
    Experiment("ext-serve", "extension",
               lambda cfg: [_cell("serve.point", rho=rho,
                                  policy="round_robin", arrivals=arr)
                            for arr in ("poisson", "bursty")
                            for rho in serve.serve_loads()]
                           + [_cell("serve.point", rho=1.1, policy=p,
                                    arrivals="poisson")
                              for p in serve.SERVE_POLICIES[1:]],
               serve.merge_serve),
    # Loss-rate x size sweep; the plan re-reads the (env-overridable)
    # sweep axes at call time so smoke runs can shrink it.
    Experiment("resilience", "extension",
               lambda cfg: [_cell("resilience.point", loss_pct=loss,
                                  nbytes=n, intra=intra)
                            for intra in (False, True)
                            for loss in resilience.loss_rates_pct()
                            for n in resilience.message_sizes()],
               resilience.merge_resilience),
)


def plan(include_ablations: bool = True, include_extensions: bool = True,
         only: Optional[Sequence[str]] = None) -> list:
    """The experiments an invocation will run, in paper order."""
    if only is not None:
        unknown = set(only) - {e.name for e in EXPERIMENTS}
        if unknown:
            raise ValueError(f"unknown experiment(s): {sorted(unknown)}")
    selected = []
    for experiment in EXPERIMENTS:
        if experiment.group == "ablation" and not include_ablations:
            continue
        if experiment.group == "extension" and not include_extensions:
            continue
        if only is not None and experiment.name not in only:
            continue
        selected.append(experiment)
    return selected


# --------------------------------------------------------------- execution
def _run_cell(work: tuple) -> Any:
    """Pool worker entry point: ``(fn_key, cfg, params) -> payload``."""
    fn, cfg, params = work
    return CELL_FNS[fn](cfg, **params)


def run_cell(fn: str, cfg: CostModel = DAWNING_3000, **params: Any) -> Any:
    """Run one registered cell synchronously, bypassing pool and cache.

    The perf trajectory (``benchmarks/perf``) times canonical cells
    through this entry point so its wall-clock numbers measure exactly
    what ``run_all`` executes, without cache hits or worker start-up
    noise.
    """
    if fn not in CELL_FNS:
        raise ValueError(f"unknown cell fn {fn!r} "
                         f"(known: {sorted(CELL_FNS)})")
    return CELL_FNS[fn](cfg, **params)


def _execute(cells: Sequence[Cell], cfg: CostModel, jobs: int,
             cache: Optional[RunCache]) -> dict:
    """Compute payloads for ``cells``, in parallel when ``jobs > 1``."""
    payloads: dict[Cell, Any] = {}
    pending: list[Cell] = []
    for cell in cells:
        if cache is not None:
            hit, payload = cache.get(cache.key(cfg, cell.fn, cell.kwargs()))
            if hit:
                payloads[cell] = payload
                continue
        pending.append(cell)
    if pending:
        work = [(cell.fn, cfg, cell.kwargs()) for cell in pending]
        if jobs > 1 and len(work) > 1:
            import multiprocessing
            with multiprocessing.Pool(min(jobs, len(work))) as pool:
                # chunksize=1: cells vary widely in runtime, so fine-
                # grained dispatch balances the pool; map() preserves
                # order, keeping the merge deterministic.
                fresh = pool.map(_run_cell, work, chunksize=1)
        else:
            fresh = [_run_cell(w) for w in work]
        for cell, payload in zip(pending, fresh):
            payloads[cell] = payload
            if cache is not None:
                cache.put(cache.key(cfg, cell.fn, cell.kwargs()), payload)
    return payloads


def run_all(cfg: CostModel = DAWNING_3000, include_ablations: bool = True,
            include_extensions: bool = True, jobs: int = 1,
            cache: Optional[RunCache] = None,
            only: Optional[Sequence[str]] = None,
            ledger_sink: Optional[dict] = None) -> list[ExperimentResult]:
    """All experiment results, in paper order, then the extensions.

    ``jobs > 1`` distributes the cells over worker processes; the merge
    order is fixed, so the result list (and its formatting) is
    identical to a serial run.  ``cache`` (a :class:`RunCache`) reuses
    payloads across invocations; ``only`` restricts the run to the
    named experiments (see ``--list`` for the names).

    ``ledger_sink`` (a dict, mutated in place) collects the raw
    material for a ``repro-run/1`` ledger from every cell payload that
    carries it: ``stages`` (canonical stage -> total simulated ns,
    folded from per-cell ``stage_table`` microsecond rows), ``events``
    (summed engine events) and ``cells`` (payloads seen).  The CLI's
    ``--ledger-out`` hands this to
    :func:`repro.telemetry.ledger.make_ledger`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    selected = plan(include_ablations, include_extensions, only)
    cell_lists = [experiment.plan(cfg) for experiment in selected]
    unique: dict[Cell, None] = {}
    for cells in cell_lists:
        for cell in cells:
            unique.setdefault(cell)
    payloads = _execute(list(unique), cfg, jobs, cache)
    if ledger_sink is not None:
        stages = ledger_sink.setdefault("stages", {})
        ledger_sink.setdefault("events", 0)
        ledger_sink.setdefault("cells", 0)
        for payload in payloads.values():
            if not isinstance(payload, dict):
                continue
            ledger_sink["cells"] += 1
            fold_stage_rows(stages, payload.get("stage_table"))
            events = payload.get("events")
            if isinstance(events, (int, float)):
                ledger_sink["events"] += int(events)
    return [experiment.merge(cfg, [payloads[cell] for cell in cells])
            for experiment, cells in zip(selected, cell_lists)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper's evaluation "
                    "(tables, figures, ablations, extensions).")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan experiment cells out over N worker "
                             "processes (output is byte-identical to "
                             "a serial run)")
    parser.add_argument("--no-ablations", action="store_true",
                        help="skip the ablation studies")
    parser.add_argument("--no-extensions", action="store_true",
                        help="skip the beyond-the-paper extensions")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only the named experiment "
                             "(repeatable; see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment names and exit")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell, ignoring the run cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="run-cache directory (default: "
                             f"$REPRO_CACHE_DIR or {default_cache_dir()})")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.list:
        for experiment in EXPERIMENTS:
            print(f"{experiment.name:28s} {experiment.group}")
        return 0
    cache = None
    if not args.no_cache:
        cache = RunCache(args.cache_dir)
    try:
        results = run_all(include_ablations=not args.no_ablations,
                          include_extensions=not args.no_extensions,
                          jobs=args.jobs, cache=cache, only=args.only)
    except ValueError as exc:
        parser.error(str(exc))
    for result in results:
        print(result.format())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
