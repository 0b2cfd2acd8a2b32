"""Scale-out sweep: host vs NIC collectives on thousand-rank fabrics.

The paper evaluates DAWNING-3000 at Table-3 scale (a handful of nodes);
this extension asks what the semi-user-level architecture buys when the
fabric grows to Clos scale.  Each cell runs one ``(topology, n_ranks,
collectives, op)`` point: a cluster of ``n_ranks`` single-rank nodes on
``single_switch`` or ``fat_tree``, one warm-up collective, then one
timed collective with the host-side dissemination/tree algorithms or
the MCP firmware fan-in/fan-out tree (``collectives="nic"``).

Each payload carries an aggregate *busy-time stage table*: every span
traced during the timed window, grouped by the Figure-7 canonical
stage, with the largest stage named ``bounding_stage``.  The table is
a :class:`repro.telemetry.critical_path.StageFold` over raw spans as
they are traced; the tracer keeps no records for it, so a
thousand-rank cell runs in bounded memory.  At small
scale host collectives are bounded by per-hop software stages, at
large scale by ``wire``/``wait``; the NIC tree's table shows ``mcp``
taking over the coordination work.

The default sweep (:func:`scale_ranks`) stops at 256 ranks to keep
``run_all`` affordable; ``benchmarks/perf/bench_scale.py`` drives the
same cells out to 1024 ranks for the committed BENCH_scale.json
trajectory.  Override with ``REPRO_SCALE_RANKS=16,64`` (smoke) or
``...=16,64,256,1024`` (full).
"""

from __future__ import annotations

import os

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import ExperimentResult
from repro.sim.time import ns_to_us
from repro.telemetry.critical_path import StageFold
from repro.upper.job import run_spmd

__all__ = ["measure_scale_point", "measure_congestion_point",
           "scale_ranks", "scale_topologies", "merge_scale",
           "SCALE_OPS"]

#: collective operations the sweep times
SCALE_OPS = ("barrier", "allreduce")

#: the fold's old name; perfbench/workloads.py imports it from here
_StageAggregator = StageFold


def scale_ranks() -> tuple[int, ...]:
    """Sweep sizes (env-overridable: ``REPRO_SCALE_RANKS=16,64``)."""
    raw = os.environ.get("REPRO_SCALE_RANKS", "16,64,256")
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def scale_topologies() -> tuple[str, ...]:
    raw = os.environ.get("REPRO_SCALE_TOPOLOGIES", "single_switch,fat_tree")
    return tuple(tok for tok in raw.split(",") if tok.strip())


def measure_scale_point(cfg: CostModel = DAWNING_3000, *,
                        n_ranks: int, topology: str,
                        collectives: str, op: str = "barrier") -> dict:
    """One sweep point; returns a JSON-able payload."""
    if op not in SCALE_OPS:
        raise ValueError(f"unknown op {op!r} (known: {SCALE_OPS})")
    if op == "allreduce":
        import numpy as np     # only the allreduce contribution needs it

    cluster = Cluster(n_nodes=n_ranks, cfg=cfg, topology=topology,
                      trace=True)
    agg = StageFold(cluster.tracer)
    out: dict = {}

    def prog(ep):
        env = ep.port.env
        yield from ep.barrier()          # warm-up: sync + lazy alloc
        if ep.rank == 0:
            agg.armed = True
            out["t0"] = env.now
        if op == "barrier":
            yield from ep.barrier()
        else:
            yield from ep.allreduce(np.array([float(ep.rank)]))
        if ep.rank == 0:
            out["t1"] = env.now

    run_spmd(cluster, n_ranks, prog, collectives=collectives)
    table = agg.table()
    return {
        "n_ranks": n_ranks, "topology": topology,
        "collectives": collectives, "op": op,
        "latency_us": ns_to_us(out["t1"] - out["t0"]),
        "events": cluster.env.events_processed,
        "stage_table": table,
        "bounding_stage": table[0][0] if table else None,
    }


def measure_congestion_point(cfg: CostModel = DAWNING_3000, *,
                             n_ranks: int, topology: str,
                             scenario: str) -> dict:
    """One congestion point (incast/hotspot/permutation) on a fabric.
    Incast is the hotspot with every rank but the victim hot."""
    from repro.workloads import run_hotspot, run_permutation
    fns = {"incast": lambda c, n: run_hotspot(c, n, hot_fraction=1.0),
           "hotspot": run_hotspot, "permutation": run_permutation}
    if scenario not in fns:
        raise ValueError(f"unknown scenario {scenario!r} "
                         f"(known: {sorted(fns)})")
    cluster = Cluster(n_nodes=n_ranks, cfg=cfg, topology=topology)
    result = fns[scenario](cluster, n_ranks)
    return {
        "n_ranks": n_ranks, "topology": topology, "scenario": scenario,
        "elapsed_us": result.elapsed_us,
        "bandwidth_mb_s": result.bandwidth_mb_s,
        "tail_spread_us": result.tail_spread_us,
    }


def merge_scale(cfg: CostModel, payloads: list) -> ExperimentResult:
    """Fold sweep-point payloads into the scale table."""
    result = ExperimentResult(
        experiment_id="ext-scale",
        title="Host vs NIC collectives on thousand-rank fabrics",
        columns=["topology", "op", "ranks", "host_us", "nic_us",
                 "speedup", "host_bound", "nic_bound"],
        notes="speedup = host/nic latency; *_bound = stage with the "
              "largest aggregate critical-path share in the timed "
              "window (repro.telemetry.critical_path.canonical_stage)")
    points = [p for p in payloads if "op" in p]
    keys: dict[tuple, None] = {}
    for p in points:
        keys.setdefault((p["topology"], p["op"], p["n_ranks"]))
    by = {(p["topology"], p["op"], p["n_ranks"], p["collectives"]): p
          for p in points}
    for topology, op, ranks in keys:
        host = by.get((topology, op, ranks, "host"))
        nic = by.get((topology, op, ranks, "nic"))
        result.add(
            topology=topology, op=op, ranks=ranks,
            host_us=host["latency_us"] if host else None,
            nic_us=nic["latency_us"] if nic else None,
            speedup=(host["latency_us"] / nic["latency_us"]
                     if host and nic and nic["latency_us"] else None),
            host_bound=host["bounding_stage"] if host else None,
            nic_bound=nic["bounding_stage"] if nic else None)
    congestion = [p for p in payloads if "scenario" in p]
    if congestion:
        lines = [result.notes, "congestion (4KB x4 per flow):"]
        for p in congestion:
            lines.append(
                f"  {p['topology']:>13s} {p['scenario']:<11s} "
                f"n={p['n_ranks']:<4d} {p['elapsed_us']:9.2f} us  "
                f"{p['bandwidth_mb_s']:7.1f} MB/s  "
                f"tail {p['tail_spread_us']:8.2f} us")
        result.notes = "\n".join(lines)
    return result
