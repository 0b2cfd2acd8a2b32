"""Scale-out trajectory: host vs NIC collectives at 16-1024 ranks.

Drives the :mod:`repro.experiments.scale` cells through the same
``run_cell`` entry point the evaluation uses and records, per
``(op, topology, n_ranks, collectives)`` point:

* the **simulated** collective latency (deterministic — the gate
  compares it exactly against the committed baseline),
* the aggregate critical-path stage table for the timed window, with
  the bounding stage named (where does the time go as the fabric
  grows), and
* wall-clock and events-processed, for the host-side cost trajectory,
  with ``build_s`` — cell start to the first ``Environment.run`` (the
  cluster build) — split out of ``wall_s``, ``gc_s`` — host seconds
  inside cyclic garbage collections over the whole cell — and
  ``retained_objects``/``retained_kib``, a census of the live objects
  as the run ends, and ``page_kib``, the bytes the cluster's physical
  memories store then (:class:`~benchmarks.perf.common.RunProbe`; the
  census is timed out of ``wall_s`` and ``gc_s``; ``ci/perf_gate.py``
  gates ``retained_kib`` and ``page_kib``).

The full sweep (the committed ``BENCH_scale.json``) covers 16/64/256/
1024 ranks on ``single_switch`` and ``fat_tree``; barrier everywhere,
allreduce up to 256 ranks (a 1024-rank host allreduce buys minutes of
wall time without changing the story).  ``--smoke`` restricts to the
256-rank barrier cells — the CI scale-smoke gate.
"""

from __future__ import annotations

import argparse
import gc
import time

from repro.experiments.runner import run_cell

from benchmarks.perf.common import RunProbe, write_bench

SEED = 1

RANKS = (16, 64, 256, 1024)
TOPOLOGIES = ("single_switch", "fat_tree")
#: host allreduce wall time explodes past this (simulated story is
#: already told); barrier runs at every scale
ALLREDUCE_MAX_RANKS = 256
#: stage-table rows kept per result (descending share)
STAGE_TABLE_ROWS = 6


def _points(smoke: bool) -> list[tuple[str, str, int, str]]:
    if smoke:
        return [("barrier", topo, 256, policy)
                for topo in TOPOLOGIES for policy in ("host", "nic")]
    points = []
    for op in ("barrier", "allreduce"):
        for topo in TOPOLOGIES:
            for ranks in RANKS:
                if op == "allreduce" and ranks > ALLREDUCE_MAX_RANKS:
                    continue
                for policy in ("host", "nic"):
                    points.append((op, topo, ranks, policy))
    return points


def _time_point(op: str, topology: str, ranks: int, policy: str) -> dict:
    if op == "allreduce":
        # The array reduction imports numpy on first use: pay that once,
        # outside the first allreduce cell's timed window.  A sweep with
        # no allreduce point (--smoke) never loads it.
        import numpy  # noqa: F401
    gc.collect()
    with RunProbe() as probe:
        start = time.perf_counter()
        payload = run_cell("scale.point", n_ranks=ranks, topology=topology,
                           collectives=policy, op=op)
        end = time.perf_counter()
    build = (probe.first_run or end) - start
    return {
        "name": f"{op}/{topology}/{ranks}/{policy}",
        "op": op, "topology": topology, "n_ranks": ranks,
        "collectives": policy,
        "latency_us": round(payload["latency_us"], 3),
        "bounding_stage": payload["bounding_stage"],
        "stage_table": [[stage, round(us, 3)] for stage, us
                        in payload["stage_table"][:STAGE_TABLE_ROWS]],
        "events": payload["events"],
        "build_s": round(build, 6),
        "wall_s": round(end - start - probe.census_s, 6),
        "gc_s": round(probe.gc_s, 6),
        "retained_objects": probe.retained_objects,
        "retained_kib": probe.retained_kib,
        "page_kib": probe.page_kib,
    }


def run(out_path="BENCH_scale.json", smoke: bool = False) -> dict:
    results = [_time_point(*point) for point in _points(smoke)]
    return write_bench(
        out_path, "scale",
        units={"n_ranks": "ranks",
               "latency_us": "simulated us", "wall_s": "seconds",
               "build_s": "seconds", "gc_s": "seconds",
               "events": "count", "retained_objects": "count",
               "retained_kib": "KiB", "page_kib": "KiB",
               "stage_table": "simulated us"},
        results=results, seed=SEED,
        extra={"smoke": smoke})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.bench_scale",
        description="Scale-out host-vs-NIC collective trajectory.")
    parser.add_argument("--out", default="BENCH_scale.json",
                        help="output artifact path")
    parser.add_argument("--smoke", action="store_true",
                        help="256-rank barrier cells only (CI gate)")
    args = parser.parse_args(argv)
    doc = run(out_path=args.out, smoke=args.smoke)
    for r in doc["results"]:
        print(f"{r['name']:36s} {r['latency_us']:9.2f} us "
              f"(bound: {r['bounding_stage']}, "
              f"build {r['build_s']:.2f} s, gc {r['gc_s']:.2f} s, "
              f"wall {r['wall_s']:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
