"""Wall time per canonical experiment cell + telemetry percentiles.

Times the Table 1 architecture comparison, the Table 2 protocol rows,
the Figure 7 stage timeline and one Figure 8/9 sweep point through the
same :func:`repro.experiments.runner.run_cell` entry point ``run_all``
uses (no cache, no worker pool), so the trajectory tracks exactly what
the evaluation costs.

A telemetry-enabled ping-pong contributes simulated-latency p50/p99
from the metrics registry — the Breaking-Band loop's "measure the
critical path" numbers, recorded alongside the wall-clock trajectory.
"""

from __future__ import annotations

import gc
import time

from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.experiments.runner import run_cell
from repro.instrument.measure import measure_one_way
from repro.baselines.models import table2_presets

from benchmarks.perf.common import write_bench

SEED = 1

#: canonical cells of the Table 1/2 evaluation (name, fn, params)
CELLS = tuple(
    [(f"table1/{arch}", "table1.count", {"architecture": arch})
     for arch in ("semi_user", "user_level", "kernel_level")]
    + [(f"table2/{preset.name}", "table2.protocol",
        {"protocol": preset.name})
       for preset in table2_presets(DAWNING_3000)]
    + [("fig7/timeline", "timelines.fig", {"fig": "fig7"}),
       ("fig9/point-65536", "curves.point",
        {"nbytes": 65536, "intra": False})]
)


def _time_cell(name: str, fn: str, params: dict) -> dict:
    # Collect leftover cyclic garbage (generators, event graphs) from
    # the previous cell so a GC pause does not land inside this timing.
    gc.collect()
    wall = time.perf_counter()
    run_cell(fn, DAWNING_3000, **params)
    wall = time.perf_counter() - wall
    return {"name": name, "fn": fn, "params": params,
            "wall_s": round(wall, 6)}


def _telemetry_percentiles() -> dict:
    """Simulated latency percentiles from a telemetry-enabled run."""
    cluster = Cluster(n_nodes=2, trace=True, observers=("telemetry",))
    gc.collect()
    wall = time.perf_counter()
    sample = measure_one_way(cluster, 4096, repeats=8, warmup=2)
    wall = time.perf_counter() - wall
    hist = cluster.telemetry.latency_histogram
    return {
        "name": "telemetry/ping-pong-4096",
        "wall_s": round(wall, 6),
        "events": cluster.env.events_processed,
        "final_sim_ns": cluster.env.now,
        "samples": len(sample.samples_us),
        "latency_p50_us": round(hist.percentile(50) / 1000.0, 3),
        "latency_p99_us": round(hist.percentile(99) / 1000.0, 3),
    }


def run(out_path="BENCH_experiments.json") -> dict:
    results = [_time_cell(name, fn, params) for name, fn, params in CELLS]
    results.append(_telemetry_percentiles())
    return write_bench(
        out_path, "experiments",
        units={"wall_s": "seconds", "events": "count",
               "final_sim_ns": "simulated ns",
               "latency_p50_us": "simulated us",
               "latency_p99_us": "simulated us"},
        results=results, seed=SEED)


if __name__ == "__main__":
    doc = run()
    for r in doc["results"]:
        extra = ""
        if "latency_p50_us" in r:
            extra = (f"  p50 {r['latency_p50_us']} us"
                     f"  p99 {r['latency_p99_us']} us")
        print(f"{r['name']:32s} {r['wall_s']*1000:9.1f} ms{extra}")
