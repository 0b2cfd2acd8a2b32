"""Serving-tier trajectory: tail latency and goodput through saturation.

Drives the :mod:`repro.experiments.serve` cells through ``run_cell``
and records, per ``(arrivals, rho)`` point:

* the **simulated** service numbers — goodput, p50/p99/p99.9 tail
  latency, shed counts, admission parks, peak queue depth — all
  deterministic for a given seed, so the CI gate compares them against
  the committed baseline (goodput within tolerance, p99 not regressing
  at the pre-saturation point);
* wall-clock and events-processed, for the host-side cost trajectory,
  with ``gc_s`` — host seconds inside cyclic garbage collections over
  the whole point — ``retained_objects``/``retained_kib``, a census of
  the live objects as the run ends, and ``page_kib``, the bytes the
  cluster's physical memories store then
  (:class:`~benchmarks.perf.common.RunProbe`; timed out of ``wall_s``
  and ``gc_s``).  ``ci/perf_gate.py`` gates ``retained_kib`` and
  ``page_kib``.

The full sweep runs both arrival processes over loads crossing
saturation; ``--smoke`` keeps one pre-saturation and one overload
point (the CI serve-smoke gate).  Points are sized via
``REPRO_SERVE_REQUESTS`` so the suite stays in CI territory.
"""

from __future__ import annotations

import argparse
import gc
import os
import time

from repro.experiments.runner import run_cell

from benchmarks.perf.common import RunProbe, write_bench

SEED = 1

LOADS = (0.5, 0.8, 0.95, 1.1, 1.4)
ARRIVALS = ("poisson", "bursty")
SMOKE_POINTS = (("poisson", 0.8), ("poisson", 1.4))
#: requests per point unless REPRO_SERVE_REQUESTS overrides it
DEFAULT_REQUESTS = "800"


def _points(smoke: bool) -> list[tuple[str, float]]:
    if smoke:
        return list(SMOKE_POINTS)
    return [(arrivals, rho) for arrivals in ARRIVALS for rho in LOADS]


def _time_point(arrivals: str, rho: float) -> dict:
    gc.collect()
    with RunProbe() as probe:
        wall = time.perf_counter()
        payload = run_cell("serve.point", rho=rho, policy="round_robin",
                           arrivals=arrivals)
        wall = time.perf_counter() - wall - probe.census_s
    return {
        "name": f"{arrivals}/{rho}",
        "arrivals": arrivals, "rho": rho,
        "offered_rps": payload["offered_rps"],
        "goodput_rps": payload["goodput_rps"],
        "p50_us": payload["p50_us"],
        "p99_us": payload["p99_us"],
        "p999_us": payload["p999_us"],
        "completed_ok": payload["completed_ok"],
        "shed": payload["shed_server"] + payload["shed_client"],
        "admission_parks": payload["admission_parks"],
        "peak_queue": payload["peak_queue"],
        "bounding_stage": payload["bounding_stage"],
        "events": payload["events"],
        "wall_s": round(wall, 6),
        "gc_s": round(probe.gc_s, 6),
        "retained_objects": probe.retained_objects,
        "retained_kib": probe.retained_kib,
        "page_kib": probe.page_kib,
    }


def run(out_path="BENCH_serve.json", smoke: bool = False) -> dict:
    os.environ.setdefault("REPRO_SERVE_REQUESTS", DEFAULT_REQUESTS)
    results = [_time_point(*point) for point in _points(smoke)]
    return write_bench(
        out_path, "serve",
        units={"offered_rps": "requests/second (simulated)",
               "goodput_rps": "requests/second (simulated)",
               "p50_us": "simulated us", "p99_us": "simulated us",
               "p999_us": "simulated us", "events": "count",
               "wall_s": "seconds", "gc_s": "seconds",
               "retained_objects": "count", "retained_kib": "KiB",
               "page_kib": "KiB"},
        results=results, seed=SEED,
        extra={"smoke": smoke,
               "requests_per_point":
                   int(os.environ["REPRO_SERVE_REQUESTS"])})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.bench_serve",
        description="Serving-tier tail-latency/goodput trajectory.")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="output artifact path")
    parser.add_argument("--smoke", action="store_true",
                        help="two-point sweep (CI serve-smoke gate)")
    args = parser.parse_args(argv)
    doc = run(out_path=args.out, smoke=args.smoke)
    for r in doc["results"]:
        print(f"{r['name']:16s} goodput {r['goodput_rps']:10,.0f} rps  "
              f"p99 {r['p99_us']:9.1f} us  p99.9 {r['p999_us']:9.1f} us  "
              f"shed {r['shed']:4d}  (gc {r['gc_s']:.2f} s, "
              f"wall {r['wall_s']:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
