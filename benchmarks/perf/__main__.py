"""Run both benchmark suites: ``PYTHONPATH=src:. python -m benchmarks.perf``.

Writes ``BENCH_engine.json``, ``BENCH_experiments.json`` and
``BENCH_scale.json`` into ``--out-dir`` (default: the current
directory).  Pass ``--suite`` to run a subset.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from benchmarks.perf import bench_engine, bench_experiments, bench_scale

SUITES = {
    "engine": (bench_engine, "BENCH_engine.json"),
    "experiments": (bench_experiments, "BENCH_experiments.json"),
    # The scale suite sweeps to 1024 ranks (minutes of wall time); CI's
    # perf-smoke pins --suite engine --suite experiments and the
    # scale-smoke job runs bench_scale --smoke instead.
    "scale": (bench_scale, "BENCH_scale.json"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Run the tracked performance trajectory suites.")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for the BENCH_*.json artifacts")
    parser.add_argument("--suite", choices=sorted(SUITES), action="append",
                        help="run only this suite (repeatable; "
                             "default: all)")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.suite or sorted(SUITES):
        module, filename = SUITES[name]
        out = args.out_dir / filename
        doc = module.run(out_path=out)
        print(f"[{name}] wrote {out} ({len(doc['results'])} results)")
        if name == "engine":
            for scenario, ratio in doc["calendar_vs_reference"].items():
                print(f"[{name}] calendar/reference {scenario}: "
                      f"{ratio:.3f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
