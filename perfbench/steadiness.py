"""Steadiness record: repeat each workload over seeds and summarise.

    python3 perfbench/steadiness.py --runs 10 --sets 2 \\
        --out perfbench/steadiness.json [--workload NAME ...]

Runs ``perfbench/run.py`` (untraced) once per seed, seeds 1 to
``--runs`` in each set, and ``--sets`` independent sets of the same code one after
the other.  For every end-to-end metric of every workload it records
each set's median, quartiles (``statistics.quantiles(n=4)``), min and
max, the spread (quartile distance over the median) and, between sets,
how much the later median is worse than the first, each as a share.
The bounds in BENCHMARK.json are set from this record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 perfbench/steadiness.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=doc["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--out", help="write the record as JSON here")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in doc["workloads"]]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    record = {"seconds": args.seconds, "runs_per_set": args.runs,
              "workloads": {}}
    for name in names:
        sets = []
        for set_index in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + i
                started = time.perf_counter()
                out = one_run(name, seed, args.seconds)
                if not out["correct"]:
                    raise SystemExit(f"{name} seed {seed}: outputs not "
                                     f"correct: {out}")
                runs.append(out)
                print(f"{name} set {set_index} seed {seed}: "
                      + "  ".join(f"{k} {v['value']:.4f}"
                                  for k, v in out["metrics"].items())
                      + f"  ({time.perf_counter() - started:.0f} s)",
                      flush=True)
            sets.append({metric: summarise([r["metrics"][metric]["value"]
                                            for r in runs])
                         for metric in bounds})
        verdict = {}
        for metric, bound in bounds.items():
            first = sets[0][metric]["median"]
            drift = max((s[metric]["median"] - first) / first if first
                        else 0.0 for s in sets)
            spread = max(s[metric]["spread"] for s in sets)
            verdict[metric] = {"bound": bound, "max_spread": spread,
                               "max_drift": drift,
                               "spread_under_third": spread < bound / 3,
                               "drift_within_bound": drift <= bound}
            print(f"{name} {metric}: spread {spread:.4f} drift "
                  f"{drift:+.4f} bound {bound}", flush=True)
        record["workloads"][name] = {"sets": sets, "verdict": verdict}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
