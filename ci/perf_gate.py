#!/usr/bin/env python
"""Performance-trajectory gate for the BENCH_*.json artifacts.

Dispatches on the artifact's ``suite`` field.

**engine** — compares a fresh ``BENCH_engine.json`` against the
committed baseline under ``benchmarks/perf/baseline/`` and fails
(exit 1) when:

* any scenario's ``events_per_sec`` drops more than ``--tolerance``
  (default 20 %) below the baseline, or
* the ``churn`` scenario's ``calendar_vs_reference`` ratio — its
  events/sec over that of perfbench's frozen reference kernel, the
  scheduler-bound headline number — falls below ``--ratio-floor``
  (default 0.51).

Absolute events/sec is machine-dependent, so the drop check only fires
when the fresh run's metadata reports the same platform string as the
baseline (CI runners are homogeneous; a laptop comparing itself against
the CI baseline would be noise).  The ratio check is within-run — the
engine and the kernel execute on the same interpreter seconds apart —
and is enforced unconditionally.

**scale** — gates ``BENCH_scale.json`` (host vs NIC collectives on
thousand-rank fabrics) on *simulated* numbers, which are deterministic
and therefore machine-independent:

* every barrier point at >= 64 ranks with both policies present must
  show NIC latency at least ``--nic-advantage`` (default 1.5x) below
  the host dissemination barrier;
* NIC barrier growth must stay logarithmic-ish: each 4x rank step may
  grow latency at most ``--growth-ceiling`` (default 2.0x; linear
  growth would be 4x);
* any point also present in the baseline must reproduce its
  ``latency_us``, ``events`` and ``stage_table`` exactly — a drifted
  simulated latency, event count or stage total means the default-path
  behaviour changed, which is a parity break, not noise.

**serve** — gates ``BENCH_serve.json`` (RPC tier offered-load sweep)
on simulated numbers, also machine-independent:

* at every point present in both runs, goodput must stay within
  ``--tolerance`` (default 20 %) of the baseline in either direction —
  the tier is deterministic, so a drift means the serving or credit
  path changed behaviour;
* at the highest *pre-saturation* point (largest ``rho < 1.0``
  present in both), p99 latency must not regress more than
  ``--tolerance`` above the baseline.

Usage::

    python ci/perf_gate.py BENCH_engine.json [--baseline PATH]
        [--tolerance 0.20] [--ratio-floor 0.51]
    python ci/perf_gate.py BENCH_scale.json [--baseline PATH]
        [--nic-advantage 1.5] [--growth-ceiling 2.0]
    python ci/perf_gate.py BENCH_serve.json [--baseline PATH]
        [--tolerance 0.20]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(ROOT, "benchmarks", "perf", "baseline")
DEFAULT_BASELINE = os.path.join(BASELINE_DIR, "BENCH_engine.json")

# CI invokes this script without PYTHONPATH=src; the differ import for
# failure attribution needs the package on the path.
sys.path.insert(0, os.path.join(ROOT, "src"))


def _attribution(baseline_path: str, fresh_path: str,
                 metric: str | None) -> str | None:
    """One-line regression attribution from repro.telemetry.diff.

    Best-effort: the gate's own FAIL lines already carry the verdict,
    so a differ import/parse problem must not change the exit path.
    """
    try:
        from repro.telemetry.diff import diff_runs
        diff = diff_runs(baseline_path, fresh_path)
        return diff.attribution(metric=metric)
    except Exception:
        return None


def load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("schema", "suite", "meta", "results"):
        if key not in doc:
            raise SystemExit(f"{path}: missing required key {key!r}")
    return doc


#: scale-point outputs a baseline point must reproduce exactly
SCALE_EXACT = ("latency_us", "events", "stage_table")


def _gate_scale(fresh: dict, base: dict, args,
                failures: list[str]) -> None:
    """Simulated-latency checks for the scale suite (deterministic,
    so enforced regardless of platform)."""
    points = {(r["op"], r["topology"], r["n_ranks"], r["collectives"]): r
              for r in fresh["results"] if "latency_us" in r}

    # 1. NIC advantage at every >=64-rank barrier pair.
    pairs = sorted({(op, topo, n) for op, topo, n, _ in points
                    if op == "barrier"})
    compared = 0
    for op, topo, n in pairs:
        host = points.get((op, topo, n, "host"))
        nic = points.get((op, topo, n, "nic"))
        if host is None or nic is None:
            continue
        ratio = (host["latency_us"] / nic["latency_us"]
                 if nic["latency_us"] else float("inf"))
        line = (f"{op}/{topo}/{n}: host {host['latency_us']:.2f} us / "
                f"nic {nic['latency_us']:.2f} us = {ratio:.2f}x")
        if n >= 64:
            compared += 1
            if ratio < args.nic_advantage:
                failures.append(
                    f"NIC advantage {line} below the "
                    f"{args.nic_advantage:.2f}x floor")
            else:
                print(f"ok: {line}")
        else:
            print(f"note: {line} (below the 64-rank gate threshold)")
    if not compared:
        failures.append("no >=64-rank barrier host/nic pair to gate on")

    # 2. NIC barrier growth per 4x rank step stays logarithmic-ish.
    for topo in sorted({t for op, t, n, c in points if op == "barrier"
                        and c == "nic"}):
        sizes = sorted(n for op, t, n, c in points
                       if (op, t, c) == ("barrier", topo, "nic"))
        for small, big in zip(sizes, sizes[1:]):
            lo = points[("barrier", topo, small, "nic")]["latency_us"]
            hi = points[("barrier", topo, big, "nic")]["latency_us"]
            growth = hi / lo if lo else float("inf")
            line = (f"nic barrier {topo} {small}->{big} ranks: "
                    f"{growth:.2f}x latency growth")
            if growth > args.growth_ceiling:
                failures.append(f"{line} exceeds the "
                                f"{args.growth_ceiling:.2f}x ceiling")
            else:
                print(f"ok: {line}")

    # 3. Deterministic reproduction of the committed baseline.
    base_points = {r["name"]: r for r in base["results"]
                   if "latency_us" in r}
    for result in fresh["results"]:
        ref = base_points.get(result.get("name"))
        if ref is None:
            continue
        drifted = [key for key in SCALE_EXACT
                   if result.get(key) != ref.get(key)]
        for key in drifted:
            failures.append(
                f"simulated {key} drift in {result['name']}: "
                f"{result.get(key)} vs committed {ref.get(key)} — the "
                "default path changed; regenerate BENCH_scale.json "
                "deliberately")
        if not drifted:
            print(f"ok: {result['name']}: {result['latency_us']} us, "
                  f"{result['events']} events and the stage table == "
                  "baseline")


def _gate_serve(fresh: dict, base: dict, args,
                failures: list[str]) -> None:
    """Simulated goodput/tail checks for the serve suite (deterministic,
    so enforced regardless of platform)."""
    base_by_name = {r["name"]: r for r in base["results"]}
    shared = [r for r in fresh["results"] if r["name"] in base_by_name]
    if not shared:
        failures.append("no serve point shared with the baseline")
        return

    # 1. Goodput within tolerance of the baseline, both directions.
    for result in shared:
        ref = base_by_name[result["name"]]
        got, want = result["goodput_rps"], ref["goodput_rps"]
        drift = abs(got - want) / want if want else float("inf")
        line = (f"{result['name']}: goodput {got:,.0f} rps "
                f"(baseline {want:,.0f}, drift {drift:.1%})")
        if drift > args.tolerance:
            failures.append(f"goodput drift in {line} exceeds "
                            f"{args.tolerance:.0%}")
        else:
            print(f"ok: {line}")

    # 2. p99 at the highest pre-saturation load point must not regress.
    pre_sat = [r for r in shared if r.get("rho", 1.0) < 1.0]
    if not pre_sat:
        failures.append("no pre-saturation (rho < 1.0) serve point "
                        "shared with the baseline")
        return
    point = max(pre_sat, key=lambda r: r["rho"])
    ref = base_by_name[point["name"]]
    got, want = point["p99_us"], ref["p99_us"]
    ceiling = want * (1.0 + args.tolerance)
    line = (f"{point['name']}: p99 {got:,.1f} us "
            f"(baseline {want:,.1f}, ceiling {ceiling:,.1f})")
    if got > ceiling:
        failures.append(f"pre-saturation p99 regression in {line}")
    else:
        print(f"ok: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly produced BENCH_*.json")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline to compare against "
                             "(default: the same-named artifact under "
                             f"{BASELINE_DIR})")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional events/sec drop")
    parser.add_argument("--ratio-floor", type=float, default=0.51,
                        help="minimum calendar/reference ratio for "
                             "'churn'")
    parser.add_argument("--nic-advantage", type=float, default=1.5,
                        help="minimum host/nic barrier latency ratio "
                             "at >=64 ranks (scale suite)")
    parser.add_argument("--growth-ceiling", type=float, default=2.0,
                        help="maximum NIC barrier latency growth per "
                             "4x rank step (scale suite)")
    args = parser.parse_args(argv)

    fresh = load(args.fresh)
    if args.baseline is None:
        name = {"scale": "BENCH_scale.json",
                "serve": "BENCH_serve.json"}.get(fresh["suite"],
                                                 "BENCH_engine.json")
        args.baseline = os.path.join(BASELINE_DIR, name)
    base = load(args.baseline)
    failures: list[str] = []

    if fresh["suite"] in ("scale", "serve"):
        gate = _gate_scale if fresh["suite"] == "scale" else _gate_serve
        gate(fresh, base, args, failures)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            metric = "p99_us" if fresh["suite"] == "serve" \
                else "latency_us"
            line = _attribution(args.baseline, args.fresh, metric)
            if line:
                print(f"attribution: {line}", file=sys.stderr)
            return 1
        print("perf gate passed")
        return 0

    churn = fresh.get("calendar_vs_reference", {}).get("churn")
    if churn is None:
        failures.append(
            "fresh run has no calendar_vs_reference.churn ratio")
    elif churn < args.ratio_floor:
        failures.append(
            f"calendar/reference churn ratio {churn:.3f}x is below the "
            f"{args.ratio_floor:.3f}x floor")
    else:
        print(f"ok: calendar/reference churn ratio {churn:.3f}x "
              f">= {args.ratio_floor:.3f}x")

    same_platform = (fresh["meta"].get("platform")
                     == base["meta"].get("platform"))
    if not same_platform:
        print("note: platform differs from baseline "
              f"({fresh['meta'].get('platform')!r} vs "
              f"{base['meta'].get('platform')!r}); "
              "skipping absolute events/sec comparison")
    else:
        base_by_name = {r["name"]: r for r in base["results"]}
        for result in fresh["results"]:
            ref = base_by_name.get(result["name"])
            if ref is None or "events_per_sec" not in result:
                continue
            got, want = result["events_per_sec"], ref["events_per_sec"]
            floor = want * (1.0 - args.tolerance)
            line = (f"{result['name']}: {got:,.0f} events/s "
                    f"(baseline {want:,.0f}, floor {floor:,.0f})")
            if got < floor:
                failures.append(f"events/sec regression in {line}")
            else:
                print(f"ok: {line}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        metric = "events_per_sec"
        if churn is None or churn < args.ratio_floor:
            metric = "calendar_vs_reference/churn"
        line = _attribution(args.baseline, args.fresh, metric)
        if line:
            print(f"attribution: {line}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
