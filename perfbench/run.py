"""Host-cost benchmark of the simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload pingpong-paper --seed 1 \\
        --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``pingpong-paper`` - closed-loop BCL/MPI/PVM ping-pong on fresh 1- and
  2-node clusters (the paper's Table 3 / Figs 8-9 path);
* ``fabric-collectives`` - the 256-rank single-switch host barrier and
  the 1024-rank fat-tree NIC barrier cells of ext-scale;
* ``serve-open`` - open-loop RPC serving on 2 servers and 2 client
  ranks: Poisson below the knee, bursty MMPP in overload.

``--trace 0`` times the untouched program and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer profile and counts.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pingpong-paper", "fabric-collectives", "serve-open")


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} "
                         "is missing (run from a full checkout)")
    sys.path.insert(0, str(src))


def build_ops(workload: str, seed: int, small: bool = False):
    import workloads as w
    if workload == "pingpong-paper":
        return w.pingpong_ops(seed)
    if workload == "fabric-collectives":
        return w.fabric_ops(seed, small)
    return w.serve_ops(seed, small)


def check_anchors(ops, tally) -> float:
    """Check the paper bands on the ping-pong medians; return the
    largest relative error (%) of any anchor."""
    import workloads as w
    anchors = w.paper_anchors(ops)
    for a in anchors:
        ok = a["band"] is None or a["error_pct"] <= a["band"] * 100.0
        tally.record(ok, f"anchor {a['name']}: {a['sim']:.3f} vs paper "
                         f"{a['paper']} ({a['error_pct']:.2f}%)")
        print(f"anchor {a['name']:<20s} sim {a['sim']:9.3f}  paper "
              f"{a['paper']:7.1f}  error {a['error_pct']:5.2f}%"
              + ("" if a["band"] is None else
                 f"  (band {a['band'] * 100:.0f}%)"))
    return max(a["error_pct"] for a in anchors)


def paper_error(workload: str, seed: int, ops, tally, clock) -> float:
    """``paper_error_pct``: from the measured streams on pingpong-paper;
    elsewhere from one untimed round of the same streams after the run."""
    from harness import run_ops
    if workload != "pingpong-paper":
        ops = build_ops("pingpong-paper", seed)
        run_ops(ops, clock, tally, seconds=0.0)
    return check_anchors(ops, tally)


def report_outputs(workload: str, results: dict) -> None:
    """Human-readable simulated outputs of the last round."""
    import workloads as w
    for label, out in results.items():
        if workload == "fabric-collectives":
            print(f"{label}: {out['latency_us']} us simulated, "
                  f"{out['events']} events, bound by "
                  f"{out['bounding_stage']}")
        elif workload == "serve-open":
            n = out["completed_ok"]
            p = w.tail_percentile(n)
            tail = {99.9: out["p999_us"], 99.0: out["p99_us"],
                    50.0: out["p50_us"]}[p]
            print(f"{label}: ok {n}/{out['requests']}, shed "
                  f"{out['shed_server'] + out['shed_client']}, parks "
                  f"{out['admission_parks']}, p50 {out['p50_us']} us"
                  + (f", p{p:g} {tail} us" if p != 50.0 else "")
                  + f" ({n} latency samples; highest percentile with ten "
                    f"beyond it: p{p:g})")


def _remember_results(ops, results: dict):
    for op in ops:
        def run(op_run=op.run, label=op.label):
            out = op_run()
            results[label] = out
            return out
        op.run = run


def untraced(args) -> dict:
    from harness import (PhaseClock, Tally, op_cost, phase_costs,
                         probe_setups, run_ops)
    from hostspeed import REFERENCE_S, HostSpeed
    tally = Tally()
    ops = build_ops(args.workload, args.seed, args.small)
    results: dict = {}
    _remember_results(ops, results)
    host = HostSpeed()
    clock = PhaseClock(speed=host)
    with clock.installed():
        with host.sampling(clock):
            measured = run_ops(ops, clock, tally, args.seconds,
                               min_rounds=2)
            probe_setups(ops, clock, measured, tally)
        for label, values in measured.samples.items():
            op_setup, op_run = op_cost(values)
            print(f"op {label:<32s} setup {op_setup:.6f} s (median of "
                  f"{len(values)})  run {op_run:.6f} s (median of "
                  f"{sum(v[1] is not None for v in values)})")
        report_outputs(args.workload, results)
        error_pct = paper_error(args.workload, args.seed, ops, tally, clock)
    setup_s, run_s = phase_costs(measured.samples)
    print(f"host speed: reference kernel {len(host.samples)} samples, median "
          f"{host.kernel_s() * 1e3:.4f} ms against "
          f"{REFERENCE_S * 1e3:.4f} ms uncontended (each phase is scaled by "
          f"its own window)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (measured.first_round_rss_mb, "MiB"),
        "paper_error_pct": (error_pct, "%"),
    }
    return finish(tally, metrics)


def traced(args) -> dict:
    import harness
    import layers
    from repro.cluster import Cluster
    from repro.upper.eadi import EadiEndpoint
    tally = harness.Tally()
    started = time.perf_counter()
    # Untraced baseline round for the profiler's overhead factor.
    plain = harness.PhaseClock()
    with plain.installed():
        base = harness.run_ops(
            build_ops(args.workload, args.seed, args.small), plain,
            harness.Tally(), 0.0)
    _, base_run_s = harness.phase_costs(base.samples)

    counts = dict.fromkeys(COUNTS, 0)
    records = [0]
    profiles = layers.PhaseProfiles()
    clock = harness.PhaseClock(profiles)
    ops = build_ops(args.workload, args.seed, args.small)
    results: dict = {}
    _remember_results(ops, results)

    def on_new(obj):
        if isinstance(obj, Cluster):
            obj.tracer.add_listener(_trace_counter(records))

    with harness.collect_instances(Cluster, EadiEndpoint,
                                   on_new=on_new) as found:
        def harvest(check):
            def wrapped(out):
                _harvest(found, counts, out)
                return check(out)
            return wrapped

        for op in ops:
            op.check = harvest(op.check)
        with clock.installed():
            seconds = args.seconds - (time.perf_counter() - started)
            measured = harness.run_ops(ops, clock, tally, seconds)
    rounds = measured.rounds
    _, run_s = harness.phase_costs(measured.samples)
    build_stats, run_stats = layers.profile_stats(profiles)
    metrics: dict = {}
    calls = dict.fromkeys(layers.LAYERS, 0)
    for phase, stats in (("build", build_stats), ("run", run_stats)):
        self_s, n_calls = layers.charge(stats)
        for layer in layers.LAYERS:
            metrics[f"{phase}.{layer}.self_s"] = (self_s[layer] / rounds, "s")
            calls[layer] += n_calls[layer]
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / rounds, "count")
    for name, target in (("hw.route_walks", layers.ROUTE_WALK),
                         ("hw.packet_hops", layers.PACKET_HOP)):
        counts[name] = sum(layers.call_count(stats, target)
                           for stats in (build_stats, run_stats))
    counts["trace.records"] = records[0]
    lookups = counts.pop("_pindown_lookups")
    counts["kernel.pindown_hit_ratio"] = (
        counts.pop("_pindown_hits") / lookups if lookups else 0.0)
    ok, offered = counts.pop("_serve_ok"), counts.pop("_serve_offered")
    counts["serve.ok_ratio"] = ok / offered if offered else 0.0
    for name, value in counts.items():
        ratio = name.endswith("_ratio")
        metrics[name] = (value if ratio else value / rounds,
                         "ratio" if ratio else "count")
    metrics["profile.overhead_x"] = (
        run_s / base_run_s if base_run_s else 0.0, "x")
    for layer in layers.LAYERS:
        print(f"layer {layer:<10s} build "
              f"{metrics[f'build.{layer}.self_s'][0]:9.4f} s  run "
              f"{metrics[f'run.{layer}.self_s'][0]:9.4f} s  calls "
              f"{metrics[f'{layer}.calls'][0]:12.0f}")
    for phase in ("build", "run"):
        total = sum(metrics[f"{phase}.{layer}.self_s"][0]
                    for layer in layers.LAYERS)
        other = metrics[f"{phase}.other.self_s"][0]
        print(f"{phase}: other is {other:.4f} s of {total:.4f} s profiled "
              f"self time ({100 * other / total if total else 0:.1f}%)")
    print(f"profiled rounds: {rounds}; traced run {run_s:.3f} s vs "
          f"untraced {base_run_s:.3f} s")
    report_outputs(args.workload, results)
    return finish(tally, metrics)


#: simulated counts summed over every cluster/endpoint a traced run
#: builds (names starting with "_" are folded into ratios)
COUNTS = ("sim.events", "hw.switch_forwarded", "firmware.messages_sent",
          "firmware.retransmissions", "firmware.coll_packets",
          "kernel.traps", "upper.credit_stalls", "serve.parks",
          "serve.shed", "_pindown_hits", "_pindown_lookups",
          "_serve_ok", "_serve_offered")


def _harvest(found: dict, counts: dict, out) -> None:
    """Fold the finished op's clusters, endpoints and outputs into the
    counts, then drop them so a thousand-rank cluster is freed."""
    from repro.cluster import Cluster
    from repro.upper.eadi import EadiEndpoint
    for cluster in found[Cluster]:
        counts["sim.events"] += cluster.env.events_processed
        counts["kernel.traps"] += cluster.total_traps
        counts["firmware.retransmissions"] += cluster.total_retransmissions
        for node in cluster.nodes:
            pindown = node.kernel.pindown
            counts["_pindown_hits"] += pindown.hits
            counts["_pindown_lookups"] += pindown.hits + pindown.misses
        for mcp in cluster.mcps:
            counts["firmware.messages_sent"] += mcp.messages_sent
            counts["firmware.coll_packets"] += mcp.coll.packets
        counts["hw.switch_forwarded"] += sum(
            sw.packets_forwarded for sw in cluster.network.switches)
    for ep in found[EadiEndpoint]:
        counts["upper.credit_stalls"] += ep.credit_stalls
    if isinstance(out, dict) and "admission_parks" in out:
        counts["serve.parks"] += out["admission_parks"]
        counts["serve.shed"] += out["shed_server"] + out["shed_client"]
        counts["_serve_ok"] += out["completed_ok"]
        counts["_serve_offered"] += out["requests"]
    found[Cluster].clear()
    found[EadiEndpoint].clear()


def _trace_counter(records: list):
    def on_record(_rec) -> None:
        records[0] += 1
    return on_record


def finish(tally, metrics: dict) -> dict:
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced cluster and request counts, for the "
                             "self-test only (no exact references)")
    args = parser.parse_args(argv)
    _import_program()
    started = time.perf_counter()
    result = traced(args) if args.trace else untraced(args)
    print(f"wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
