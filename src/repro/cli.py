"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``evaluate``   — regenerate the paper's tables/figures (+ ablations)
* ``latency``    — one-way latency for a message size and architecture
* ``bandwidth``  — bandwidth sweep over message sizes
* ``timeline``   — the 0-byte stage timeline (Figure 7 view)
* ``trace``      — run a traced message and dump a chrome://tracing JSON
* ``report``     — run a short workload and print the cluster report
* ``faults``     — run a fault-injected transfer and print the recovery
  summary (optionally dumping a trace with the fault markers)
* ``audit``      — run clean and faulted transfers with the runtime
  invariant auditor attached and print the checker summary
  (``--selftest`` proves each checker fires on a seeded violation)
* ``fuzz``       — seeded schedule-perturbation fuzzing: random
  workloads run under shuffled tie-break seeds and checked by
  differential delivery oracles (``--shrink`` minimizes failures to
  ready-to-commit regression tests)
* ``observe``    — run a telemetry-enabled ping-pong and print the
  message-lifecycle view: latency percentiles, the per-stage
  critical-path breakdown (Figure 7 per message), the top-K slowest
  messages, per-message drill-downs and a metrics dump
* ``scale``      — host vs NIC collectives (and congestion scenarios)
  on a chosen fabric at a chosen rank count: one scale-sweep point,
  with the critical-path stage table
* ``diff``       — regression attribution between two run ledgers (or
  BENCH_*.json perf artifacts): ranked per-stage and per-metric delta
  tables naming the stage whose share grew
* ``postmortem`` — render a flight-recorder ``postmortem-*.json``:
  last-K event timeline, spans open at death, metrics snapshot

Run artifacts: ``evaluate``, ``observe``, ``scale`` and ``serve`` all
take ``--ledger-out FILE`` to write a self-describing ``repro-run/1``
ledger for later ``repro diff``.  ``faults``, ``fuzz`` and ``serve``
take ``--recorder`` to ride the crash flight recorder along
(``REPRO_OBSERVERS=recorder`` does the same globally).
"""

from __future__ import annotations

import argparse
import os
import sys

import repro.cluster
from repro.cluster import Cluster
from repro.config import DAWNING_3000

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semi-User-Level Communication Architecture "
                    "(IPPS 2002) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="regenerate the paper evaluation")
    ev.add_argument("--no-ablations", action="store_true")
    ev.add_argument("--no-extensions", action="store_true")
    ev.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="run experiment cells on N worker processes")
    ev.add_argument("--only", action="append", metavar="NAME",
                    help="run only the named experiment (repeatable; "
                         "see --list)")
    ev.add_argument("--list", action="store_true",
                    help="list experiment names and exit")
    ev.add_argument("--no-cache", action="store_true",
                    help="recompute every cell, ignoring the run cache")
    ev.add_argument("--cache-dir", metavar="DIR", default=None,
                    help="run-cache directory ($REPRO_CACHE_DIR or "
                         ".repro-cache by default)")
    ev.add_argument("--audit", action="store_true",
                    help="attach the runtime invariant auditor to every "
                         "cluster (violations abort the run)")
    ev.add_argument("--ledger-out", metavar="FILE", default=None,
                    help="write a repro-run/1 ledger (stage table, "
                         "events, provenance) for later `repro diff`")

    lat = sub.add_parser("latency", help="one-way latency measurement")
    lat.add_argument("--bytes", type=int, default=0)
    lat.add_argument("--architecture", default="semi_user",
                     choices=["semi_user", "user_level", "kernel_level"])
    lat.add_argument("--intra-node", action="store_true")
    lat.add_argument("--repeats", type=int, default=3)

    bw = sub.add_parser("bandwidth", help="bandwidth sweep")
    bw.add_argument("--sizes", type=int, nargs="+",
                    default=[1024, 4096, 16384, 65536, 131072])
    bw.add_argument("--intra-node", action="store_true")

    sub.add_parser("timeline", help="0-byte stage timeline (Figure 7)")

    tr = sub.add_parser("trace", help="dump a chrome://tracing JSON")
    tr.add_argument("--output", default="bcl_trace.json")
    tr.add_argument("--bytes", type=int, default=4096)
    tr.add_argument("--message-id", type=int, default=None, metavar="N",
                    help="export only the records tagged with message N "
                         "(negative N indexes this run's messages from "
                         "the end, -1 = last)")

    rp = sub.add_parser("report", help="cluster utilisation report")
    rp.add_argument("--bytes", type=int, default=65536)
    rp.add_argument("--messages", type=int, default=8)

    fl = sub.add_parser("faults",
                        help="fault-injected transfer + recovery summary")
    fl.add_argument("--bytes", type=int, default=65536)
    fl.add_argument("--messages", type=int, default=8)
    fl.add_argument("--seed", type=int, default=1)
    fl.add_argument("--drop", type=float, default=0.05, metavar="RATE",
                    help="per-packet drop probability (default 0.05)")
    fl.add_argument("--corrupt", type=float, default=0.0, metavar="RATE")
    fl.add_argument("--duplicate", type=float, default=0.0, metavar="RATE")
    fl.add_argument("--reorder", type=float, default=0.0, metavar="RATE")
    fl.add_argument("--trace-output", metavar="FILE", default=None,
                    help="also dump a chrome://tracing JSON with the "
                         "injected faults as instant markers")
    fl.add_argument("--recorder", action="store_true",
                    help="ride the crash flight recorder along; a "
                         "failed run dumps postmortem-*.json")

    au = sub.add_parser("audit",
                        help="run audited transfers (clean + faulted) and "
                             "print the invariant-checker summary")
    au.add_argument("--bytes", type=int, default=65536)
    au.add_argument("--messages", type=int, default=8)
    au.add_argument("--seed", type=int, default=1)
    au.add_argument("--drop", type=float, default=0.05, metavar="RATE",
                    help="drop rate of the faulted phase (default 0.05)")
    au.add_argument("--selftest", action="store_true",
                    help="also inject one deliberate violation per "
                         "checker and confirm each raises AuditError")

    fz = sub.add_parser("fuzz",
                        help="schedule-perturbation fuzzing: random "
                             "workloads under shuffled tie-break seeds, "
                             "checked by differential delivery oracles")
    fz.add_argument("--seed", type=int, default=1,
                    help="campaign base seed; workload and schedule "
                         "seeds are derived from it (default 1)")
    fz.add_argument("--runs", type=int, default=50, metavar="K",
                    help="number of random workloads (default 50)")
    fz.add_argument("--schedules", type=int, default=5, metavar="N",
                    help="tie-break seeds per workload (default 5)")
    fz.add_argument("--max-ops", type=int, default=10,
                    help="max operations per workload (default 10)")
    fz.add_argument("--no-faults", action="store_true",
                    help="generate only fault-free workloads")
    fz.add_argument("--shrink", action="store_true",
                    help="delta-debug each failure to a minimal "
                         "reproducer and emit a regression test")
    fz.add_argument("--out", metavar="DIR", default=None,
                    help="write emitted regression tests here "
                         "(default: print to stdout)")
    fz.add_argument("--quiet", action="store_true",
                    help="suppress the per-workload progress line")
    fz.add_argument("--recorder", action="store_true",
                    help="ride the crash flight recorder along; each "
                         "oracle failure dumps postmortem-*.json")

    ob = sub.add_parser("observe",
                        help="telemetry-enabled ping-pong: latency "
                             "percentiles, per-stage critical paths, "
                             "slowest messages, metrics dump")
    ob.add_argument("--bytes", type=int, default=0,
                    help="payload size (default 0, the Figure 7 case)")
    ob.add_argument("--messages", type=int, default=4)
    ob.add_argument("--intra-node", action="store_true")
    ob.add_argument("--drop", type=float, default=0.0, metavar="RATE",
                    help="per-packet drop probability, to observe "
                         "go-back-N recovery anomalies (default 0)")
    ob.add_argument("--seed", type=int, default=1,
                    help="fault-plan seed when --drop is set")
    ob.add_argument("--top", type=int, default=0, metavar="K",
                    help="also list the K slowest messages")
    ob.add_argument("--message-id", type=int, default=None, metavar="N",
                    help="drill into message N: per-stage breakdown "
                         "plus the causal span tree (negative N indexes "
                         "this run's messages from the end, -1 = last)")
    ob.add_argument("--metrics", choices=["prom", "json"], default=None,
                    help="also dump the metrics registry")
    ob.add_argument("--spans-out", metavar="FILE", default=None,
                    help="write the run's chrome://tracing JSON with "
                         "flow arrows along each message's span tree")
    ob.add_argument("--ledger-out", metavar="FILE", default=None,
                    help="write a repro-run/1 ledger of this run for "
                         "later `repro diff`")

    sc = sub.add_parser("scale",
                        help="one scale-sweep point: host vs NIC "
                             "collective latency on a fabric, with "
                             "the critical-path stage table")
    sc.add_argument("--ranks", type=int, default=64,
                    help="rank count == node count (default 64)")
    sc.add_argument("--topology", default="fat_tree",
                    choices=["single_switch", "switch_tree", "mesh2d",
                             "fat_tree"])
    sc.add_argument("--op", default="barrier",
                    choices=["barrier", "allreduce"])
    sc.add_argument("--collectives", default=None,
                    choices=["host", "nic"],
                    help="run only one policy (default: both + speedup)")
    sc.add_argument("--congestion", action="append", metavar="SCENARIO",
                    choices=["incast", "hotspot", "permutation"],
                    help="also run a congestion scenario (repeatable)")
    sc.add_argument("--ledger-out", metavar="FILE", default=None,
                    help="write a repro-run/1 ledger of the measured "
                         "points for later `repro diff`")

    sv = sub.add_parser("serve",
                        help="serving-tier offered-load sweep: "
                             "p50/p99/p99.9 tail latency, goodput and "
                             "shed counts through saturation")
    sv.add_argument("--loads", default="0.5,0.8,0.95,1.1,1.4",
                    help="offered loads as fractions of nominal "
                         "capacity (comma-separated)")
    sv.add_argument("--servers", type=int, default=2)
    sv.add_argument("--clients", type=int, default=2,
                    help="client (load-generator) ranks")
    sv.add_argument("--workers", type=int, default=2,
                    help="worker processes per server")
    sv.add_argument("--queue-depth", type=int, default=32,
                    help="bounded request queue per server")
    sv.add_argument("--window", type=int, default=16,
                    help="max in-flight RPCs per client rank")
    sv.add_argument("--client-queue", type=int, default=16,
                    help="arrivals that may park for a window slot "
                         "before the client sheds them")
    sv.add_argument("--policy", default="round_robin",
                    choices=["round_robin", "least_loaded",
                             "consistent_hash"])
    sv.add_argument("--arrivals", default="poisson",
                    choices=["poisson", "bursty"])
    sv.add_argument("--requests", type=int, default=1000,
                    help="total requests per load point")
    sv.add_argument("--service-us", type=float, default=200.0,
                    help="mean service time per request")
    sv.add_argument("--service-dist", default="exp",
                    choices=["fixed", "exp", "pareto"])
    sv.add_argument("--seed", type=int, default=1)
    sv.add_argument("--stages", action="store_true",
                    help="also print the aggregate critical-path "
                         "stage table per load point")
    sv.add_argument("--metrics", choices=["prom", "json"], default=None,
                    help="also dump the telemetry metrics registry "
                         "(last load point)")
    sv.add_argument("--ledger-out", metavar="FILE", default=None,
                    help="write a repro-run/1 ledger of the last load "
                         "point for later `repro diff`")
    sv.add_argument("--recorder", action="store_true",
                    help="ride the crash flight recorder along; a "
                         "crashed load point dumps postmortem-*.json")

    df = sub.add_parser("diff",
                        help="regression attribution between two run "
                             "ledgers or BENCH_*.json artifacts: ranked "
                             "stage/metric deltas, bounding stage named")
    df.add_argument("run_a", help="baseline ledger or BENCH_*.json")
    df.add_argument("run_b", help="candidate ledger or BENCH_*.json")
    df.add_argument("--metric", metavar="NAME", default=None,
                    help="headline metric for the attribution line "
                         "(substring match, e.g. p99)")
    df.add_argument("--top", type=int, default=10,
                    help="rows per delta table (default 10)")
    df.add_argument("--max-stage-drift", type=float, default=None,
                    metavar="PCT",
                    help="exit 1 if any stage moved more than PCT%% of "
                         "run A's total stage time (CI noise gate)")

    pm = sub.add_parser("postmortem",
                        help="render a flight-recorder postmortem-*.json: "
                             "last-K timeline, open spans, metrics")
    pm.add_argument("file", help="postmortem-*.json to render")
    pm.add_argument("--last", type=int, default=20, metavar="K",
                    help="rows per timeline section (default 20)")
    return parser


def _cmd_evaluate(args) -> int:
    from repro.experiments.cache import RunCache
    from repro.experiments.runner import EXPERIMENTS, run_all
    if args.list:
        for experiment in EXPERIMENTS:
            print(f"{experiment.name:28s} {experiment.group}")
        return 0
    if args.audit:
        # Global switch, exported via REPRO_OBSERVERS so --jobs N worker
        # processes inherit it.  The auditor is a pure observer, so
        # audited results (and cache entries) are byte-identical.
        repro.cluster.enable("audit")
    cache = None if args.no_cache else RunCache(args.cache_dir)
    sink = {} if args.ledger_out else None
    try:
        results = run_all(include_ablations=not args.no_ablations,
                          include_extensions=not args.no_extensions,
                          jobs=args.jobs, cache=cache, only=args.only,
                          ledger_sink=sink)
    except ValueError as exc:
        print(f"repro evaluate: error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(result.format())
        print()
    if args.ledger_out:
        from repro.telemetry.ledger import make_ledger, write_ledger
        doc = make_ledger(
            "evaluate", cfg=DAWNING_3000,
            events=sink.get("events") or None,
            stages=sink.get("stages"),
            extra={"cells": sink.get("cells", 0),
                   "experiments": [r.experiment_id for r in results]})
        write_ledger(args.ledger_out, doc)
        print(f"wrote run ledger to {args.ledger_out}")
    return 0


def _cmd_latency(args) -> int:
    from repro.experiments.common import measure_architecture_latency
    from repro.instrument.measure import measure_one_way

    if args.intra_node:
        cluster = Cluster(n_nodes=1, architecture=args.architecture)
        try:
            value = measure_one_way(cluster, args.bytes,
                                    repeats=args.repeats).latency_us
        except ValueError as exc:   # kernel_level has no intra-node path
            print(f"repro latency: error: {exc}", file=sys.stderr)
            return 2
    else:
        value = measure_architecture_latency(args.architecture, args.bytes,
                                             repeats=args.repeats)
    where = "intra-node" if args.intra_node else args.architecture
    print(f"{args.bytes}-byte one-way latency ({where}): {value:.2f} us")
    return 0


def _cmd_bandwidth(args) -> int:
    from repro.instrument.measure import measure_one_way
    print(f"{'bytes':>9}  {'latency us':>11}  {'MB/s':>8}")
    for nbytes in args.sizes:
        sample = measure_one_way(Cluster(n_nodes=1 if args.intra_node else 2),
                                 nbytes, repeats=2, warmup=1)
        print(f"{nbytes:>9}  {sample.latency_us:>11.2f}  "
              f"{sample.bandwidth_mb_s:>8.1f}")
    return 0


def _cmd_timeline(_args) -> int:
    from repro.experiments.timelines import run_fig7
    print(run_fig7().format())
    return 0


def _cmd_trace(args) -> int:
    from repro.instrument.measure import measure_one_way
    from repro.telemetry.spans import write_chrome_trace
    cluster = Cluster(n_nodes=2, trace=True)
    measure_one_way(cluster, args.bytes, repeats=1, warmup=1)
    message_id = args.message_id
    if message_id is not None:
        mids = sorted({r.message_id for r in cluster.tracer.records
                       if r.message_id is not None})
        if message_id < 0 and -message_id <= len(mids):
            message_id = mids[message_id]
        if message_id not in mids:
            print(f"repro trace: error: no traced message "
                  f"{args.message_id} (have {mids})", file=sys.stderr)
            return 2
    count = write_chrome_trace(cluster.tracer, args.output,
                               message_id=message_id)
    scope = "" if message_id is None else f" for message {message_id}"
    print(f"wrote {count} trace events{scope} to {args.output} "
          "(open in chrome://tracing or Perfetto)")
    return 0


def _cmd_report(args) -> int:
    from repro.instrument.measure import measure_one_way
    from repro.instrument.report import cluster_report
    cluster = Cluster(n_nodes=2)
    measure_one_way(cluster, args.bytes, repeats=args.messages, warmup=1)
    print(cluster_report(cluster).format())
    return 0


def _with_recorder(args) -> frozenset[str]:
    """The global observer set, plus the flight recorder on
    ``--recorder``."""
    observers = repro.cluster.enabled()
    return observers | {"recorder"} if args.recorder else observers


def _cmd_faults(args) -> int:
    from repro.config import LOSSY_DAWNING
    from repro.faults import FaultPlan
    from repro.instrument.measure import measure_one_way
    from repro.instrument.recovery import RecoveryTracker, recovery_summary

    plan = FaultPlan(seed=args.seed, drop_rate=args.drop,
                     corrupt_rate=args.corrupt,
                     duplicate_rate=args.duplicate,
                     reorder_rate=args.reorder)
    cluster = Cluster(n_nodes=2, cfg=LOSSY_DAWNING, fault_plan=plan,
                      trace=(args.trace_output is not None
                             or args.recorder or None),
                      observers=_with_recorder(args))
    tracker = RecoveryTracker(cluster)
    try:
        sample = measure_one_way(cluster, args.bytes,
                                 repeats=args.messages, warmup=1)
    except BaseException as exc:
        from repro.telemetry.recorder import dump_on_failure
        path = dump_on_failure(f"faults: {type(exc).__name__}",
                               env=cluster.env, exc=exc, note=str(exc))
        if path:
            print(f"repro faults: postmortem written to {path}",
                  file=sys.stderr)
        raise
    print(f"plan: {plan.describe()}")
    print(f"{args.bytes}-byte one-way latency under faults: "
          f"{sample.latency_us:.2f} us "
          f"({sample.bandwidth_mb_s:.1f} MB/s goodput), payloads "
          f"{'intact' if sample.received_payloads_ok else 'CORRUPTED'}")
    for key, value in recovery_summary(cluster, tracker).items():
        shown = f"{value:.2f}" if isinstance(value, float) else value
        print(f"  {key:24s} {shown}")
    if args.trace_output is not None:
        from repro.telemetry.spans import write_chrome_trace
        count = write_chrome_trace(cluster.tracer, args.trace_output)
        print(f"wrote {count} trace events to {args.trace_output} "
              "(faults appear as instant markers)")
    return 0


def _audit_selftest() -> int:
    """One deliberate violation per checker; each must raise AuditError."""
    from repro.audit import AuditError, Auditor
    from repro.instrument.measure import measure_one_way
    from repro.sim import Environment, Event, Store

    failures = []

    def expect(name, fn):
        try:
            fn()
        except AuditError as exc:
            first = exc.violations[0]
            print(f"  {name:28s} PASS  ({first.layer}/{first.rule})")
        else:
            failures.append(name)
            print(f"  {name:28s} FAIL  (no AuditError raised)")

    def past_event():
        env = Environment()
        Auditor(env)
        env.now = 100
        ev = Event(env)
        ev._ok = True
        ev._value = None
        env._schedule_at(ev, 50)
        env.run()

    def orphaned_waiter():
        env = Environment()
        Auditor(env)
        store = Store(env)
        store.get()  # nobody ever waits on the getter
        env.run()

    def byte_conservation():
        cluster = Cluster(n_nodes=2)
        measure_one_way(cluster, 4096, repeats=1, warmup=0)
        senders = [s for mcp in cluster.mcps
                   for s in mcp._senders.values()]
        senders[0].bytes_registered += 1   # cook the ledger
        cluster.env.run()

    def pin_leak():
        cluster = Cluster(n_nodes=1)
        proc = cluster.spawn(0)
        vaddr = proc.space.alloc(8192)
        proc.space.pin(vaddr, 8192)        # never unpinned
        cluster.nodes[0].exit_process(proc.pid)

    def credit_overflow():
        cluster = Cluster(n_nodes=2)
        from repro.upper.job import run_spmd

        def tamper(ep):
            ep.eadi._credits[1 - ep.rank] = \
                ep.eadi._credits_initial + 5
            ep.eadi._release_credits(1 - ep.rank, 1)
            yield cluster.env.sleep(0)

        run_spmd(cluster, 2, tamper)

    def waiter_survives_teardown():
        cluster = Cluster(n_nodes=2)
        from repro.upper.job import run_spmd

        def leak(ep):
            ep.close()
            ep.eadi._credit_waiters[1 - ep.rank] = [Event(cluster.env)]
            yield cluster.env.sleep(0)
            return ep

        endpoints = run_spmd(cluster, 2, leak)   # keep endpoints alive
        assert endpoints
        cluster.auditor.check_quiesce()

    repro.cluster.enable("audit")
    try:
        print("auditor selftest (each case must raise AuditError):")
        expect("sim/past-event", past_event)
        expect("sim/orphaned-waiter", orphaned_waiter)
        expect("firmware/byte-conservation", byte_conservation)
        expect("kernel/pin-leak", pin_leak)
        expect("bcl/credit-overflow", credit_overflow)
        expect("bcl/waiter-teardown", waiter_survives_teardown)
    finally:
        repro.cluster.disable("audit")
    if failures:
        print(f"selftest FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("selftest PASS: all checkers fire")
    return 0


def _cmd_audit(args) -> int:
    from repro.config import LOSSY_DAWNING
    from repro.faults import FaultPlan
    from repro.instrument.measure import measure_one_way

    repro.cluster.enable("audit")
    try:
        for label, kwargs in (
                ("clean", {}),
                ("faulted", {"cfg": LOSSY_DAWNING,
                             "fault_plan": FaultPlan(
                                 seed=args.seed, drop_rate=args.drop)})):
            cluster = Cluster(n_nodes=2, **kwargs)
            sample = measure_one_way(cluster, args.bytes,
                                     repeats=args.messages, warmup=1)
            cluster.env.run()   # drain to quiesce: conservation checks
            report = cluster.auditor.report()
            print(f"{label}: {args.messages} x {args.bytes} B  "
                  f"{sample.latency_us:.2f} us  payloads "
                  f"{'intact' if sample.received_payloads_ok else 'BAD'}")
            for key, value in report.items():
                print(f"  {key:20s} {value}")
        print("audit: zero violations")
    finally:
        repro.cluster.disable("audit")
    if args.selftest:
        return _audit_selftest()
    return 0


def _cmd_fuzz(args) -> int:
    import os

    from repro.fuzz import emit_regression_test, run_campaign

    def progress(index, spec, failure):
        if args.quiet:
            return
        verdict = "ok" if failure is None else f"FAIL[{failure.oracle}]"
        print(f"  [{index + 1:3d}/{args.runs}] {spec.describe():72s} "
              f"{verdict}")

    print(f"fuzz: seed={args.seed} runs={args.runs} "
          f"schedules={args.schedules} max-ops={args.max_ops}"
          f"{' (fault-free)' if args.no_faults else ''}")
    if args.recorder:
        repro.cluster.enable("recorder")
    try:
        result = run_campaign(args.seed, args.runs,
                              n_schedules=args.schedules,
                              max_ops=args.max_ops,
                              allow_faults=not args.no_faults,
                              shrink=args.shrink,
                              progress=progress)
    finally:
        if args.recorder:
            repro.cluster.disable("recorder")
    mix = ", ".join(f"{layer} x{count}"
                    for layer, count in sorted(result.by_layer.items()))
    print(f"fuzz: {result.checked} workloads checked ({mix}) under "
          f"tie-break seeds {list(result.schedule_seeds)}")
    if result.ok:
        print("fuzz: all oracles passed")
        return 0
    for failure in result.failures:
        print(f"fuzz: {failure.describe()}")
    for index, shrunk in enumerate(result.shrunk):
        name = f"fuzz_seed{args.seed}_case{index}"
        print(f"fuzz: shrunk to {len(shrunk.spec.ops)} ops in "
              f"{shrunk.evals} evals: {shrunk.spec.describe()}")
        source = emit_regression_test(shrunk, name)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"test_{name}.py")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            print(f"fuzz: regression test written to {path}")
        else:
            print("fuzz: regression test source:\n")
            print(source)
    print(f"fuzz: {len(result.failures)} workload(s) failed")
    return 1


def _cmd_observe(args) -> int:
    from repro.telemetry.observe import (
        render_drilldown,
        render_summary,
        render_top,
        run_ping_pong,
    )
    from repro.telemetry.spans import write_chrome_trace

    cluster, _sample = run_ping_pong(nbytes=args.bytes,
                                     messages=args.messages,
                                     intra_node=args.intra_node,
                                     drop=args.drop, seed=args.seed)
    session = cluster.telemetry
    print(render_summary(session, args.bytes))
    if args.top:
        print()
        print(render_top(session, args.top))
    if args.message_id is not None:
        mids = session.message_ids()
        mid = args.message_id
        if mid < 0:                     # index this run's messages
            if -mid <= len(mids):
                mid = mids[mid]
        if mid not in mids:
            print(f"repro observe: error: no traced message "
                  f"{args.message_id} (have {mids})", file=sys.stderr)
            return 2
        print()
        print(render_drilldown(session, mid))
    if args.spans_out is not None:
        count = write_chrome_trace(cluster.tracer, args.spans_out,
                                   flows=session.span_trees())
        print(f"\nwrote {count} span events to {args.spans_out} "
              "(flow arrows link the lifecycle hops)")
    if args.ledger_out is not None:
        from repro.telemetry.ledger import write_ledger
        write_ledger(args.ledger_out,
                     session.to_ledger("observe", seed=args.seed))
        print(f"wrote run ledger to {args.ledger_out}")
    if args.metrics == "prom":
        print()
        print(session.registry.render_prometheus(), end="")
    elif args.metrics == "json":
        print()
        print(session.registry.to_json())
    return 0


def _cmd_scale(args) -> int:
    from repro.experiments.scale import (measure_congestion_point,
                                         measure_scale_point)

    policies = [args.collectives] if args.collectives else ["host", "nic"]
    points = {}
    for policy in policies:
        p = measure_scale_point(n_ranks=args.ranks,
                                topology=args.topology,
                                collectives=policy, op=args.op)
        points[policy] = p
        print(f"{args.op} x {args.ranks} ranks on {args.topology} "
              f"({policy}): {p['latency_us']:.2f} us "
              f"[{p['events']:,} events]")
        for stage, us in p["stage_table"][:6]:
            marker = "  <- bounding" if stage == p["bounding_stage"] \
                else ""
            print(f"  {stage:<14s} {us:10.2f} us{marker}")
    if len(points) == 2 and points["nic"]["latency_us"]:
        speedup = (points["host"]["latency_us"]
                   / points["nic"]["latency_us"])
        print(f"NIC offload speedup: {speedup:.2f}x")
    for scenario in args.congestion or ():
        p = measure_congestion_point(n_ranks=args.ranks,
                                     topology=args.topology,
                                     scenario=scenario)
        print(f"{scenario} x {args.ranks} ranks on {args.topology}: "
              f"{p['elapsed_us']:.2f} us, {p['bandwidth_mb_s']:.1f} MB/s "
              f"aggregate, tail spread {p['tail_spread_us']:.2f} us")
    if args.ledger_out:
        from repro.telemetry.ledger import (
            fold_stage_rows,
            make_ledger,
            write_ledger,
        )
        stages: dict[str, int] = {}
        events = 0
        for p in points.values():
            fold_stage_rows(stages, p.get("stage_table"))
            events += int(p.get("events", 0))
        doc = make_ledger(
            "scale", cfg=DAWNING_3000, events=events or None,
            stages=stages,
            extra={"n_ranks": args.ranks, "topology": args.topology,
                   "op": args.op,
                   "latency_us": {policy: p["latency_us"]
                                  for policy, p in points.items()}})
        write_ledger(args.ledger_out, doc)
        print(f"wrote run ledger to {args.ledger_out}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_serve
    from repro.telemetry.critical_path import StageFold

    scfg = ServeConfig(n_servers=args.servers,
                       n_client_ranks=args.clients,
                       workers=args.workers,
                       queue_depth=args.queue_depth,
                       window=args.window,
                       client_queue=args.client_queue,
                       policy=args.policy,
                       arrivals=args.arrivals,
                       requests=args.requests,
                       service_us=args.service_us,
                       service_dist=args.service_dist,
                       seed=args.seed)
    try:
        scfg.validate()
        loads = [float(tok) for tok in args.loads.split(",") if tok.strip()]
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    print(f"{scfg.n_servers} servers x {scfg.workers} workers "
          f"(queue {scfg.queue_depth}), {scfg.n_client_ranks} client "
          f"ranks (window {scfg.window} + {scfg.client_queue} parked), "
          f"policy {scfg.policy}, {scfg.arrivals} arrivals, "
          f"capacity {scfg.capacity_rps:,.0f} rps")
    header = (f"{'rho':>5s} {'offered':>10s} {'goodput':>10s} "
              f"{'p50_us':>9s} {'p99_us':>9s} {'p99.9_us':>9s} "
              f"{'ok':>6s} {'shed_s':>6s} {'shed_c':>6s} {'parks':>6s} "
              f"{'stalls':>6s}")
    print(header)
    print("-" * len(header))
    session = None
    observers = _with_recorder(args)
    if args.metrics or args.ledger_out:
        observers |= {"telemetry"}
    for rho in loads:
        cluster = Cluster(n_nodes=scfg.n_servers + scfg.n_client_ranks,
                          trace=args.stages or None, observers=observers)
        agg = None
        if args.stages:
            agg = StageFold(cluster.tracer)
            agg.armed = True
        report = run_serve(scfg, rho, cluster=cluster)
        fmt = lambda v: f"{v:9.1f}" if v is not None else f"{'-':>9s}"
        print(f"{rho:5.2f} {report.offered_rps:10,.0f} "
              f"{report.goodput_rps:10,.0f} {fmt(report.p50_us)} "
              f"{fmt(report.p99_us)} {fmt(report.p999_us)} "
              f"{report.completed_ok:6d} {report.shed_server:6d} "
              f"{report.shed_client:6d} {report.admission_parks:6d} "
              f"{report.credit_stalls:6d}")
        if agg is not None:
            table = agg.table()
            for stage, us in table[:6]:
                marker = "  <- bounding" if table and stage == table[0][0] \
                    else ""
                print(f"      {stage:<14s} {us:12.2f} us{marker}")
        session = cluster.telemetry
    if args.metrics and session is not None:
        print()
        if args.metrics == "prom":
            print(session.registry.render_prometheus(), end="")
        else:
            print(session.registry.to_json())
    if args.ledger_out and session is not None:
        from repro.telemetry.ledger import write_ledger
        write_ledger(args.ledger_out,
                     session.to_ledger(
                         "serve", seed=scfg.seed,
                         extra={"loads": loads,
                                "policy": scfg.policy,
                                "arrivals": scfg.arrivals}))
        print(f"wrote run ledger to {args.ledger_out}")
    return 0


def _cmd_diff(args) -> int:
    from repro.telemetry.diff import diff_runs

    try:
        diff = diff_runs(args.run_a, args.run_b)
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro diff: error: {exc}", file=sys.stderr)
        return 2
    print(diff.render(top=args.top))
    if args.metric:
        print()
        print(diff.attribution(metric=args.metric))
    if args.max_stage_drift is not None:
        drift = diff.max_stage_drift_pct
        if drift > args.max_stage_drift:
            print(f"FAIL: stage drift {drift:.1f}% exceeds the "
                  f"{args.max_stage_drift:g}% ceiling "
                  f"(top stage: {diff.top_stage})", file=sys.stderr)
            return 1
        print(f"ok: max stage drift {drift:.1f}% within the "
              f"{args.max_stage_drift:g}% ceiling")
    return 0


def _cmd_postmortem(args) -> int:
    from repro.telemetry.recorder import load_postmortem, render_postmortem

    try:
        doc = load_postmortem(args.file)
    except (OSError, ValueError) as exc:
        print(f"repro postmortem: error: {exc}", file=sys.stderr)
        return 2
    print(render_postmortem(doc, last=args.last))
    return 0


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "latency": _cmd_latency,
    "bandwidth": _cmd_bandwidth,
    "timeline": _cmd_timeline,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "faults": _cmd_faults,
    "audit": _cmd_audit,
    "fuzz": _cmd_fuzz,
    "observe": _cmd_observe,
    "scale": _cmd_scale,
    "serve": _cmd_serve,
    "diff": _cmd_diff,
    "postmortem": _cmd_postmortem,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
