"""The ``repro observe`` workload runner and report renderer.

Runs a telemetry-enabled ping-pong on a fresh cluster of any
architecture (optionally under a seeded fault plan) and renders the
operator's view of it: a latency summary (exact p50/p95/p99 from the
metrics registry), the aggregate per-stage critical-path breakdown
(the per-message Figure 7), the top-K slowest messages with their
bounding stage and anomaly flags, per-message drill-downs, and the
cluster utilisation report (every component's tallies, read from the
session's metrics registry).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.sim.time import ns_to_us
from repro.telemetry.critical_path import FIGURE7_STAGES, CriticalPathReport
from repro.telemetry.session import TelemetrySession

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.instrument.measure import LatencySample

__all__ = ["PingPong", "run_ping_pong", "render_summary", "render_top",
           "render_drilldown", "render_report"]


class PingPong(NamedTuple):
    """One observed ping-pong.  The telemetry session is
    ``cluster.telemetry``; ``recovery`` is the go-back-N recovery
    summary of a faulted run (``None`` without ``drop``)."""

    cluster: "Cluster"
    sample: "LatencySample"
    recovery: Optional[dict]


def run_ping_pong(nbytes: int = 0, messages: int = 4,
                  intra_node: bool = False, drop: float = 0.0,
                  seed: int = 1, architecture: str = "semi_user",
                  recorder: bool = False) -> PingPong:
    """A telemetry-enabled 2-node (or intra-node) ping-pong on a fresh
    cluster of ``architecture``: one warm-up, then ``messages``
    measured messages.

    ``drop`` > 0 runs on the lossy cost model under a seeded
    :class:`~repro.faults.FaultPlan` with a recovery tracker attached.
    ``recorder`` rides the flight recorder along; a run that raises
    dumps its postmortem first.  A route ``architecture`` cannot carry
    raises ``ValueError`` before anything is simulated.
    """
    from repro.baselines import library_for
    from repro.cluster import Cluster, enabled
    from repro.firmware.packet import ChannelKind
    from repro.instrument.measure import measure_one_way

    library_for(architecture).check_route(0, 0 if intra_node else 1,
                                          ChannelKind.NORMAL)
    kwargs = {}
    if drop > 0.0:
        from repro.config import LOSSY_DAWNING
        from repro.faults import FaultPlan
        kwargs = {"cfg": LOSSY_DAWNING,
                  "fault_plan": FaultPlan(seed=seed, drop_rate=drop)}
    observers = enabled() | {"telemetry"}
    if recorder:
        observers |= {"recorder"}
    cluster = Cluster(n_nodes=1 if intra_node else 2,
                      architecture=architecture, observers=observers,
                      **kwargs)
    tracker = None
    if drop > 0.0:
        from repro.instrument.recovery import (RecoveryTracker,
                                               recovery_summary)
        tracker = RecoveryTracker(cluster)
    try:
        sample = measure_one_way(cluster, nbytes, repeats=messages,
                                 warmup=1)
    except BaseException as exc:
        from repro.telemetry.recorder import dump_on_failure
        dump_on_failure(f"observe: {type(exc).__name__}", env=cluster.env,
                        exc=exc, note=str(exc))
        raise
    recovery = None
    if tracker is not None:
        # Drain the trailing acks first: an episode whose retransmission
        # arrived but whose ack has not yet advanced the sender's base
        # would otherwise read as unrecovered.
        cluster.env.run()
        recovery = recovery_summary(cluster, tracker)
    return PingPong(cluster, sample, recovery)


def _ordered_stages(reports: list[CriticalPathReport]) -> list[str]:
    """Figure-7 canonical order first, then extras by appearance."""
    seen: list[str] = []
    for report in reports:
        for share in report.stages:
            if share.stage not in seen:
                seen.append(share.stage)
    ordered = [s for s in FIGURE7_STAGES if s in seen]
    ordered += [s for s in seen if s not in ordered]
    return ordered


def render_summary(session: TelemetrySession, nbytes: int) -> str:
    """Latency distribution + aggregate critical-path breakdown."""
    hist = session.latency_histogram
    reports = session.reports()
    lines = [f"observe: {hist.count} message lifecycles, {nbytes} B payload"]
    if hist.count:
        lines.append(
            f"  one-way latency  p50 {ns_to_us(hist.p50):8.3f} us   "
            f"p95 {ns_to_us(hist.p95):8.3f} us   "
            f"p99 {ns_to_us(hist.p99):8.3f} us")
    if not reports:
        lines.append("  (no traced messages)")
        return "\n".join(lines)
    lines.append("")
    lines.append("critical path (aggregate across messages):")
    lines.append(f"  {'stage':<14s} {'mean us':>9s} {'total us':>9s} "
                 f"{'share':>6s}")
    total_all = sum(r.total_ns for r in reports)
    bounding_votes: dict[str, int] = {}
    for report in reports:
        stage = report.bounding_stage
        if stage is not None:
            bounding_votes[stage] = bounding_votes.get(stage, 0) + 1
    for stage in _ordered_stages(reports):
        ns_values = [r.stage_ns(stage) for r in reports]
        total_ns = sum(ns_values)
        mean_us = ns_to_us(total_ns) / len(reports)
        share = total_ns / total_all if total_all else 0.0
        lines.append(f"  {stage:<14s} {mean_us:9.3f} "
                     f"{ns_to_us(total_ns):9.3f} {100 * share:5.1f}%")
    if bounding_votes:
        top = max(sorted(bounding_votes), key=lambda s: bounding_votes[s])
        lines.append(f"  bounding stage: {top} "
                     f"(bounded {bounding_votes[top]}/{len(reports)} "
                     "messages)")
    anomalies = [(r.message_id, a) for r in reports for a in r.anomalies]
    if anomalies:
        lines.append("anomalies:")
        for mid, anomaly in anomalies:
            lines.append(f"  message {mid}: {anomaly}")
    return "\n".join(lines)


def render_top(session: TelemetrySession, k: int) -> str:
    """The K slowest messages, slowest first."""
    lines = [f"top {k} slowest messages:",
             f"  {'id':>6s} {'total us':>9s}  {'bounding stage':<14s} "
             "anomalies"]
    for report in session.top_slowest(k):
        flags = "; ".join(report.anomalies) or "-"
        lines.append(f"  {report.message_id:>6d} {report.total_us:9.3f}  "
                     f"{report.bounding_stage or '-':<14s} {flags}")
    return "\n".join(lines)


def render_drilldown(session: TelemetrySession, message_id: int) -> str:
    """Per-stage breakdown + span tree of one message."""
    report = session.critical_path(message_id)
    lines = [report.format()]
    lines.append("span tree:")
    root = session.span_tree(message_id)
    origin = root.start_ns
    for span in root.walk():
        depth = span.span_id.count(".")
        label = span.component or span.name
        if span.parent_id is not None and span.component:
            label = span.name if depth >= 2 else span.component
        lines.append(
            f"  {'  ' * depth}[{ns_to_us(span.start_ns - origin):8.3f} -> "
            f"{ns_to_us(span.end_ns - origin):8.3f} us] {label}"
            + (f"  ({span.layer})" if span.layer else ""))
    return "\n".join(lines)


def render_report(session: TelemetrySession) -> str:
    """Where the microseconds went, per component: CPU busy time, PCI
    traffic, traps and interrupts, pin-down and NIC tallies per node,
    then the busiest link.  Every count is read from the registry."""
    cluster = session.cluster
    registry = session.registry

    def n(name: str, **labels) -> int:
        return int(registry.total(name, **labels))

    elapsed_us = ns_to_us(cluster.env.now)
    lines = [f"cluster report @ t={elapsed_us:,.1f} us"]
    for node in cluster.nodes:
        host = {"node": str(node.node_id)}
        nic = {"nic": str(node.node_id)}
        bus = {"bus": node.pci.name}
        cpus = ", ".join(
            f"{ns_to_us(n('repro_cpu_busy_ns', cpu=cpu.name)):,.1f}"
            for cpu in node.cpus)
        retx = n("repro_retransmissions_total", **nic)
        dup, ooo, crc = (n("repro_recv_drops_total", reason=reason, **nic)
                         for reason in ("duplicate", "out_of_order",
                                        "corrupt"))
        lines.append(
            f"  node{node.node_id}: cpu busy us [{cpus}] | pio w/r "
            f"{n('repro_pci_pio_words_total', op='write', **bus)}/"
            f"{n('repro_pci_pio_words_total', op='read', **bus)} | "
            f"dma {n('repro_pci_dma_bytes_total', **bus)} B | "
            f"traps {n('repro_traps_total', **host)} "
            f"(s{n('repro_traps_send_path_total', **host)}/"
            f"r{n('repro_traps_recv_path_total', **host)}) | "
            f"irq {n('repro_interrupts_total', **host)}")
        lines.append(
            f"         pindown h/m/e {n('repro_pindown_hits_total', **host)}/"
            f"{n('repro_pindown_misses_total', **host)}/"
            f"{n('repro_pindown_evictions_total', **host)} | "
            f"nic sent/recv {n('repro_mcp_messages_sent_total', **nic)}/"
            f"{n('repro_mcp_messages_delivered_total', **nic)} | "
            f"retx {retx} | drops sys "
            f"{n('repro_nic_system_pool_drops_total', **nic)} unready "
            f"{n('repro_nic_unready_drops_total', **nic)}")
        if retx or dup or ooo or crc:
            lines.append(
                f"         recovery: fast-retx "
                f"{n('repro_fast_retransmits_total', **nic)} | timeouts "
                f"{n('repro_retransmit_timeouts_total', **nic)} | rx drops "
                f"dup {dup} ooo {ooo} crc {crc}")
    links = [link.name for link in cluster.network.links]
    if links:
        busiest = max(links, key=lambda link: n("repro_link_busy_ns",
                                                link=link))
        busy_us = max(ns_to_us(n("repro_link_direction_busy_ns",
                                 link=busiest, direction=direction))
                      for direction in ("a_to_b", "b_to_a"))
        faults = n("repro_faults_injected_total", link=busiest)
        faulted = f", {faults} faults injected" if faults else ""
        lines.append(
            f"  busiest link: {busiest} "
            f"({busy_us / elapsed_us if elapsed_us > 0 else 0.0:.1%} "
            f"utilised, "
            f"{n('repro_link_packets_total', link=busiest, outcome='carried')}"
            f" packets, "
            f"{n('repro_link_packets_total', link=busiest, outcome='dropped')}"
            f" dropped{faulted})")
    return "\n".join(lines)
