"""Utilization and accounting reports over a finished simulation.

Turns the counters every component keeps (CPU busy time, PCI PIO/DMA
traffic, link occupancy, NIC flow statistics, kernel trap tallies) into
a cluster-wide report — the "where did the microseconds go" view that
complements the per-message stage timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.instrument.counters import ReliabilityCounters
from repro.sim.time import ns_to_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

__all__ = ["ClusterReport", "cluster_report"]


@dataclass
class NodeReport:
    node_id: int
    cpu_busy_us: list[float]
    pio_words_written: int
    pio_words_read: int
    dma_bytes: int
    traps: int
    traps_send: int
    traps_recv: int
    interrupts: int
    pindown_hits: int
    pindown_misses: int
    pindown_evictions: int
    nic_messages_sent: int
    nic_messages_delivered: int
    nic_retransmissions: int
    nic_fast_retransmits: int
    nic_retransmit_timeouts: int
    nic_duplicate_drops: int
    nic_out_of_order_drops: int
    nic_corrupt_drops: int
    nic_tlb_hits: int
    nic_tlb_misses: int
    system_channel_drops: int
    unready_channel_drops: int

    def cpu_utilisation(self, elapsed_us: float) -> float:
        """Mean busy fraction across the node's CPUs over ``elapsed_us``."""
        if elapsed_us <= 0:
            return 0.0
        return sum(self.cpu_busy_us) / (len(self.cpu_busy_us) * elapsed_us)


@dataclass
class LinkReport:
    name: str
    busy_us_a_to_b: float
    busy_us_b_to_a: float
    packets: int
    dropped: int
    injected_faults: int = 0   # adjudicated drops/corruptions/dups/reorders


@dataclass
class ClusterReport:
    elapsed_us: float
    nodes: list[NodeReport] = field(default_factory=list)
    links: list[LinkReport] = field(default_factory=list)

    def node(self, node_id: int) -> NodeReport:
        return self.nodes[node_id]

    @property
    def total_traps(self) -> int:
        return sum(n.traps for n in self.nodes)

    @property
    def total_retransmissions(self) -> int:
        return sum(n.nic_retransmissions for n in self.nodes)

    @property
    def busiest_link(self) -> LinkReport:
        if not self.links:
            raise ValueError("cluster has no links")
        return max(self.links, key=lambda l: l.busy_us_a_to_b
                   + l.busy_us_b_to_a)

    def link_utilisation(self, link: LinkReport) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return max(link.busy_us_a_to_b, link.busy_us_b_to_a) \
            / self.elapsed_us

    def format(self) -> str:
        lines = [f"cluster report @ t={self.elapsed_us:,.1f} us"]
        for node in self.nodes:
            cpus = ", ".join(f"{b:,.1f}" for b in node.cpu_busy_us)
            lines.append(
                f"  node{node.node_id}: cpu busy us [{cpus}] | "
                f"pio w/r {node.pio_words_written}/{node.pio_words_read} | "
                f"dma {node.dma_bytes} B | traps {node.traps} "
                f"(s{node.traps_send}/r{node.traps_recv}) | "
                f"irq {node.interrupts}")
            lines.append(
                f"         pindown h/m/e {node.pindown_hits}/"
                f"{node.pindown_misses}/{node.pindown_evictions} | "
                f"nic sent/recv {node.nic_messages_sent}/"
                f"{node.nic_messages_delivered} | retx "
                f"{node.nic_retransmissions} | drops sys "
                f"{node.system_channel_drops} unready "
                f"{node.unready_channel_drops}")
            if (node.nic_retransmissions or node.nic_duplicate_drops
                    or node.nic_out_of_order_drops or node.nic_corrupt_drops):
                lines.append(
                    f"         recovery: fast-retx "
                    f"{node.nic_fast_retransmits} | timeouts "
                    f"{node.nic_retransmit_timeouts} | rx drops dup "
                    f"{node.nic_duplicate_drops} ooo "
                    f"{node.nic_out_of_order_drops} crc "
                    f"{node.nic_corrupt_drops}")
        busiest = self.busiest_link if self.links else None
        if busiest is not None:
            faulted = f", {busiest.injected_faults} faults injected" \
                if busiest.injected_faults else ""
            lines.append(
                f"  busiest link: {busiest.name} "
                f"({self.link_utilisation(busiest):.1%} utilised, "
                f"{busiest.packets} packets, {busiest.dropped} dropped"
                f"{faulted})")
        return "\n".join(lines)


def cluster_report(cluster: "Cluster") -> ClusterReport:
    """Snapshot every component's accounting into one report."""
    report = ClusterReport(elapsed_us=ns_to_us(cluster.env.now))
    for node, mcp in zip(cluster.nodes, cluster.mcps):
        counters = node.kernel.counters
        pindown = node.kernel.pindown
        reliability = ReliabilityCounters.from_mcp(mcp)
        report.nodes.append(NodeReport(
            node_id=node.node_id,
            cpu_busy_us=[ns_to_us(cpu.busy_ns) for cpu in node.cpus],
            pio_words_written=node.pci.pio_words_written,
            pio_words_read=node.pci.pio_words_read,
            dma_bytes=node.pci.dma_bytes,
            traps=counters.traps,
            traps_send=counters.traps_send_path,
            traps_recv=counters.traps_recv_path,
            interrupts=counters.interrupts,
            pindown_hits=pindown.hits,
            pindown_misses=pindown.misses,
            pindown_evictions=pindown.evictions,
            nic_messages_sent=mcp.messages_sent,
            nic_messages_delivered=mcp.messages_delivered,
            nic_retransmissions=reliability.retransmissions,
            nic_fast_retransmits=reliability.fast_retransmits,
            nic_retransmit_timeouts=reliability.retransmit_timeouts,
            nic_duplicate_drops=reliability.duplicate_drops,
            nic_out_of_order_drops=reliability.out_of_order_drops,
            nic_corrupt_drops=reliability.corrupt_drops,
            nic_tlb_hits=mcp.tlb.hits,
            nic_tlb_misses=mcp.tlb.misses,
            system_channel_drops=sum(p.system_dropped
                                     for p in node.nic.ports.values()),
            unready_channel_drops=sum(p.unready_drops
                                      for p in node.nic.ports.values()),
        ))
    for link in cluster.network.links:
        faults = len(link.injector.events) if link.injector is not None else 0
        report.links.append(LinkReport(
            name=link.name,
            busy_us_a_to_b=ns_to_us(link.busy_ns[link.a]),
            busy_us_b_to_a=ns_to_us(link.busy_ns[link.b]),
            packets=link.packets_carried,
            dropped=link.packets_dropped,
            injected_faults=faults,
        ))
    return report
