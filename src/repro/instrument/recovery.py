"""Recovery metrics for fault-injection campaigns.

Quantifies how the go-back-N firmware protocol recovers from injected
faults (see :mod:`repro.faults`):

* **time-to-recover** — a *loss episode* opens at the first injected
  loss of a DATA packet on a flow and closes when the sender's
  cumulative-ack base moves past the highest sequence number lost in
  the episode, i.e. when every lost byte has been retransmitted and
  acknowledged.  Burst losses (several drops before recovery) extend
  the same episode;
* **retransmission amplification** — wire DATA packets sent divided by
  unique DATA packets, the bandwidth cost of go-back-N's
  resend-the-window recovery;
* per-flow protocol counters — fast retransmits (NACK-triggered),
  retransmit timeouts, duplicate/out-of-order/corrupt drops at the
  receiver;
* injected-fault totals from the campaign's injectors.

:class:`RecoveryTracker` attaches to a cluster *before* the workload
runs; :func:`recovery_summary` flattens everything into scalars (ready
for an experiment-cell payload), summing the protocol and fault series
of the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults import FAULT_KINDS, LOSS_KINDS, FaultEvent
from repro.firmware.reliability import GoBackNSender, retx_amplification
from repro.sim.time import ns_to_us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster import Cluster

__all__ = ["LossEpisode", "RecoveryTracker", "recovery_summary"]


@dataclass
class LossEpisode:
    """One contiguous recovery incident on a flow."""

    flow: tuple[int, int]        # (src_nic, dst_nic)
    start_ns: int                # time of the first loss
    first_seq: int
    max_seq: int                 # highest sequence lost so far
    losses: int = 1
    end_ns: Optional[int] = None  # base moved past max_seq (None = open)

    @property
    def recovered(self) -> bool:
        return self.end_ns is not None

    @property
    def time_to_recover_us(self) -> float:
        if self.end_ns is None:
            raise ValueError("episode not recovered")
        return ns_to_us(self.end_ns - self.start_ns)


class RecoveryTracker:
    """Observes fault events and ack progress to measure recovery.

    Attach to a cluster before running the workload::

        cluster = Cluster(n_nodes=2, cfg=cfg, fault_plan=plan)
        tracker = RecoveryTracker(cluster)
        ...run...
        summary = recovery_summary(cluster, tracker)

    The tracker subscribes to every installed fault injector and hooks
    each go-back-N sender's base-advance notification (including flows
    created after attachment).
    """

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.episodes: list[LossEpisode] = []
        self._open: dict[tuple[int, int], LossEpisode] = {}
        for mcp in cluster.mcps:
            mcp.on_new_sender = self._watch_sender
            for sender in mcp._senders.values():
                self._watch_sender(sender)
        for injector in cluster.fault_injectors:
            injector.listeners.append(self._on_fault)

    # ------------------------------------------------------------ wiring
    def _watch_sender(self, sender: GoBackNSender) -> None:
        sender.on_base_advance = self._on_base_advance

    # ------------------------------------------------------------- hooks
    def _on_fault(self, event: FaultEvent) -> None:
        if event.ptype != "data" or event.kind not in LOSS_KINDS:
            return
        flow = (event.src_nic, event.dst_nic)
        episode = self._open.get(flow)
        if episode is None:
            self._open[flow] = LossEpisode(flow, event.t_ns, event.seq,
                                           event.seq)
        else:
            episode.losses += 1
            episode.max_seq = max(episode.max_seq, event.seq)

    def _on_base_advance(self, sender: GoBackNSender, old_base: int,
                         new_base: int) -> None:
        if sender.flow is None:
            return
        episode = self._open.get(sender.flow)
        if episode is not None and new_base > episode.max_seq:
            episode.end_ns = sender.env.now
            self.episodes.append(episode)
            del self._open[sender.flow]

    # ----------------------------------------------------------- queries
    @property
    def recovered(self) -> list[LossEpisode]:
        return [e for e in self.episodes if e.recovered]

    @property
    def unrecovered(self) -> list[LossEpisode]:
        return list(self._open.values())

    def times_to_recover_us(self) -> list[float]:
        return [e.time_to_recover_us for e in self.recovered]


def recovery_summary(cluster: "Cluster",
                     tracker: Optional[RecoveryTracker] = None
                     ) -> dict[str, object]:
    """Flatten a finished run's recovery behaviour into scalars.

    All values are JSON-safe (int/float/bool/None), so the dict can
    serve directly as a runner-cell payload.
    """
    # Imported here: a module-level import would load the whole
    # telemetry package with ``import repro``.
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cluster.register_metrics(registry)

    def total(name: str, **labels) -> int:
        return int(registry.total(name, **labels))

    data_packets = total("repro_wire_data_packets_total")
    retransmissions = total("repro_retransmissions_total")
    summary: dict[str, object] = {
        "data_packets": data_packets,
        "retransmissions": retransmissions,
        "retx_amplification": retx_amplification(data_packets,
                                                  retransmissions),
        "fast_retransmits": total("repro_fast_retransmits_total"),
        "retransmit_timeouts": total("repro_retransmit_timeouts_total"),
    }
    for reason in ("duplicate", "out_of_order", "corrupt"):
        summary[f"{reason}_drops"] = total("repro_recv_drops_total",
                                           reason=reason)
    injected = {fault: total("repro_faults_injected_total", fault=fault)
                for fault in FAULT_KINDS}
    summary["injected_losses"] = (injected["drops"] + injected["burst_drops"]
                                  + injected["brownout_drops"]
                                  + injected["scripted_drops"])
    for fault, count in injected.items():
        summary[f"injected_{fault}"] = count
    if tracker is not None:
        times = tracker.times_to_recover_us()
        summary["loss_episodes"] = len(tracker.episodes) \
            + len(tracker.unrecovered)
        summary["recovered_episodes"] = len(times)
        summary["unrecovered_episodes"] = len(tracker.unrecovered)
        summary["ttr_mean_us"] = (sum(times) / len(times)) if times else None
        summary["ttr_max_us"] = max(times) if times else None
    return summary
