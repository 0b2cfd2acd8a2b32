"""Figures 5-7 — transmission, reception and one-way latency timelines.

A single 0-byte BCL message crosses a traced cluster; its records, as
:meth:`~repro.telemetry.spans.SpanBuilder.records_for` gathers them for
``repro observe``, are then split into the three views the paper draws:

* **Figure 5** (transmission): host-side stages up to "pushed into the
  network" (7.04 us) plus the 0.82 us completion reap;
* **Figure 6** (reception): the receiver-side user-space stages
  (1.01 us — no trap anywhere);
* **Figure 7** (one-way): the full stage table from compose to the
  received event, 18.3 us, with the semi-user-only stages marked.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import PAPER, ExperimentResult
from repro.firmware.packet import ChannelKind
from repro.instrument.measure import measure_one_way
from repro.sim.time import ns_to_us
from repro.sim.trace import TraceRecord
from repro.telemetry.spans import SpanBuilder

__all__ = ["run_fig5", "run_fig6", "run_fig7", "stage_us",
           "traced_zero_byte_timeline"]

#: stages on the host send side (Figure 5's "push into network")
SEND_HOST_STAGES = ("compose_send_request", "trap_enter", "security_checks",
                    "pindown_lookup", "fill_send_descriptor", "trap_exit")
#: stages only the semi-user-level architecture executes
SEMI_USER_ONLY_STAGES = ("trap_enter", "security_checks", "pindown_lookup",
                         "trap_exit")
RECV_HOST_STAGES = ("poll_recv_event", "check_recv_event")


def traced_zero_byte_timeline(cfg: CostModel = DAWNING_3000
                              ) -> tuple[list[TraceRecord], float]:
    """One traced 0-byte message; returns (records, one_way_us).

    The records are the measured message's, in (start, end) order, with
    the receiver's anonymous completion poll adopted into them.
    """
    cluster = Cluster(n_nodes=2, cfg=cfg, trace=True)
    sample = measure_one_way(cluster, nbytes=0, repeats=1, warmup=1,
                             channel_kind=ChannelKind.NORMAL)
    spans = SpanBuilder.from_tracer(cluster.tracer)
    # The last message is the measured (post-warmup) one; its records
    # include both nodes' stages.
    return spans.records_for(spans.message_ids()[-1]), sample.latency_us


def stage_us(records: list[TraceRecord], stage: str) -> float:
    """Total duration of ``stage`` across ``records``, in us."""
    return ns_to_us(sum(r.duration_ns for r in records if r.stage == stage))


def run_fig5(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    records, _ = traced_zero_byte_timeline(cfg)
    result = ExperimentResult(
        experiment_id="Figure 5",
        title="Transmission timeline for a BCL message (0-byte)",
        columns=["stage", "duration_us"],
        notes="Paper: 7.04 us to push a message into the network "
              "(descriptor PIO fill more than half of it) + 0.82 us to "
              "complete the sending operation.")
    push_total = 0.0
    for stage in SEND_HOST_STAGES:
        duration = stage_us(records, stage)
        push_total += duration
        result.add(stage=stage, duration_us=duration)
    result.add(stage="TOTAL push into network", duration_us=push_total)
    result.add(stage="(paper: push into network)",
               duration_us=PAPER["send_overhead_us"])
    result.add(stage="complete_send (reap send event)",
               duration_us=stage_us(records, "complete_send"))
    result.add(stage="(paper: completion)",
               duration_us=PAPER["send_complete_us"])
    return result


def run_fig6(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    records, _ = traced_zero_byte_timeline(cfg)
    result = ExperimentResult(
        experiment_id="Figure 6",
        title="Reception timeline for a BCL message (0-byte)",
        columns=["stage", "duration_us"],
        notes="No kernel trap anywhere on the receive path: the event "
              "was DMA'd into user space by the NIC.")
    total = 0.0
    for stage in RECV_HOST_STAGES:
        duration = stage_us(records, stage)
        total += duration
        result.add(stage=stage, duration_us=duration)
    result.add(stage="TOTAL reception overhead", duration_us=total)
    result.add(stage="(paper: reception overhead)",
               duration_us=PAPER["recv_overhead_us"])
    return result


def run_fig7(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    records, one_way_us = traced_zero_byte_timeline(cfg)
    result = ExperimentResult(
        experiment_id="Figure 7",
        title="One-way latency timeline for a 0-length BCL message",
        columns=["stage", "component", "start_us", "end_us", "duration_us",
                 "semi_user_only"],
        notes=f"Measured one-way: {one_way_us:.2f} us "
              f"(paper: {PAPER['oneway_0b_inter_us']} us).  Stages marked "
              "semi_user_only are the kernel trap the architecture adds; "
              "the user-level baseline replaces them with a compact "
              "user-space descriptor write + NIC context check.")
    origin: Optional[float] = None
    for r in records:
        if r.stage == "complete_send":
            continue  # off the one-way critical path
        start, end = ns_to_us(r.start_ns), ns_to_us(r.end_ns)
        if origin is None:
            origin = start
        result.add(stage=r.stage, component=r.component,
                   start_us=start - origin, end_us=end - origin,
                   duration_us=r.duration_us,
                   semi_user_only="yes" if r.stage in SEMI_USER_ONLY_STAGES
                   else "")
    result.add(stage="TOTAL one-way", component="", start_us=None,
               end_us=None, duration_us=one_way_us, semi_user_only="")
    result.add(stage="(paper one-way)", component="", start_us=None,
               end_us=None, duration_us=PAPER["oneway_0b_inter_us"],
               semi_user_only="")
    return result
