"""Section 5 headline overheads: 7.04/0.82/1.01 us, the 22 % semi-user
extra, and its vanishing bandwidth impact at 128 KB."""

from __future__ import annotations

from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import PAPER, ExperimentResult
from repro.experiments.timelines import (
    RECV_HOST_STAGES,
    SEND_HOST_STAGES,
    stage_us,
    traced_zero_byte_timeline,
)
from repro.cluster import Cluster
from repro.instrument.measure import measure_one_way

__all__ = ["run"]


def run(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Section 5 overheads",
        title="Processor overheads and the semi-user-level tax",
        columns=["metric", "measured", "paper"])

    records, one_way = traced_zero_byte_timeline(cfg)
    send = sum(stage_us(records, s) for s in SEND_HOST_STAGES)
    recv = sum(stage_us(records, s) for s in RECV_HOST_STAGES)
    result.add(metric="send processor overhead (us)", measured=send,
               paper=PAPER["send_overhead_us"])
    result.add(metric="send completion overhead (us)",
               measured=stage_us(records, "complete_send"),
               paper=PAPER["send_complete_us"])
    result.add(metric="recv processor overhead (us)", measured=recv,
               paper=PAPER["recv_overhead_us"])
    result.add(metric="one-way 0-byte latency (us)", measured=one_way,
               paper=PAPER["oneway_0b_inter_us"])
    reliability = (stage_us(records, "mcp_send_processing")
                   + stage_us(records, "mcp_recv_processing"))
    result.add(metric="NIC reliable-protocol time (us)",
               measured=reliability, paper=PAPER["reliability_nic_us"])

    ul = measure_one_way(
        Cluster(n_nodes=2, cfg=cfg, architecture="user_level"), 0,
        repeats=3, warmup=2).latency_us
    extra = one_way - ul
    result.add(metric="semi-user extra vs user-level (us)", measured=extra,
               paper=PAPER["semi_user_extra_us"])
    result.add(metric="semi-user extra fraction of latency",
               measured=extra / one_way,
               paper=PAPER["semi_user_extra_fraction"])

    big = measure_one_way(Cluster(n_nodes=2, cfg=cfg), 131072, repeats=2,
                          warmup=1)
    ul_big = measure_one_way(
        Cluster(n_nodes=2, cfg=cfg, architecture="user_level"), 131072,
        repeats=2, warmup=1)
    result.add(metric="128 KB transfer time (us)", measured=big.latency_us,
               paper=PAPER["transfer_128k_us"])
    result.add(metric="extra at 128 KB (us)",
               measured=big.latency_us - ul_big.latency_us,
               paper=PAPER["semi_user_extra_us"])
    result.add(metric="extra fraction at 128 KB",
               measured=(big.latency_us - ul_big.latency_us)
               / big.latency_us,
               paper=0.004)
    return result
