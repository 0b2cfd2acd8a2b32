"""Ablations of the design choices the paper argues for.

Each ablation quantifies one claim from the paper's discussion.  An
ablation is a runner experiment (``abl-*`` in
:data:`repro.experiments.runner.EXPERIMENTS`): a tuple of settings
below, one cell function that simulates one setting on a fresh
cluster, and a ``merge_*`` that assembles the table:

* **pin-down cache** — repeated sends from a warm buffer hit the
  kernel pin-down table; a rotating working set larger than the table
  thrashes it (pin/unpin on every send);
* **PIO cost** — "filling sending request consumed more than half of
  the time ... A good motherboard can improve the I/O performance
  heavily": sweep the per-word PIO cost;
* **CPU frequency** — "Host CPU frequency limits the parameter
  checking and trap operation's overhead.  A faster CPU will reduce
  these overheads": scale the host clock;
* **NIC TLB** (the case *against* user-level translation) — a
  user-level sender cycling through more buffers than the NIC TLB
  holds pays the miss penalty per page, while BCL's kernel table
  (host-sized) keeps hitting;
* **shared-memory chunk size** — the intra-node pipelining granularity
  behind the 391 MB/s figure;
* **reliability** — what the 5.65 us of MCP protocol processing buys
  and costs (the BIP trade-off);
* **NACK** — loss recovery by fast retransmit vs timeout alone.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.config import CostModel
from repro.experiments.common import ExperimentResult
from repro.faults import FaultPlan
from repro.instrument.measure import measure_intra_node, measure_one_way

__all__ = [
    "pindown_latency", "merge_pindown",
    "pio_point", "merge_pio",
    "cpu_point", "merge_cpu_frequency",
    "nic_tlb_latency", "merge_nic_tlb",
    "shm_point", "merge_shm_chunk",
    "reliability_point", "merge_reliability",
    "nack_transfer_us", "merge_nack",
]

# Per-configuration sweeps: each tuple element is one runner cell (an
# independent simulation on a fresh cluster).
PINDOWN_SCENARIOS = (("warm (1 buffer, hits)", 1),
                     ("within capacity (4 buffers)", 4),
                     ("thrashing (16 buffers)", 16),
                     ("heavy thrashing (32 buffers)", 32))
PIO_FACTORS = (1.0, 0.5, 0.25)
CPU_MHZ = (375.0, 750.0, 1500.0)
NIC_TLB_POINTS = (("user_level", 1), ("user_level", 4), ("user_level", 16),
                  ("user_level", 32), ("semi_user", 1), ("semi_user", 32))
SHM_CHUNKS = (1024, 4096, 8192, 16384, 32768)
RELIABILITY_CONFIGS = (("reliable (BCL)", True),
                       ("unreliable (BIP-style)", False))
NACK_CONFIGS = (("NACK fast retransmit", True), ("timeout only", False))


def pindown_latency(cfg: CostModel, n_buffers: int) -> float:
    """One pin-down scenario: 32 KB sends rotating over ``n_buffers``
    buffers with a 64-page table; the first, cold round is warm-up."""
    small = cfg.replace(pindown_capacity_pages=64)
    return measure_one_way(Cluster(n_nodes=2, cfg=small), 32768,
                           repeats=2 * n_buffers, warmup=n_buffers,
                           buffers=n_buffers).latency_us


def merge_pindown(cfg: CostModel, latencies: list) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Ablation: pin-down table",
        title="Kernel pin-down page table: hits vs thrashing (32 KB sends)",
        columns=["scenario", "working_set_pages", "table_pages",
                 "latency_us"],
        notes="Thrashing adds pin+translate+insert (and an eviction "
              "unpin+remove) per page per send.")
    for (label, n_buffers), latency in zip(PINDOWN_SCENARIOS, latencies):
        result.add(scenario=label, working_set_pages=n_buffers * 8,
                   table_pages=64, latency_us=latency)
    return result


def pio_point(cfg: CostModel, factor: float) -> dict:
    """One PIO-cost point: word costs scaled by ``factor``."""
    varied = cfg.replace(pio_write_word_us=cfg.pio_write_word_us * factor,
                         pio_read_word_us=cfg.pio_read_word_us * factor)
    lat = measure_one_way(Cluster(n_nodes=2, cfg=varied), 0, repeats=2,
                          warmup=1).latency_us
    fill = varied.pio_write_us(varied.descriptor_base_words)
    return {"pio_write_word_us": varied.pio_write_word_us,
            "oneway_0b_us": lat, "descriptor_fill_us": fill}


def merge_pio(cfg: CostModel, rows: list) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Ablation: PIO cost",
        title="PCI programmed-I/O word cost vs send overhead and latency",
        columns=["pio_write_word_us", "oneway_0b_us", "descriptor_fill_us"],
        notes='"A good motherboard can improve the I/O performance '
              'heavily."')
    for row in rows:
        result.add(**row)
    return result


def cpu_point(cfg: CostModel, mhz: float) -> dict:
    """One CPU-frequency point: inter- and intra-node 0-byte latency."""
    varied = cfg.replace(cpu_mhz=mhz)
    inter = measure_one_way(Cluster(n_nodes=2, cfg=varied), 0,
                            repeats=2, warmup=1).latency_us
    intra = measure_intra_node(Cluster(n_nodes=1, cfg=varied), 0,
                               repeats=2, warmup=1).latency_us
    return {"cpu_mhz": mhz, "oneway_0b_us": inter, "intra_0b_us": intra}


def merge_cpu_frequency(cfg: CostModel, rows: list) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Ablation: CPU frequency",
        title="Host CPU clock vs trap/check overheads and latency",
        columns=["cpu_mhz", "oneway_0b_us", "intra_0b_us"],
        notes='"A faster CPU will reduce these overheads."  PIO and '
              'NIC/wire stages do not scale with the host clock.')
    for row in rows:
        result.add(**row)
    return result


def nic_tlb_latency(cfg: CostModel, architecture: str,
                    n_buffers: int) -> float:
    """One NIC-TLB point: 4 KB sends rotating over ``n_buffers``
    buffers with an 8-entry TLB; the first, cold round is warm-up.

    User-level translation collapses when the buffer working set
    exceeds the NIC TLB; BCL's kernel table does not (the paper's
    large-memory argument).
    """
    tiny_tlb = cfg.replace(nic_tlb_entries=8)
    cluster = Cluster(n_nodes=2, cfg=tiny_tlb, architecture=architecture)
    return measure_one_way(cluster, 4096, repeats=2 * n_buffers,
                           warmup=n_buffers, buffers=n_buffers).latency_us


def merge_nic_tlb(cfg: CostModel, latencies: list) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Ablation: NIC address-translation cache",
        title="NIC TLB thrashing (user-level) vs kernel translation (BCL)",
        columns=["architecture", "working_set_buffers", "latency_us"],
        notes="NIC TLB: 8 entries; kernel pin-down table: default "
              f"({cfg.pindown_capacity_pages} pages).  One 4 KB page per "
              "buffer.")
    for (architecture, n_buffers), latency in zip(NIC_TLB_POINTS, latencies):
        result.add(architecture=architecture,
                   working_set_buffers=n_buffers, latency_us=latency)
    return result


def shm_point(cfg: CostModel, chunk: int) -> dict:
    """One chunk-size point: intra-node peak bandwidth + 0-byte latency."""
    varied = cfg.replace(shm_chunk_bytes=chunk)
    bw = measure_intra_node(Cluster(n_nodes=1, cfg=varied), 262144,
                            repeats=2, warmup=1).bandwidth_mb_s
    lat = measure_intra_node(Cluster(n_nodes=1, cfg=varied), 0,
                             repeats=2, warmup=1).latency_us
    return {"chunk_bytes": chunk, "bandwidth_mb_s": bw, "latency_0b_us": lat}


def merge_shm_chunk(cfg: CostModel, rows: list) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Ablation: shared-memory chunk size",
        title="Intra-node pipelining granularity vs bandwidth",
        columns=["chunk_bytes", "bandwidth_mb_s", "latency_0b_us"],
        notes="Small chunks pay per-chunk setup; huge chunks lose "
              "sender/receiver overlap (ring capacity).")
    for row in rows:
        result.add(**row)
    return result


def reliability_point(cfg: CostModel, reliable: bool) -> dict:
    """Latency and bandwidth with or without the MCP reliable protocol."""
    varied = cfg if reliable else cfg.replace(mcp_send_proc_us=1.20,
                                              mcp_recv_proc_us=1.10)
    lat = measure_one_way(
        Cluster(n_nodes=2, cfg=varied, reliable=reliable), 0,
        repeats=2, warmup=1).latency_us
    bw = measure_one_way(
        Cluster(n_nodes=2, cfg=varied, reliable=reliable), 131072,
        repeats=2, warmup=1).bandwidth_mb_s
    return {"oneway_0b_us": lat, "bw_128k_mb_s": bw}


def merge_reliability(cfg: CostModel, rows: list) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Ablation: firmware reliability",
        title="Cost of the MCP reliable protocol (the BIP trade-off)",
        columns=["config", "oneway_0b_us", "bw_128k_mb_s"],
        notes="reliable=False removes sequence/ack/retransmit processing "
              "(BIP-style): lower latency, no loss protection.")
    for (label, _), row in zip(RELIABILITY_CONFIGS, rows):
        result.add(config=label, **row)
    return result


def nack_transfer_us(cfg: CostModel, nack: bool) -> float:
    """End-to-end 20 KB transfer time with DATA seq 1's first wire copy
    dropped (a scripted plan: it draws no randomness).

    One mid-message packet of the 5-packet transfer is lost; ``nack``
    switches the receiver's NACK signalling (an extension beyond the
    paper, using the NACK type its packet format reserves) on or off.
    """
    varied = cfg.replace(retransmit_timeout_us=5000.0, nack_enabled=nack)
    cluster = Cluster(n_nodes=2, cfg=varied,
                      fault_plan=FaultPlan(drop_seqs=(1,)))
    return measure_one_way(cluster, 20000, repeats=1, warmup=0).latency_us


def merge_nack(cfg: CostModel, times: list) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Ablation: NACK fast retransmit",
        title="Recovery from a single packet loss (20 KB message)",
        columns=["config", "transfer_us"],
        notes="Timeout-only recovery waits out the full retransmission "
              "timer; the NACK repairs the gap in round-trip time.")
    for (label, _), transfer_us in zip(NACK_CONFIGS, times):
        result.add(config=label, transfer_us=transfer_us)
    return result
