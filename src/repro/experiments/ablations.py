"""Ablations of the design choices the paper argues for.

Each ``run_*`` quantifies one claim from the paper's discussion:

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
  and costs (the BIP trade-off).
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines import library_for
from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import ExperimentResult
from repro.faults import FaultPlan
from repro.firmware.packet import ChannelKind
from repro.instrument.measure import measure_intra_node, measure_one_way
from repro.sim import Store
from repro.sim.time import ns_to_us

__all__ = [
    "run_pindown",
    "run_pio",
    "run_cpu_frequency",
    "run_nic_tlb",
    "run_shm_chunk",
    "run_reliability",
    "run_nack",
    "run_all",
]

# Default per-configuration sweeps.  Each tuple element is one runner
# cell (an independent simulation on a fresh cluster); the run_* entry
# points below are the serial compositions of the same cells.
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


def _rotating_send_latency(cfg: CostModel, architecture: str,
                           n_buffers: int, buffer_bytes: int,
                           rounds: int = 3) -> float:
    """Mean one-way latency while the sender rotates over ``n_buffers``
    distinct buffers (stressing whichever translation cache the
    architecture uses)."""
    cluster = Cluster(n_nodes=2, cfg=cfg, architecture=architecture)
    env = cluster.env
    lib_cls = library_for(architecture)
    sync: Store = Store(env)
    starts: list[int] = []
    samples: list[float] = []
    total = n_buffers * rounds

    def receiver():
        proc = cluster.spawn(1)
        port = yield from lib_cls(proc).create_port()
        buf = proc.alloc(buffer_bytes)
        sync.try_put(("addr", port.address))
        for i in range(total):
            yield from port.post_recv(0, buf, buffer_bytes)
            sync.try_put(("ready", i))
            yield from port.wait_recv()
            if i >= n_buffers:   # skip the first (cold) round
                samples.append(ns_to_us(env.now - starts[i]))

    def sender():
        proc = cluster.spawn(0)
        port = yield from lib_cls(proc).create_port()
        _, address = yield sync.get()
        dest = address.with_channel(ChannelKind.NORMAL, 0)
        buffers = [proc.alloc(buffer_bytes) for _ in range(n_buffers)]
        for buf in buffers:
            proc.write(buf, b"a" * buffer_bytes)
        for i in range(total):
            yield sync.get()
            starts.append(env.now)
            yield from port.send(dest, buffers[i % n_buffers], buffer_bytes)
            yield from port.wait_send()

    done = env.process(receiver(), name="abl.recv")
    env.process(sender(), name="abl.send")
    env.run(until=done)
    return sum(samples) / len(samples)


def pindown_latency(cfg: CostModel, n_buffers: int) -> float:
    """One pin-down scenario: rotating 32 KB sends over a 64-page table."""
    small = cfg.replace(pindown_capacity_pages=64)
    return _rotating_send_latency(small, "semi_user", n_buffers, 32768)


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


def run_pindown(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    return merge_pindown(cfg, [pindown_latency(cfg, n)
                               for _, n in PINDOWN_SCENARIOS])


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


def run_pio(cfg: CostModel = DAWNING_3000,
            factors: Sequence[float] = PIO_FACTORS) -> ExperimentResult:
    return merge_pio(cfg, [pio_point(cfg, factor) for factor in factors])


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


def run_cpu_frequency(cfg: CostModel = DAWNING_3000,
                      mhz: Sequence[float] = CPU_MHZ) -> ExperimentResult:
    return merge_cpu_frequency(cfg, [cpu_point(cfg, clock)
                                     for clock in mhz])


def nic_tlb_latency(cfg: CostModel, architecture: str,
                    n_buffers: int) -> float:
    """One NIC-TLB point: rotating 4 KB sends with an 8-entry TLB."""
    tiny_tlb = cfg.replace(nic_tlb_entries=8)
    return _rotating_send_latency(tiny_tlb, architecture, n_buffers, 4096)


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


def run_nic_tlb(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    """User-level translation collapses when the buffer working set
    exceeds the NIC TLB; BCL's kernel table does not (the paper's
    large-memory argument)."""
    return merge_nic_tlb(cfg, [nic_tlb_latency(cfg, arch, n)
                               for arch, n in NIC_TLB_POINTS])


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


def run_shm_chunk(cfg: CostModel = DAWNING_3000,
                  chunks: Sequence[int] = SHM_CHUNKS) -> ExperimentResult:
    return merge_shm_chunk(cfg, [shm_point(cfg, chunk) for chunk in chunks])


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


def run_reliability(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    return merge_reliability(cfg, [reliability_point(cfg, reliable)
                                   for _, reliable in RELIABILITY_CONFIGS])


def nack_transfer_us(cfg: CostModel, nack: bool) -> float:
    """End-to-end 20 KB transfer time with DATA seq 1's first wire copy
    dropped (a scripted plan: it draws no randomness)."""
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


def run_nack(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    """Loss-recovery latency: NACK fast retransmit vs timeout-only.

    One mid-message packet of a 5-packet transfer is dropped; the table
    reports the end-to-end transfer time with and without the
    receiver's NACK signalling (an extension beyond the paper, using
    the NACK type its packet format reserves).
    """
    return merge_nack(cfg, [nack_transfer_us(cfg, nack)
                            for _, nack in NACK_CONFIGS])


def run_all(cfg: CostModel = DAWNING_3000) -> list[ExperimentResult]:
    return [run_pindown(cfg), run_pio(cfg), run_cpu_frequency(cfg),
            run_nic_tlb(cfg), run_shm_chunk(cfg), run_reliability(cfg),
            run_nack(cfg)]
