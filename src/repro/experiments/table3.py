"""Table 3 — performance of BCL and MPI/PVM over BCL.

Latency is ping-pong RTT/2 at 0 bytes (the convention for the MPI
rows); bandwidth is n/T(n) at 256 KB one-way through the layered stack.
The BCL rows reuse the raw measurements from Figures 8/9.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import PAPER, ExperimentResult
from repro.instrument.measure import measure_intra_node, measure_one_way
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd

__all__ = ["measure_layer", "merge_layers",
           "layer_pingpong_half_rtt_us", "layer_bandwidth_mb_s"]

BANDWIDTH_BYTES = 262144

LAYERS = ("bcl", "mpi", "pvm")


def measure_layer(cfg: CostModel, layer: str) -> dict:
    """The four measurements of one table row (a runner cell)."""
    if layer == "bcl":
        return {
            "intra_latency_us": measure_intra_node(
                Cluster(n_nodes=1, cfg=cfg), 0, repeats=3,
                warmup=2).latency_us,
            "inter_latency_us": measure_one_way(
                Cluster(n_nodes=2, cfg=cfg), 0, repeats=3,
                warmup=2).latency_us,
            "intra_bandwidth_mb_s": measure_intra_node(
                Cluster(n_nodes=1, cfg=cfg), 131072, repeats=2,
                warmup=1).bandwidth_mb_s,
            "inter_bandwidth_mb_s": measure_one_way(
                Cluster(n_nodes=2, cfg=cfg), 131072, repeats=2,
                warmup=1).bandwidth_mb_s,
        }
    return {
        "intra_latency_us": layer_pingpong_half_rtt_us(layer, True, cfg),
        "inter_latency_us": layer_pingpong_half_rtt_us(layer, False, cfg),
        "intra_bandwidth_mb_s": layer_bandwidth_mb_s(layer, True, cfg),
        "inter_bandwidth_mb_s": layer_bandwidth_mb_s(layer, False, cfg),
    }


def layer_pingpong_half_rtt_us(layer: str, intra: bool,
                               cfg: CostModel = DAWNING_3000,
                               nbytes: int = 0, repeats: int = 3,
                               warmup: int = 2) -> float:
    """0-byte ping-pong half round-trip through MPI or PVM."""
    cluster = Cluster(n_nodes=1 if intra else 2, cfg=cfg)
    placement = [0, 0] if intra else None
    samples: list[float] = []

    def fn(ep):
        env = ep.port.env
        proc = ep.proc
        buf = proc.alloc(max(nbytes, 1))
        for i in range(repeats + warmup):
            if ep.rank == 0:
                if nbytes:
                    proc.write(buf, bytes([i % 251]) * nbytes)
                t0 = env.now
                yield from ep.eadi.send(1, buf, nbytes, tag=i)
                yield from ep.eadi.recv(1, i, buf, max(nbytes, 1))
                if i >= warmup:
                    samples.append(ns_to_us(env.now - t0) / 2)
            else:
                yield from ep.eadi.recv(0, i, buf, max(nbytes, 1))
                yield from ep.eadi.send(0, buf, nbytes, tag=i)

    run_spmd(cluster, 2, fn, layer=layer, placement=placement)
    return sum(samples) / len(samples)


def layer_bandwidth_mb_s(layer: str, intra: bool,
                         cfg: CostModel = DAWNING_3000,
                         nbytes: int = BANDWIDTH_BYTES) -> float:
    """One-way bandwidth through MPI or PVM at ``nbytes``."""
    half_rtt = layer_pingpong_half_rtt_us(layer, intra, cfg, nbytes,
                                          repeats=2, warmup=1)
    return nbytes / half_rtt


def merge_layers(cfg: CostModel, rows: list[dict]) -> ExperimentResult:
    """Assemble the table from per-layer rows, in :data:`LAYERS` order."""
    result = ExperimentResult(
        experiment_id="Table 3",
        title="Performance of BCL and MPI/PVM over BCL",
        columns=["layer", "intra_latency_us", "inter_latency_us",
                 "intra_bandwidth_mb_s", "inter_bandwidth_mb_s",
                 "paper_latency", "paper_bandwidth"])
    paper = {
        "bcl": ("BCL",
                f"{PAPER['oneway_0b_intra_us']}/"
                f"{PAPER['oneway_0b_inter_us']} us",
                f"{PAPER['peak_bw_intra_mb_s']:.0f}/"
                f"{PAPER['peak_bw_inter_mb_s']:.0f} MB/s"),
        "mpi": ("MPI over BCL",
                f"{PAPER['mpi_latency_intra_us']}/"
                f"{PAPER['mpi_latency_inter_us']} us",
                f"{PAPER['mpi_bw_intra_mb_s']:.0f}/"
                f"{PAPER['mpi_bw_inter_mb_s']:.0f} MB/s"),
        "pvm": ("PVM over BCL",
                f"{PAPER['pvm_latency_intra_us']}/"
                f"{PAPER['pvm_latency_inter_us']} us",
                f"{PAPER['pvm_bw_intra_mb_s']:.0f}/"
                f"{PAPER['pvm_bw_inter_mb_s']:.0f} MB/s"),
    }
    for layer, row in zip(LAYERS, rows):
        label, paper_lat, paper_bw = paper[layer]
        result.add(layer=label, **row, paper_latency=paper_lat,
                   paper_bandwidth=paper_bw)
    return result
