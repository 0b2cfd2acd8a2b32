"""Figures 8 and 9 — inter-node latency and bandwidth vs message size.

The classic microbenchmark sweep: one-way latency T(n) over message
sizes from 0 bytes to 128 KB; bandwidth is n/T(n), the unit convention
the paper uses (its 146 MB/s is exactly 131072 B / 898 us).  Figure 8
is the latency series, Figure 9 the bandwidth series with the peak and
half-bandwidth point called out.

Each sweep point is an independent *cell* (fresh cluster, one size, one
path) so the parallel runner can fan the sweep out across worker
processes, with output byte-identical to a serial run.  Figures 8 and
9 share cells — the runner computes each (size, path) point once and
merges it into both figures (``fig8``/``fig9`` in
:data:`repro.experiments.runner.EXPERIMENTS`).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.cluster import Cluster
from repro.config import CostModel
from repro.experiments.common import PAPER, ExperimentResult
from repro.instrument.measure import measure_one_way

__all__ = ["measure_point", "merge_fig8", "merge_fig9", "DEFAULT_SIZES"]

DEFAULT_SIZES = (0, 4, 64, 256, 1024, 4096, 16384, 65536, 131072)


# ------------------------------------------------------------- runner cells
def measure_point(cfg: CostModel, nbytes: int,
                  intra: bool) -> dict[str, Any]:
    """One sweep point on a fresh cluster (a runner cell)."""
    sample = measure_one_way(Cluster(n_nodes=1 if intra else 2, cfg=cfg),
                             nbytes, repeats=2, warmup=1)
    return {"bytes": nbytes, "intra": intra,
            "latency_us": sample.latency_us,
            "bandwidth_mb_s": sample.bandwidth_mb_s if nbytes else 0.0}


def _pair_up(payloads: Sequence[dict]) -> list[tuple[dict, dict]]:
    inter = [p for p in payloads if not p["intra"]]
    intra = [p for p in payloads if p["intra"]]
    return list(zip(inter, intra))


def merge_fig8(cfg: CostModel, payloads: Sequence[dict]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Figure 8",
        title="Inter-node one-way latency of BCL vs message size",
        columns=["bytes", "latency_us", "intra_latency_us"],
        notes=f"Paper anchors: 0-byte inter-node "
              f"{PAPER['oneway_0b_inter_us']} us, intra-node "
              f"{PAPER['oneway_0b_intra_us']} us, 128 KB "
              f"~{PAPER['transfer_128k_us']} us.")
    for p_inter, p_intra in _pair_up(payloads):
        result.add(bytes=p_inter["bytes"], latency_us=p_inter["latency_us"],
                   intra_latency_us=p_intra["latency_us"])
    return result


def merge_fig9(cfg: CostModel, payloads: Sequence[dict]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Figure 9",
        title="Inter-node bandwidth of BCL vs message size",
        columns=["bytes", "bandwidth_mb_s", "intra_bandwidth_mb_s"],
        notes=f"Paper: peak {PAPER['peak_bw_inter_mb_s']} MB/s inter-node "
              f"(~{PAPER['bw_fraction_of_wire']:.0%} of the "
              f"{PAPER['wire_peak_mb_s']} MB/s wire), "
              f"{PAPER['peak_bw_intra_mb_s']} MB/s intra-node, "
              "half-bandwidth reached below 4 KB.")
    peak = 0.0
    half_at: Optional[int] = None
    for p_inter, p_intra in _pair_up(payloads):
        peak = max(peak, p_inter["bandwidth_mb_s"])
        result.add(bytes=p_inter["bytes"],
                   bandwidth_mb_s=p_inter["bandwidth_mb_s"],
                   intra_bandwidth_mb_s=p_intra["bandwidth_mb_s"])
    for row in result.rows:
        if row["bandwidth_mb_s"] >= peak / 2:
            half_at = row["bytes"]
            break
    result.notes += (f"\nMeasured peak {peak:.1f} MB/s "
                     f"({peak / cfg.wire_mb_s:.0%} of wire); "
                     f"half-bandwidth first reached at {half_at} bytes.")
    return result
