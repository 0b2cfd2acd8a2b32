"""Table 2 — comparison of communication protocols on the same wire.

BCL vs GM vs AM-II vs BIP, re-derived from the simulated stacks (see
:mod:`repro.baselines.models` for what each preset means).  The paper's
qualitative claims this table must reproduce:

* BCL's bandwidth ~matches GM's (both reliable firmware protocols);
* BCL's latency beats AM-II's ("BCL has a better latency in both
  intra-node and inter-node communication");
* BIP has "a very low latency" (no flow control / error correction)
  but "its bandwidth is lower than that of BCL";
* only BCL has the SMP intra-node row ("GM doesn't provide special
  support for SMP").
"""

from __future__ import annotations

from repro.baselines.models import ProtocolPreset, table2_presets
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import ExperimentResult
from repro.instrument.measure import measure_one_way

__all__ = ["run", "measure_protocol", "merge_protocols"]

BANDWIDTH_BYTES = 131072


def measure_protocol(cfg: CostModel, protocol: str) -> dict:
    """Measure one named preset from :func:`table2_presets` (a cell).

    Presets carry cluster factories, so parallel-runner cells are
    keyed by preset *name* and the preset is rebuilt here, inside the
    worker.
    """
    for preset in table2_presets(cfg):
        if preset.name == protocol:
            return _measure(preset)
    raise KeyError(f"unknown table-2 protocol {protocol!r}")


def _measure(preset: ProtocolPreset) -> dict:
    """Latency (0 B) and bandwidth (128 KB) for one preset."""
    lat = measure_one_way(preset.make_cluster(), 0, repeats=2,
                          warmup=1).latency_us
    big = measure_one_way(preset.make_cluster(), BANDWIDTH_BYTES,
                          repeats=2, warmup=1)
    lat += preset.latency_adjust_us
    transfer_us = big.latency_us
    if preset.extra_copy_mb_s:
        # AM-II's extra receive-side copy, applied analytically (a
        # 0-byte message copies nothing, so the latency is unchanged).
        transfer_us += BANDWIDTH_BYTES / preset.extra_copy_mb_s
    row = {"inter_latency_us": lat,
           "inter_bandwidth_mb_s": BANDWIDTH_BYTES / transfer_us}
    if preset.smp_support:
        row["intra_latency_us"] = measure_one_way(
            preset.make_cluster(n_nodes=1), 0, repeats=2,
            warmup=1).latency_us
        row["intra_bandwidth_mb_s"] = measure_one_way(
            preset.make_cluster(n_nodes=1), BANDWIDTH_BYTES, repeats=2,
            warmup=1).bandwidth_mb_s
    else:
        row["intra_latency_us"] = None
        row["intra_bandwidth_mb_s"] = None
    return row


def merge_protocols(cfg: CostModel, rows: list[dict]) -> ExperimentResult:
    """Assemble the table from per-preset rows, in preset order."""
    result = ExperimentResult(
        experiment_id="Table 2",
        title="Comparison of different communication protocols",
        columns=["protocol", "intra_latency_us", "inter_latency_us",
                 "intra_bandwidth_mb_s", "inter_bandwidth_mb_s", "notes"],
        notes="Paper-era published figures for comparison: GM 11-21 us / "
              ">140 MB/s; BIP very low latency, bandwidth below BCL's; "
              "AM-II latency above BCL's, bandwidth not comparable "
              "(extra copy).  BCL paper row: 2.7/18.3 us, 391/146 MB/s.")
    for preset, row in zip(table2_presets(cfg), rows):
        result.add(protocol=preset.name, notes=preset.notes, **row)
    return result


def run(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    return merge_protocols(cfg, [_measure(p) for p in table2_presets(cfg)])
