"""Resilience under injected packet loss (beyond-the-paper extension).

The paper asserts that BCL's firmware go-back-N protocol provides
"reliable transmission" but never characterises it under loss.  This
experiment does: a loss-rate x message-size sweep over the inter-node
path (where the seeded :class:`~repro.faults.FaultPlan` drops packets
on every link) with the intra-node shared-memory path as the
fault-immune control.  Per sweep point it reports goodput versus the
loss-free offered load, retransmission amplification (wire DATA packets
per unique DATA packet), the recovery mechanisms used (NACK fast
retransmits vs. timer expiries) and the mean/max time-to-recover of
each loss episode.

Each point is an independent runner *cell* parameterised only by
scalars (``loss_pct``, ``nbytes``, ``intra``): the ``FaultPlan`` is
reconstructed inside the cell from those scalars plus a fixed campaign
seed, so cells stay picklable, cache-keyable and byte-identical under
``--jobs N``.

The sweep can be reduced for smoke runs via environment variables::

    REPRO_RESILIENCE_LOSSES="0,2" REPRO_RESILIENCE_SIZES="16384" \\
        python -m repro evaluate --only resilience
"""

from __future__ import annotations

import os
from typing import Any, Sequence

from repro.cluster import Cluster
from repro.config import DAWNING_3000, LOSSY_DAWNING, CostModel
from repro.experiments.common import ExperimentResult
from repro.faults import FaultPlan
from repro.instrument.measure import measure_one_way
from repro.instrument.recovery import RecoveryTracker, recovery_summary
from repro.instrument.stats import bandwidth_mb_s

__all__ = ["run", "measure_resilience_point", "merge_resilience",
           "loss_rates_pct", "message_sizes", "CAMPAIGN_SEED",
           "DEFAULT_LOSS_PCTS", "DEFAULT_SIZES"]

#: fixed seed for the whole campaign; per-link streams are derived from
#: it by scope, so every sweep point is reproducible in isolation
CAMPAIGN_SEED = 2002

DEFAULT_LOSS_PCTS = (0.0, 2.0, 5.0)
DEFAULT_SIZES = (16384, 65536)

REPEATS = 6
WARMUP = 1


def _env_floats(name: str, default: Sequence[float]) -> tuple[float, ...]:
    raw = os.environ.get(name)
    if not raw:
        return tuple(default)
    return tuple(float(v) for v in raw.split(",") if v.strip())


def loss_rates_pct() -> tuple[float, ...]:
    """Sweep loss rates (%); override with REPRO_RESILIENCE_LOSSES."""
    return _env_floats("REPRO_RESILIENCE_LOSSES", DEFAULT_LOSS_PCTS)


def message_sizes() -> tuple[int, ...]:
    """Sweep message sizes; override with REPRO_RESILIENCE_SIZES."""
    return tuple(int(v) for v in
                 _env_floats("REPRO_RESILIENCE_SIZES", DEFAULT_SIZES))


def _plan(loss_pct: float, nbytes: int) -> FaultPlan:
    # Seed varies per sweep point: with a shared seed every cell would
    # replay the same uniform stream against different thresholds, so
    # one unlucky stream makes *every* low-rate point loss-free.
    seed = CAMPAIGN_SEED + int(loss_pct * 100) * 7919 + nbytes
    return FaultPlan(seed=seed, drop_rate=loss_pct / 100.0)


# ------------------------------------------------------------- runner cell
def measure_resilience_point(cfg: CostModel, loss_pct: float, nbytes: int,
                             intra: bool) -> dict[str, Any]:
    """One sweep point: goodput + recovery metrics under ``loss_pct``.

    Runs on the lossy-variant cost model (shorter retransmit timer, see
    :func:`repro.config.lossy_dawning`) derived from ``cfg`` so the
    sweep's timeout-recovery points stay cheap to simulate.
    """
    lossy_cfg = cfg.replace(
        retransmit_timeout_us=LOSSY_DAWNING.retransmit_timeout_us)
    cluster = Cluster(n_nodes=1 if intra else 2, cfg=lossy_cfg,
                      fault_plan=_plan(loss_pct, nbytes))
    tracker = RecoveryTracker(cluster)
    sample = measure_one_way(cluster, nbytes, REPEATS, WARMUP)
    recovery = recovery_summary(cluster, tracker)
    return {
        "loss_pct": loss_pct,
        "bytes": nbytes,
        "intra": intra,
        "latency_us": sample.latency_us,
        "goodput_mb_s": bandwidth_mb_s(nbytes, sample.latency_us),
        "payload_ok": sample.received_payloads_ok,
        **recovery,
    }


# ------------------------------------------------------------------ merge
def merge_resilience(cfg: CostModel,
                     payloads: Sequence[dict]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Resilience",
        title="Goodput and recovery under injected packet loss",
        columns=["path", "loss_pct", "bytes", "latency_us", "goodput_mb_s",
                 "retx_amp", "fast_retx", "timeouts", "episodes",
                 "ttr_mean_us", "ttr_max_us"],
        notes="Seeded per-link fault injection (drops on every wire "
              "link); the intra-node shared-memory path traverses no "
              "links and serves as the fault-immune control.  "
              "retx_amp = wire DATA packets / unique DATA packets; an "
              "episode spans first loss to the cumulative-ack base "
              "passing the last lost sequence number.")
    baseline: dict[tuple[int, bool], float] = {}
    for p in payloads:
        if p["loss_pct"] == 0.0:
            baseline[(p["bytes"], p["intra"])] = p["goodput_mb_s"]
    degraded: list[str] = []
    for p in payloads:
        if not p["payload_ok"]:
            raise AssertionError(
                f"corrupted payload delivered at loss_pct={p['loss_pct']} "
                f"bytes={p['bytes']} intra={p['intra']}")
        result.add(path="intra" if p["intra"] else "inter",
                   loss_pct=p["loss_pct"], bytes=p["bytes"],
                   latency_us=p["latency_us"],
                   goodput_mb_s=p["goodput_mb_s"],
                   retx_amp=p["retx_amplification"],
                   fast_retx=p["fast_retransmits"],
                   timeouts=p["retransmit_timeouts"],
                   episodes=p["loss_episodes"],
                   ttr_mean_us=p["ttr_mean_us"],
                   ttr_max_us=p["ttr_max_us"])
        loss_free = baseline.get((p["bytes"], p["intra"]))
        if loss_free and p["loss_pct"] and p["injected_losses"]:
            degraded.append(
                f"{p['bytes']} B @ {p['loss_pct']:g}% loss: "
                f"{p['goodput_mb_s'] / loss_free:.0%} of loss-free goodput")
    if degraded:
        result.notes += "\nGoodput retained: " + "; ".join(degraded) + "."
    return result


def run(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    """Serial composition of the sweep (same cells as the runner)."""
    payloads = [measure_resilience_point(cfg, loss, nbytes, intra)
                for intra in (False, True)
                for loss in loss_rates_pct()
                for nbytes in message_sizes()]
    return merge_resilience(cfg, payloads)
