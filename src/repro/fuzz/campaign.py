"""Fuzz campaigns: generate N workloads, verify every oracle, shrink
what fails.

A campaign is fully determined by ``--seed``: workload seeds are
derived per index and tie-break seeds per schedule slot, so any
failure's ``(workload seed, schedule seed)`` pair replays exactly —
on a teammate's machine, in CI, or inside the shrinker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import repro.cluster
from repro.faults import derive_seed
from repro.fuzz.generator import WorkloadSpec, generate_workload
from repro.fuzz.oracles import OracleFailure, verify_workload
from repro.fuzz.shrinker import shrink_failure

__all__ = ["CampaignResult", "run_campaign", "schedule_seeds_for"]


@dataclass
class CampaignResult:
    """Everything a campaign learned."""

    base_seed: int
    runs: int
    schedule_seeds: tuple[int, ...]
    checked: int = 0
    by_layer: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)      # OracleFailure
    shrunk: list = field(default_factory=list)        # ShrinkResult

    @property
    def ok(self) -> bool:
        return not self.failures


def schedule_seeds_for(base_seed: int, n_schedules: int) -> tuple[int, ...]:
    """Derive the campaign's tie-break seeds from its base seed."""
    return tuple(derive_seed(base_seed, f"schedule-{j}")
                 for j in range(n_schedules))


def run_campaign(base_seed: int, runs: int, n_schedules: int = 5,
                 max_ops: int = 10, allow_faults: bool = True,
                 shrink: bool = False, max_shrink_evals: int = 200,
                 check: Callable[..., Optional[OracleFailure]]
                 = verify_workload,
                 progress: Optional[Callable[[int, WorkloadSpec,
                                              Optional[OracleFailure]],
                                             None]] = None,
                 stop_after: int = 5) -> CampaignResult:
    """Run one fuzz campaign.

    ``check`` is injectable so tests can fuzz a deliberately broken
    tree (or a stub oracle) without monkeypatching; ``progress`` is a
    per-workload callback for CLI reporting.  The campaign stops early
    after ``stop_after`` failures — a broken tree fails most workloads
    and shrinking each one tells us nothing new.
    """
    seeds = schedule_seeds_for(base_seed, n_schedules)
    result = CampaignResult(base_seed=base_seed, runs=runs,
                            schedule_seeds=seeds)
    for index in range(runs):
        spec = generate_workload(derive_seed(base_seed, f"workload-{index}"),
                                 max_ops=max_ops,
                                 allow_faults=allow_faults)
        failure = check(spec, schedule_seeds=seeds)
        result.checked += 1
        result.by_layer[spec.layer] = result.by_layer.get(spec.layer, 0) + 1
        if progress is not None:
            progress(index, spec, failure)
        if failure is None:
            continue
        result.failures.append(failure)
        # With the flight recorder on, the cluster that just failed its
        # oracle left the most recent recorder behind — dump it so the
        # failure ships with a last-K event timeline, not just the
        # shrunk spec.
        if "recorder" in repro.cluster.enabled():
            from repro.telemetry.recorder import dump_on_failure
            dump_on_failure(
                f"fuzz: oracle {failure.oracle} (workload {index})",
                note=failure.describe())
        if shrink:
            result.shrunk.append(
                shrink_failure(spec, failure, seeds,
                               max_evals=max_shrink_evals, check=check))
        if len(result.failures) >= stop_after:
            break
    return result
