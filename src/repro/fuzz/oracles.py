"""Differential delivery oracles.

Each oracle runs a workload twice (or N times) with exactly one knob
changed and demands the results agree:

* **schedule equivalence** — the same workload under the default FIFO
  schedule and under N :class:`~repro.fuzz.policies.ShuffledTieBreak`
  seeds must deliver the identical payload multiset to the identical
  endpoints.  Timing may (and does) differ; delivery may not.
* **audit transparency** — attaching the invariant auditor must not
  change anything observable: delivery, final simulation time and the
  hardware counters must be bit-identical, and the audited run itself
  must raise no violations (the auditor is the exactly-once /
  conservation oracle for faulted runs).
* **fault differential** — a faulted run must deliver exactly what the
  same workload delivers with the fault plan stripped: go-back-N plus
  the EADI/BCL layers recover drops, corruption and duplicates into
  exactly-once delivery.

Any crash (``BclError``, ``SimulationError``, ``AuditError``, a Python
exception out of the generated program) is itself an oracle failure —
fuzz workloads are constructed to be deadlock-free and legal, so the
stack must complete them under every legal schedule.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

import repro.cluster
from repro.fuzz.generator import RunResult, WorkloadSpec, run_workload
from repro.fuzz.policies import ShuffledTieBreak

__all__ = ["OracleFailure", "verify_workload", "DEFAULT_SCHEDULE_SEEDS"]

#: tie-break seeds a campaign uses unless told otherwise (>= 5 per the
#: acceptance bar; seed order is part of the reproducer)
DEFAULT_SCHEDULE_SEEDS = (1, 2, 3, 4, 5)


@dataclass
class OracleFailure:
    """One reproducible oracle violation."""

    oracle: str                     # "schedule" | "audit" | "fault" | "crash"
    spec: WorkloadSpec
    schedule_seed: Optional[int]    # tie-break seed of the failing run
    detail: str
    exception: Optional[str] = None

    def describe(self) -> str:
        where = ("fifo schedule" if self.schedule_seed is None
                 else f"tie-break seed {self.schedule_seed}")
        return (f"[{self.oracle}] {self.spec.describe()} under {where}: "
                f"{self.detail}")


def _delivery_diff(a: RunResult, b: RunResult) -> str:
    """Human-readable first divergence between two delivery records."""
    for rank, (da, db) in enumerate(zip(a.delivery, b.delivery)):
        if da != db:
            only_a = [r for r in da if r not in db]
            only_b = [r for r in db if r not in da]
            return (f"rank {rank}: baseline-only={only_a[:4]!r} "
                    f"variant-only={only_b[:4]!r}")
    return "delivery records match"


def _run(spec: WorkloadSpec, **kwargs):
    """Run a workload, folding any crash into an OracleFailure payload."""
    try:
        return run_workload(spec, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - every crash is a finding
        return None, (f"{type(exc).__name__}: {exc}",
                      traceback.format_exc(limit=12))


def verify_workload(
        spec: WorkloadSpec,
        schedule_seeds: Sequence[int] = DEFAULT_SCHEDULE_SEEDS,
        check_audit: bool = True,
        check_faults: bool = True) -> Optional[OracleFailure]:
    """Run every oracle for one workload; return the first failure.

    The baseline is the FIFO run *with the auditor attached* — the
    auditor's own invariants (byte conservation, exactly-once delivery,
    credit balance, pin-down accounting) are checked on every schedule
    variant too, so a fault plan that breaks exactly-once shows up
    either as an :class:`~repro.audit.AuditError` crash or as a
    delivery mismatch.
    """
    audited = repro.cluster.enabled() | {"audit"}
    baseline, crash = _run(spec, observers=audited)
    if crash is not None:
        return OracleFailure("crash", spec, None,
                             "baseline (fifo, audited) run crashed: "
                             + crash[0], exception=crash[1])

    if check_audit:
        bare, crash = _run(spec,
                           observers=repro.cluster.enabled() - {"audit"})
        if crash is not None:
            return OracleFailure("crash", spec, None,
                                 "unaudited run crashed: " + crash[0],
                                 exception=crash[1])
        if bare.delivery != baseline.delivery:
            return OracleFailure(
                "audit", spec, None,
                "auditor changed delivery: "
                + _delivery_diff(bare, baseline))
        if (bare.now, bare.counters) != (baseline.now, baseline.counters):
            return OracleFailure(
                "audit", spec, None,
                f"auditor changed timing/telemetry: "
                f"now {bare.now} vs {baseline.now}, "
                f"counters {bare.counters} vs {baseline.counters}")

    for seed in schedule_seeds:
        variant, crash = _run(spec, tie_break=ShuffledTieBreak(seed),
                              observers=audited)
        if crash is not None:
            return OracleFailure("crash", spec, seed,
                                 "shuffled run crashed: " + crash[0],
                                 exception=crash[1])
        if variant.delivery != baseline.delivery:
            return OracleFailure(
                "schedule", spec, seed,
                "delivery differs from fifo baseline: "
                + _delivery_diff(baseline, variant))

    if check_faults and spec.fault_plan is not None:
        clean, crash = _run(spec, observers=audited, include_faults=False)
        if crash is not None:
            return OracleFailure("crash", spec, None,
                                 "fault-free comparison run crashed: "
                                 + crash[0], exception=crash[1])
        if clean.delivery != baseline.delivery:
            return OracleFailure(
                "fault", spec, None,
                "faulted delivery differs from fault-free delivery: "
                + _delivery_diff(clean, baseline))

    return None
