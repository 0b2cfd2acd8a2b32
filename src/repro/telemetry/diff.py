"""Regression attribution: compare two runs and name the stage that moved.

``diff_runs(a, b)`` takes two runs — ledgers (``repro-run/1``) or
BENCH perf artifacts (``repro-bench/1``), as paths, documents, or
:class:`~repro.telemetry.ledger.RunView` objects — and computes

* **per-stage deltas** over the critical-path stage tables, ranked by
  absolute simulated-time change, with each stage's growth expressed
  in *points of run A's total stage time* so contributions are
  additive and comparable ("`translate/pin` +38%, other stages <3%");
* **per-metric deltas** over the flattened scalar metrics the two
  runs share (percentiles, goodput, events/sec, ...).

The headline API is :meth:`RunDiff.attribution`, which renders the
one-line story a perf gate should print on failure::

    p99_us regression: +41.0% (1105.0 -> 1558.1); stage-time delta
    driven by 'translate/pin' (+38.2%), other stages <3%

Breaking Band's framing: a communication breakdown only pays for
itself when you can compare breakdowns across configurations and name
the bounding stage that changed.  This module is that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.ledger import RunView, load_run

__all__ = ["MetricDelta", "RunDiff", "StageDelta", "WAIT_STAGE",
           "diff_runs"]

#: the critical-path catch-all stage: instants covered by no span
#: (queueing, credit stalls, recovery gaps).  When a causal stage slows
#: down, every concurrently open message waits longer, so ``wait``
#: usually grows *more* than the stage that caused it — attribution
#: therefore ranks causal stages first and reports wait movement as
#: downstream queueing rather than a cause.
WAIT_STAGE = "wait"


@dataclass
class StageDelta:
    """One stage's movement between run A and run B."""

    stage: str
    a_ns: int
    b_ns: int

    @property
    def delta_ns(self) -> int:
        return self.b_ns - self.a_ns

    def growth_pct(self, base_total_ns: int) -> float:
        """Growth in points of run A's total stage time.

        Shares a common base across stages so the per-stage numbers
        sum to the total stage-time growth; a stage that went from
        nothing to something still gets a finite, comparable number.
        """
        if base_total_ns <= 0:
            return 0.0 if self.delta_ns == 0 else float("inf")
        return 100.0 * self.delta_ns / base_total_ns


@dataclass
class MetricDelta:
    """One shared scalar metric's movement between run A and run B."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def pct(self) -> float:
        if self.a == 0:
            return 0.0 if self.b == 0 else float("inf")
        return 100.0 * self.delta / self.a


@dataclass
class RunDiff:
    """Everything :func:`diff_runs` learned, renderable as a table."""

    a: RunView
    b: RunView
    stage_deltas: list[StageDelta] = field(default_factory=list)
    metric_deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def comparable(self) -> bool:
        """Same config digest (or digests unknown) — deltas are
        regressions, not deliberate reconfiguration."""
        da, db = self.a.config_digest, self.b.config_digest
        return da is None or db is None or da == db

    @property
    def top_stage(self) -> Optional[str]:
        """The causal stage with the largest absolute simulated-time
        delta; the :data:`WAIT_STAGE` catch-all only wins when no
        traced stage moved at all."""
        movers = [d for d in self.stage_deltas if d.delta_ns != 0]
        causal = [d for d in movers if d.stage != WAIT_STAGE]
        return (causal or movers)[0].stage if movers else None

    @property
    def max_stage_drift_pct(self) -> float:
        """Largest per-stage |growth| in points of run A's total."""
        base = self.a.total_stage_ns
        return max((abs(d.growth_pct(base)) for d in self.stage_deltas),
                   default=0.0)

    def metric(self, name: str) -> Optional[MetricDelta]:
        for delta in self.metric_deltas:
            if delta.name == name:
                return delta
        return None

    def attribution(self, metric: Optional[str] = None,
                    noise_pct: float = 3.0) -> str:
        """One-line regression story for gate output.

        ``metric`` selects the headline number (e.g. ``"p99_us"``
        matches the first shared metric whose name contains it); the
        stage clause always attributes the stage-time delta.
        """
        parts = []
        chosen = None
        if metric is not None:
            chosen = self.metric(metric)
            if chosen is None:
                for delta in self.metric_deltas:
                    if metric in delta.name:
                        chosen = delta
                        break
        if chosen is not None:
            sign = "+" if chosen.delta >= 0 else ""
            word = "regression" if chosen.delta > 0 else "change"
            parts.append(f"{chosen.name} {word}: {sign}{chosen.pct:.1f}% "
                         f"({chosen.a:g} -> {chosen.b:g})")

        base = self.a.total_stage_ns
        movers = [d for d in self.stage_deltas
                  if abs(d.growth_pct(base)) >= noise_pct]
        causal = [d for d in movers if d.stage != WAIT_STAGE]
        waiting = next((d for d in movers if d.stage == WAIT_STAGE), None)
        if causal:
            lead = causal[0]
            sign = "+" if lead.delta_ns >= 0 else ""
            clause = (f"stage-time delta driven by {lead.stage!r} "
                      f"({sign}{lead.growth_pct(base):.1f}%)")
            others = causal[1:]
            if others:
                listed = ", ".join(
                    f"{d.stage!r} "
                    f"{'+' if d.delta_ns >= 0 else ''}"
                    f"{d.growth_pct(base):.1f}%" for d in others)
                clause += f", then {listed}"
            else:
                clause += f", other stages <{noise_pct:g}%"
            parts.append(clause)
            if waiting is not None:
                sign = "+" if waiting.delta_ns >= 0 else ""
                parts.append(f"downstream queueing ('wait') "
                             f"{sign}{waiting.growth_pct(base):.1f}%")
        elif waiting is not None:
            sign = "+" if waiting.delta_ns >= 0 else ""
            parts.append(f"stage-time delta is queueing ('wait' "
                         f"{sign}{waiting.growth_pct(base):.1f}%) with "
                         "no traced stage moving above noise")
        elif self.stage_deltas:
            parts.append(f"no stage moved more than {noise_pct:g}% "
                         "of total stage time")
        if not self.comparable:
            parts.append("NOTE: config digests differ "
                         f"({self.a.config_digest} vs "
                         f"{self.b.config_digest}) — runs are not "
                         "like-with-like")
        return "; ".join(parts) if parts else "no shared data to compare"

    def render(self, top: int = 10) -> str:
        """Multi-line ranked delta table (CLI output)."""
        lines = [f"run {name}: {run.label}  [{run.kind}"
                 + (f", {run.architecture}" if run.architecture else "")
                 + (f", digest {run.config_digest}" if run.config_digest
                    else "") + "]"
                 for name, run in (("A", self.a), ("B", self.b))]
        if not self.comparable:
            lines.append("warning: config digests differ — deltas "
                         "reflect deliberate reconfiguration, not drift")

        if self.stage_deltas:
            base = self.a.total_stage_ns
            lines.append("")
            lines.append(f"{'stage':<18} {'A us':>12} {'B us':>12} "
                         f"{'delta us':>12} {'growth':>8}")
            for d in self.stage_deltas[:top]:
                lines.append(
                    f"{d.stage:<18} {d.a_ns / 1000.0:>12.2f} "
                    f"{d.b_ns / 1000.0:>12.2f} "
                    f"{d.delta_ns / 1000.0:>+12.2f} "
                    f"{d.growth_pct(base):>+7.1f}%")
            total_a, total_b = base, self.b.total_stage_ns
            lines.append(
                f"{'total':<18} {total_a / 1000.0:>12.2f} "
                f"{total_b / 1000.0:>12.2f} "
                f"{(total_b - total_a) / 1000.0:>+12.2f} "
                f"{(100.0 * (total_b - total_a) / total_a if total_a else 0.0):>+7.1f}%")

        shown = [d for d in self.metric_deltas if d.delta != 0][:top]
        if shown:
            lines.append("")
            lines.append(f"{'metric':<44} {'A':>14} {'B':>14} {'pct':>8}")
            for d in shown:
                lines.append(f"{d.name:<44} {d.a:>14g} {d.b:>14g} "
                             f"{d.pct:>+7.1f}%")

        lines.append("")
        if self.top_stage is not None:
            lines.append("bounding-stage attribution: "
                         + self.attribution())
        else:
            lines.append("no stage-time movement between runs")
        return "\n".join(lines)


def diff_runs(a, b) -> RunDiff:
    """Compare two runs (paths, documents, or RunViews) into a
    :class:`RunDiff`.

    Stage deltas are ranked by absolute simulated-time change; metric
    deltas cover only the scalar keys both runs expose, ranked by
    absolute percentage change.
    """
    view_a, view_b = load_run(a), load_run(b)
    diff = RunDiff(a=view_a, b=view_b)

    stages = sorted(set(view_a.stages) | set(view_b.stages))
    diff.stage_deltas = sorted(
        (StageDelta(stage=s, a_ns=view_a.stages.get(s, 0),
                    b_ns=view_b.stages.get(s, 0)) for s in stages),
        key=lambda d: (-abs(d.delta_ns), d.stage))

    shared = sorted(set(view_a.metrics) & set(view_b.metrics))
    deltas = [MetricDelta(name=k, a=view_a.metrics[k], b=view_b.metrics[k])
              for k in shared]
    diff.metric_deltas = sorted(
        deltas, key=lambda d: (-abs(d.pct) if d.pct != float("inf")
                               else float("-inf"), d.name))
    return diff
