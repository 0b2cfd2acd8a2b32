"""Host CPU model.

A :class:`Cpu` is a serial execution resource: at most one software
activity (user library code, kernel code entered via a trap, interrupt
handler) runs on it at a time.  Costs are charged in microseconds and
scaled by the configured clock frequency relative to the calibration
frequency, which implements the paper's "a faster CPU will reduce these
overheads" observation as a first-class ablation knob.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config import CostModel
from repro.sim import MICROSECOND, Environment, Resource, Tracer

__all__ = ["Cpu"]


class Cpu:
    """One processor of an SMP node."""

    def __init__(self, env: Environment, cfg: CostModel, name: str,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.cfg = cfg
        self.name = name
        self.tracer = tracer
        self._resource = Resource(env, capacity=1)
        self.busy_ns = 0  # accumulated execution time, for utilisation stats

    def execute(self, cost_us: float, *, category: str = "cpu",
                stage: str = "work", message_id: Optional[int] = None,
                scale: bool = True) -> Generator:
        """Run for ``cost_us`` (scaled) microseconds of CPU time.

        Acquires the CPU exclusively for the duration, so concurrent
        activities on the same processor serialise — e.g. an interrupt
        handler delays the user process it preempts in wall-clock terms.
        """
        if cost_us < 0:
            raise ValueError(f"negative CPU cost {cost_us}")
        # rounds exactly as us(cfg.scaled_host_us(cost_us)) does
        duration = round((cost_us * self.cfg.host_scale if scale
                          else cost_us) * MICROSECOND)
        resource = self._resource
        req = resource.request()
        try:
            yield req
            env = self.env
            start = env.now
            yield env.sleep(duration)
            self.busy_ns += duration
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.record(start, start + duration, category, stage,
                              self.name, message_id)
        finally:
            resource.release(req)
