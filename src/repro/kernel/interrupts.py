"""Interrupt controller (used only by the kernel-level baseline).

BCL's headline property is "No interrupt handling is needed": the MCP
DMAs completion events straight into user space.  The TCP-like baseline
instead raises an interrupt per received packet batch; the handler
preempts whatever runs on the servicing CPU, charging dispatch and
handler costs there — the overhead Table 1 tallies.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.config import CostModel
from repro.hw.cpu import Cpu
from repro.instrument.counters import PathCounters
from repro.sim import Environment, Tracer

__all__ = ["InterruptController"]


class InterruptController:
    """Dispatches device interrupts onto a node's CPUs."""

    def __init__(self, env: Environment, cfg: CostModel, cpus: list[Cpu],
                 counters: PathCounters, name: str,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.cfg = cfg
        self.cpus = cpus
        self.counters = counters
        self.name = name
        self.tracer = tracer
        self._next_cpu = 0  # round-robin steering
        self.raised = 0

    def raise_irq(self, handler: Callable[[Any], None], payload: Any,
                  cpu: Optional[Cpu] = None) -> None:
        """Queue an interrupt; the handler runs after the dispatch cost.

        ``handler(payload)`` is an ordinary callable executed in
        "interrupt context" — it must not block; anything lengthy is
        deferred by the handler itself (e.g. waking a sleeping reader).
        """
        self.raised += 1
        self.counters.record_interrupt()
        target = cpu if cpu is not None else self.cpus[self._next_cpu]
        self._next_cpu = (self._next_cpu + 1) % len(self.cpus)
        self.env.process(self._service(target, handler, payload))

    def _service(self, cpu: Cpu, handler: Callable[[Any], None],
                 payload: Any) -> Generator:
        yield from cpu.execute(self.cfg.interrupt_dispatch_us,
                               category="interrupt", stage="irq_dispatch")
        yield from cpu.execute(self.cfg.interrupt_handler_us,
                               category="interrupt", stage="irq_handler")
        handler(payload)
