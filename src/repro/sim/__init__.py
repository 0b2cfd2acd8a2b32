"""Deterministic discrete-event simulation engine.

This package is the foundation of the whole reproduction: every
hardware component (CPU, PCI bus, DMA engine, NIC firmware processor,
link, switch) and every software actor (user process, kernel, MCP
firmware loop) runs as a :class:`Process` inside one
:class:`Environment` with an integer-nanosecond virtual clock.

The API is deliberately SimPy-like (``env.process``, ``env.timeout``,
``yield event``) so the protocol code upstairs reads like ordinary
concurrent systems code, but the engine is self-contained and fully
deterministic: ties in the event queue are broken by insertion order,
and no wall-clock or randomness enters the core.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    Wake,
    wakeup,
    wakeup_event,
)
from repro.sim.resources import Resource, Store
from repro.sim.time import MICROSECOND, ns_to_us, us
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "Wake",
    "wakeup",
    "wakeup_event",
    "MICROSECOND",
    "ns_to_us",
    "us",
]
