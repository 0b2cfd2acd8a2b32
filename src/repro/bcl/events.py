"""User-space completion queues.

The MCP DMAs completion records directly into these queues; the
receiving process polls them with BCL primitives — "the user process
need not trap into kernel mode to check the status of BCL messages"
(paper section 4.1).  The *timing* of polling is charged by the API
layer; this module is the queue mechanics plus a wakeup event so
blocked waiters resume the instant an event lands.
"""

from __future__ import annotations

from typing import Optional

from repro.firmware.descriptors import BclEvent
from repro.sim import Environment, Event, wakeup, wakeup_event

__all__ = ["CompletionQueue"]


class CompletionQueue:
    """FIFO of :class:`BclEvent` records living in user memory.

    Real event queues are finite rings; with ``capacity`` set, a push
    into a full queue *drops the event* (counted in ``overflows``) the
    way a hardware event ring overruns when the application stops
    polling.  The default is unbounded, which suits most workloads.
    Records are a list, FIFO through ``pop(0)``: every port has two
    queues and most hold a handful of records at a time, so an empty
    list (56 B) beats an empty deque (760 B).
    """

    def __init__(self, env: Environment, name: str,
                 capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._events: list[BclEvent] = []
        self._wakeup: Optional[Event] = None
        self.delivered = 0
        self.polled = 0
        self.overflows = 0

    def __len__(self) -> int:
        return len(self._events)

    def push(self, event: BclEvent) -> bool:
        """Called by the NIC after the event-record DMA completes.

        Returns False (and counts an overflow) if the ring was full.
        """
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.overflows += 1
            return False
        self._events.append(event)
        self.delivered += 1
        wakeup(self, "_wakeup")
        return True

    def try_pop(self) -> Optional[BclEvent]:
        """Dequeue the oldest event, or None if the queue is empty."""
        if not self._events:
            return None
        self.polled += 1
        return self._events.pop(0)

    def wakeup_event(self) -> Event:
        """An event that fires when the next record arrives.

        If records are already queued the event fires immediately, so
        a waiter can never sleep through a delivery.
        """
        return wakeup_event(self, "_wakeup", bool(self._events))
