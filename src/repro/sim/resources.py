"""Shared-resource primitives built on the event core.

Two primitives cover everything the hardware models need:

* :class:`Resource` — a counted resource with FIFO waiters.  Used for
  bus ownership (PCI arbitration), DMA engines, and the NIC firmware
  processor, where at most ``capacity`` users may hold the resource.
* :class:`Store` — an unbounded-or-bounded FIFO of items with blocking
  ``get``/``put``.  Used for request rings, packet queues between
  pipeline stages, switch output ports and mailbox-style signalling.

Both primitives survive waiter interruption: when a process blocked on
``Store.get()``/``Store.put()`` or ``Resource.request()`` is
interrupted, the engine's orphan hook (:meth:`Event._on_orphaned`)
withdraws the dead waiter from the queue, so a later ``put()`` cannot
hand an item to a dead getter (silently losing it) and a later
``release()`` cannot grant capacity to a dead requester.

Most queues here stay empty for the whole run: a thousand-rank fabric
builds tens of thousands of stores and resources, and only a few
thousand stores ever buffer an item.  An empty ``collections.deque``
costs 760 B and an empty list 56 B, so waiters (getters, putters,
resource requests and holders) are plain lists, FIFO through
``pop(0)``: they stay short (at most 15 entries on the perfbench
workloads; ``Resource`` holders never exceed ``capacity``).  A store's
items are a deque, because an incast can queue many of them, but it
is made when an item is actually buffered (``Store._push``) and let go
when a get drains it (``Store._pop``); while the store is empty
``_items`` is an empty tuple.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Resource", "Store"]

#: item queue of a store that has never buffered an item
_NO_ITEMS: tuple = ()


class _Request(Event):
    """Event granted when the resource is acquired."""

    __slots__ = ("resource", "_withdrawn")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._withdrawn = False

    # Context-manager sugar so callers can write::
    #
    #     with bus.request() as req:
    #         yield req
    #         ...
    #
    # and the resource is released on exit even if the body raises.
    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def _on_orphaned(self) -> None:
        # The waiting process died before the grant: leave the queue so
        # a later release cannot give the resource to a dead requester.
        queue = self.resource._queue
        if self in queue:
            queue.remove(self)
            self._withdrawn = True


class Resource:
    """Counted resource with strictly FIFO grant order."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: list[_Request] = []
        self._queue: list[_Request] = []
        audit = getattr(env, "_audit", None)
        if audit is not None:
            audit.register_resource(self)

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> _Request:
        req = _Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self, request: _Request) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._queue:
            # Released before it was ever granted (e.g. the waiter was
            # interrupted): just drop it from the wait queue.
            self._queue.remove(request)
            return
        elif request._withdrawn:
            # Already withdrawn by the interrupt orphan hook; releasing
            # again (cleanup paths, ``with`` exits) is a no-op.
            return
        else:
            raise SimulationError("releasing a request this resource never granted")
        if self._queue and len(self._users) < self.capacity:
            nxt = self._queue.pop(0)
            self._users.append(nxt)
            nxt.succeed()


class _StoreGet(Event):
    """A blocked getter; withdraws itself if its waiter is interrupted."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store

    def _on_orphaned(self) -> None:
        getters = self.store._getters
        if self in getters:
            getters.remove(self)
            self.store.cancelled_gets += 1


class _StorePut(Event):
    """A blocked putter (store full); withdraws itself on interrupt."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.store = store
        self.item = item

    def _on_orphaned(self) -> None:
        putters = self.store._putters
        if self in putters:
            putters.remove(self)
            self.store.cancelled_puts += 1


class Store:
    """FIFO item store with blocking get and (optionally) blocking put."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] | tuple = _NO_ITEMS
        self._getters: list[_StoreGet] = []
        self._putters: list[_StorePut] = []
        #: waiters withdrawn because their process was interrupted
        self.cancelled_gets = 0
        self.cancelled_puts = 0
        audit = getattr(env, "_audit", None)
        if audit is not None:
            audit.register_store(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once it is stored."""
        if self._getters:
            # Hand straight to the longest-waiting getter.
            getter = self._getters.pop(0)
            getter.succeed(item)
        elif not self.is_full:
            self._push(item)
        else:
            put_ev = _StorePut(self, item)
            self._putters.append(put_ev)
            return put_ev
        done = Event(self.env)
        done.succeed()
        return done

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False (drops) when the store is full.

        This models hardware FIFOs that discard on overflow, e.g. the
        BCL system-channel buffer pool ("the incoming message will be
        discarded if there is no free buffer in the pool").
        """
        if self._getters:
            self._getters.pop(0).succeed(item)
            return True
        if self.is_full:
            return False
        self._push(item)
        return True

    def get(self) -> Event:
        """Remove and return the oldest item (blocking)."""
        if self._items:
            ev = Event(self.env)
            ev.succeed(self._pop())
            return ev
        getter = _StoreGet(self)
        self._getters.append(getter)
        return getter

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item_or_None)``."""
        if self._items:
            return True, self._pop()
        return False, None

    def peek(self) -> Any:
        if not self._items:
            raise SimulationError("peek on empty store")
        return self._items[0]

    def _push(self, item: Any) -> None:
        if self._items is _NO_ITEMS:
            self._items = deque()
        self._items.append(item)

    def _pop(self) -> Any:
        item = self._items.popleft()
        self._admit_putter()
        if not self._items:
            # Drained: drop the deque until an item is buffered again.
            self._items = _NO_ITEMS
        return item

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_ev = self._putters.pop(0)
            self._push(put_ev.item)
            put_ev.succeed()
