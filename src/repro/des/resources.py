"""The object store that carries the finite uplink's request queue.

:class:`Store` is a FIFO buffer of Python objects with an optional
capacity bound: a put waits while the store is full, a get waits while it
is empty.  A queued put or get can be withdrawn with ``cancel()``;
interrupt delivery does so for the event an interrupted process
abandons, so a later put cannot hand an item to a waiter that is gone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Store", "StorePut", "StoreGet"]


class _StoreRequest(Event):
    """A put or get waiting in one of its :class:`Store`'s queues."""

    __slots__ = ("_queue",)

    def __init__(self, store: "Store", queue: list[Any]) -> None:
        super().__init__(store.env)
        self._queue = queue
        queue.append(self)

    def cancel(self) -> None:
        """Withdraw this request if it is still waiting."""
        if not self.triggered and self in self._queue:
            self._queue.remove(self)


class StorePut(_StoreRequest):
    """Insert ``item`` into a :class:`Store` (waits while the store is full)."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.item = item
        super().__init__(store, store._put_queue)
        store._stir()


class StoreGet(_StoreRequest):
    """Retrieve the next item from a :class:`Store` (waits while empty)."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store, store._get_queue)
        store._stir()


class Store:
    """FIFO object store with optional capacity bound.

    Parameters
    ----------
    env:
        Host environment.
    capacity:
        Maximum number of stored items (default unbounded).
    """

    def __init__(self, env: "Environment", capacity: float = math.inf) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; triggers once the store has room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Retrieve an item; triggers once one is available."""
        return StoreGet(self)

    def _stir(self) -> None:
        """Serve the head put and the head get, in FIFO order, until neither can."""
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._get_queue and self.items:
                self._get_queue.pop(0).succeed(self.items.pop(0))
                progressed = True
