"""A virtual-time asyncio event loop for deterministic service runs.

:class:`VirtualClockLoop` is a selector event loop whose ``time()`` is a
counter.  Its selector polls with timeout 0 and, when no I/O is ready,
advances the counter by the timeout the loop asked for — to the next
timer — instead of sleeping.  Timers therefore fire in the same order
as on a real loop, but a run costs only the CPU time of its callbacks
and every timestamp is a pure function of the scheduled delays.

:class:`VirtualServiceClock` reads that counter, so a
:class:`~repro.service.core.SchedulerCore` built with it stamps its
decisions in virtual seconds::

    result = run_virtual(lambda clock: scenario(clock))
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Awaitable, Callable, Optional, TypeVar

from repro.service.clock import ServiceClock

__all__ = ["VirtualClockLoop", "VirtualServiceClock", "run_virtual"]

T = TypeVar("T")


class _JumpingSelector(selectors.DefaultSelector):
    """Polls without blocking; an idle wait moves the loop's counter instead."""

    def __init__(self, loop: VirtualClockLoop) -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout: Optional[float] = None) -> list[Any]:
        events = super().select(0)
        if events or timeout == 0:
            return events
        if timeout is None:
            # A real loop would block until I/O that an in-process run
            # can never receive: fail instead of hanging.
            raise RuntimeError("virtual clock deadlock: no timer and no I/O pending")
        self._loop.now += timeout
        return events


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock only moves when it would otherwise sleep."""

    def __init__(self) -> None:
        #: Virtual seconds since the loop was created.
        self.now = 0.0
        super().__init__(_JumpingSelector(self))

    def time(self) -> float:
        return self.now


class VirtualServiceClock(ServiceClock):
    """A service clock reading the virtual loop's counter."""

    def __init__(self, loop: VirtualClockLoop) -> None:
        # No wall-clock anchor: the counter starts at zero with the loop.
        self._loop = loop

    def now(self) -> float:
        return self._loop.time()


def run_virtual(main: Callable[[VirtualServiceClock], Awaitable[T]]) -> T:
    """Run ``main(clock)`` to completion on a fresh virtual-time loop."""
    loop = VirtualClockLoop()
    try:
        return loop.run_until_complete(main(VirtualServiceClock(loop)))
    finally:
        loop.close()
