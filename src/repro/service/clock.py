"""The service clock: the only place the tree reads wall time for logic.

Every timestamp the live service emits — trace events, ledger audits,
health transitions — flows through one :class:`ServiceClock`, anchored
at service start, so a service trace reads like a simulation trace
starting at ``t = 0`` and the rest of the service code never touches
:mod:`time` directly.

The two ``time.monotonic()`` call sites below are the audited RL001
exemption of ``repro.service`` (see ``docs/static-analysis.md``): the
reprolint findings they produce are collected, not suppressed, and
their exact count is pinned by ``tests/qa/test_self_clean.py`` — a new
wall-clock read anywhere in the service fails the pin until the budget
is reviewed.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from typing import Any, Coroutine, Optional, TypeVar

__all__ = ["PollingSelector", "ServiceClock", "run_with_precise_timers"]

T = TypeVar("T")


class ServiceClock:
    """Monotonic seconds since service start.

    Monotonic (not UTC) time, so NTP slews and DST cannot make a trace
    run backwards — the trace validator proves monotonicity on every
    soak.
    """

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        """Seconds elapsed since the clock was created."""
        return time.monotonic() - self._origin


class PollingSelector(selectors.DefaultSelector):
    """Polls instead of blocking while the next timer is under 1 ms away.

    ``epoll_wait`` counts whole milliseconds, so the stock selector rounds
    a shorter wait up to 1 ms: a 5 µs air-time sleep blocks that long
    whenever no I/O arrives first.  Polling (timeout 0) lets the loop see
    the timer fall due; the spin lasts at most the 1 ms it replaces.
    """

    def select(self, timeout: Optional[float] = None) -> list[tuple[selectors.SelectorKey, int]]:
        return super().select(0 if timeout is not None and timeout < 1e-3 else timeout)


class _PollingPolicy(asyncio.DefaultEventLoopPolicy):
    def new_event_loop(self) -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(PollingSelector())


def run_with_precise_timers(main: Coroutine[Any, Any, T]) -> T:
    """``asyncio.run(main)`` on a loop built around :class:`PollingSelector`."""
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(_PollingPolicy())
    try:
        return asyncio.run(main)
    finally:
        asyncio.set_event_loop_policy(previous)
