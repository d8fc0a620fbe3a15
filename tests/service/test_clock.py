"""The service loop's timer precision: sub-millisecond waits poll.

``epoll_wait`` counts whole milliseconds, so the stock selector turns a
5 µs air-time sleep into a 1 ms block.  :class:`PollingSelector` polls
instead while the next timer is under 1 ms away and leaves longer waits
(and the no-timer ``None``) to block as before.
"""

from __future__ import annotations

import asyncio
import selectors

import pytest

from repro.service.clock import PollingSelector, run_with_precise_timers


@pytest.mark.parametrize(
    "asked, passed",
    [(None, None), (0, 0), (5e-7, 0), (9.99e-4, 0), (1e-3, 1e-3), (0.02, 0.02)],
)
def test_sub_millisecond_timeouts_poll(monkeypatch, asked, passed) -> None:
    seen = []

    def stock_select(self, timeout=None):
        seen.append(timeout)
        return []

    monkeypatch.setattr(selectors.DefaultSelector, "select", stock_select)
    with PollingSelector() as selector:
        assert selector.select(asked) == []
    assert seen == [passed]


async def _sleep_200_times(delay: float) -> tuple[float, selectors.BaseSelector]:
    loop = asyncio.get_running_loop()
    started = loop.time()
    for _ in range(200):
        await asyncio.sleep(delay)
    return loop.time() - started, loop._selector  # type: ignore[attr-defined]


def test_microsecond_sleeps_do_not_block_a_millisecond() -> None:
    """200 back-to-back 5 µs sleeps: about 0.15 s on the stock loop, a few ms here."""
    policy = asyncio.get_event_loop_policy()
    elapsed, selector = run_with_precise_timers(_sleep_200_times(5e-6))
    assert isinstance(selector, PollingSelector)
    assert elapsed < 0.1, f"200 sleeps of 5 µs took {elapsed:.3f} s"
    # The helper restores the caller's policy, so later loops are stock.
    assert asyncio.get_event_loop_policy() is policy


def test_helper_returns_the_result_and_propagates_errors() -> None:
    async def fails() -> None:
        raise KeyError("boom")

    async def answers() -> int:
        await asyncio.sleep(0)
        return 42

    policy = asyncio.get_event_loop_policy()
    assert run_with_precise_timers(answers()) == 42
    with pytest.raises(KeyError):
        run_with_precise_timers(fails())
    assert asyncio.get_event_loop_policy() is policy
