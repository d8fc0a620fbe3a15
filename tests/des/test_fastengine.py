"""Flat ``schedule_call`` records on the one :class:`Environment` calendar.

Call records and events share one ``(time, priority, insertion order)``
total order, and generator processes (the fault front, uplink channel
and watchdog) run beside the flat records the hybrid server uses.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import NORMAL, URGENT, Environment
from repro.des.engine import EmptySchedule

#: ``_scenario``'s log as the generator-process calendar produced it
#: before flat records shared it.
RECORDED_SCENARIO_LOG = [
    (1.5, "a", 0),
    (2.25, "b", 0),
    (3.0, "a", 1),
    (4.5, "b", 1),
    (4.5, "a", 2),
    (6.0, "a", 3),
    (6.75, "b", 2),
    (6.75, "joined", -1),
    (7.5, "raced", 1),
]


class TestCallRecordOrdering:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60
        )
    )
    def test_fire_times_non_decreasing(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            env.schedule_call(delay, lambda _arg: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert env.now == max(delays)

    @given(
        records=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.sampled_from([URGENT, NORMAL]),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_priority_then_fifo_within_equal_times(self, records):
        env = Environment()
        fired = []
        for index, (delay, priority) in enumerate(records):
            env.schedule_call(
                delay,
                lambda arg: fired.append(arg),
                arg=(env.now + delay, priority, index),
                priority=priority,
            )
        env.run()
        # Total order: time, then priority band, then insertion order.
        assert fired == sorted(fired)

    def test_mixed_events_and_calls_share_one_calendar(self):
        env = Environment()
        order = []
        env.timeout(2.0).callbacks.append(lambda e: order.append("timeout@2"))
        env.schedule_call(1.0, lambda _arg: order.append("call@1"))
        env.schedule_call(3.0, lambda _arg: order.append("call@3"))
        env.timeout(0.5).callbacks.append(lambda e: order.append("timeout@0.5"))
        env.run()
        assert order == ["timeout@0.5", "call@1", "timeout@2", "call@3"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.schedule_call(-0.1, lambda _arg: None)


def _scenario(env):
    """A generator workload touching timeouts, processes and conditions."""
    log = []

    def worker(env, name, period, rounds):
        for round_no in range(rounds):
            yield env.timeout(period)
            log.append((env.now, name, round_no))

    def coordinator(env):
        first = env.process(worker(env, "a", 1.5, 4))
        second = env.process(worker(env, "b", 2.25, 3))
        yield env.all_of([first, second])
        log.append((env.now, "joined", -1))
        done = env.event()
        env.timeout(0.75).callbacks.append(lambda _e: done.succeed("late"))
        value = yield env.any_of([done, env.timeout(5.0)])
        log.append((env.now, "raced", len(value.events)))

    env.process(coordinator(env))
    env.run(until=30.0)
    return log


class TestGeneratorParity:
    def test_process_scenario_identical_to_reference(self):
        assert _scenario(Environment()) == RECORDED_SCENARIO_LOG

    def test_run_until_event_returns_its_value(self):
        env = Environment()
        done = env.event()
        env.schedule_call(4.0, lambda _arg: done.succeed(42))
        assert env.run(until=done) == 42
        assert env.now == 4.0

    def test_run_until_never_reached_raises(self):
        env = Environment()
        never = env.event()
        env.schedule_call(1.0, lambda _arg: None)
        with pytest.raises(RuntimeError, match="no more events"):
            env.run(until=never)

    def test_run_on_empty_calendar_matches_reference(self):
        # run() drains quietly; step() raises.
        assert Environment().run() is None
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_peek_and_len(self):
        env = Environment()
        assert math.isinf(env.peek())
        assert len(env) == 0
        env.schedule_call(2.0, lambda _arg: None)
        env.timeout(1.0)
        assert env.peek() == 1.0
        assert len(env) == 2
