"""Edge-case tests for less-travelled DES engine paths."""

import pytest

from repro.des import Environment, Interrupt, Store


@pytest.fixture()
def env():
    return Environment()


class TestEventEdgeCases:
    def test_trigger_on_triggered_event_raises(self, env):
        src = env.event()
        src.succeed("x")
        dst = env.event()
        dst.succeed("y")
        with pytest.raises(RuntimeError):
            dst.trigger(src)

    def test_fail_after_succeed_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("nope"))

    def test_succeed_returns_self_for_chaining(self, env):
        ev = env.event()
        assert ev.succeed(5) is ev

    def test_condition_with_failed_processed_event(self, env):
        # A pre-processed failed (defused) event folded into a condition
        # must fail the condition immediately.
        bad = env.event()
        bad.fail(ValueError("early"))
        bad.defused = True
        env.run()

        def waiter(env):
            with pytest.raises(ValueError, match="early"):
                yield bad & env.timeout(5)

        env.process(waiter(env))
        env.run()


class TestProcessEdgeCases:
    def test_generator_catching_and_reraising(self, env):
        def inner(env):
            yield env.timeout(1)
            raise OSError("disk")

        def outer(env):
            try:
                yield env.process(inner(env))
            except OSError:
                raise RuntimeError("wrapped") from None

        p = env.process(outer(env))
        with pytest.raises(RuntimeError, match="wrapped"):
            env.run()
        assert not p.ok

    def test_interrupt_queued_for_process_that_dies_same_instant(self, env):
        # Interrupt scheduled, but the victim finishes first at the same
        # timestamp: the interrupt must evaporate silently.
        def victim(env):
            yield env.timeout(5)

        def attacker(env, proc):
            yield env.timeout(5)
            # Victim's timeout processes first (created first), so it is
            # already dead here; interrupt() must raise RuntimeError.
            with pytest.raises(RuntimeError):
                proc.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()

    def test_target_tracking(self, env):
        def proc(env):
            yield env.timeout(3)

        p = env.process(proc(env))
        env.run(until=1)
        assert p.target is not None  # waiting on the timeout
        env.run()
        assert p.target is None  # finished


class TestStoreEdgeCases:
    def test_cancel_queued_get(self, env):
        store = Store(env)

        def impatient(env):
            get = store.get()
            result = yield get | env.timeout(2)
            assert get not in result
            get.cancel()

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(impatient(env))
        env.process(producer(env))
        env.run()
        # The cancelled get must not have consumed the item.
        assert store.items == ["late"]

    def test_put_then_interrupted_consumer(self, env):
        store = Store(env)

        def consumer(env):
            try:
                yield store.get()
            except Interrupt:
                return "interrupted"

        def attacker(env, proc):
            yield env.timeout(1)
            proc.interrupt()

        def producer(env):
            yield env.timeout(2)
            yield store.put("late")

        p = env.process(consumer(env))
        env.process(attacker(env, p))
        env.process(producer(env))
        env.run()
        assert p.value == "interrupted"
        # The interrupted consumer's pending get was withdrawn, so the
        # item must still be in the store (not lost to a dead waiter).
        assert store.items == ["late"]
