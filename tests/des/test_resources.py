"""Unit tests for repro.des.resources: the FIFO Store."""

import pytest

from repro.des import Environment, Store


@pytest.fixture()
def env():
    return Environment()


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for item in ("x", "y", "z"):
                yield store.put(item)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["x", "y", "z"]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            yield store.put("b")
            log.append(("b-stored", env.now))

        def consumer(env):
            yield env.timeout(4)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [("b-stored", 4)]

    def test_get_blocks_on_empty(self, env):
        store = Store(env)
        log = []

        def consumer(env):
            item = yield store.get()
            log.append((item, env.now))

        def producer(env):
            yield env.timeout(7)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert log == [("late", 7)]
