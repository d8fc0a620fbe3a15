"""Unit tests for the finite-capacity uplink back-channel."""

import dataclasses
import math

import pytest

from repro.core import HybridConfig
from repro.des import Environment
from repro.sim import HybridSystem, UplinkChannel
from repro.workload import Request


def req(t=0.0, item=0):
    return Request(time=t, item_id=item, client_id=0, class_rank=0, priority=3.0)


class TestIdealChannel:
    def test_infinite_rate_delivers_instantly(self):
        env = Environment()
        seen = []
        channel = UplinkChannel(env, deliver=seen.append)
        assert channel.ideal
        assert channel.offer(req())
        assert len(seen) == 1
        assert channel.delivered.count == 1
        assert channel.dropped.count == 0


class TestFiniteChannel:
    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            UplinkChannel(env, deliver=lambda r: None, rate=0)
        with pytest.raises(ValueError):
            UplinkChannel(env, deliver=lambda r: None, rate=1.0, buffer=-1)

    def test_delivery_delayed_by_transmission(self):
        env = Environment()
        seen = []
        channel = UplinkChannel(env, deliver=lambda r: seen.append(env.now), rate=2.0)
        channel.offer(req())
        env.run()
        assert seen == [0.5]  # 1/rate

    def test_queueing_serialises_requests(self):
        env = Environment()
        seen = []
        channel = UplinkChannel(env, deliver=lambda r: seen.append(env.now), rate=1.0)
        for _ in range(3):
            channel.offer(req())
        env.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_full_buffer_drops(self):
        env = Environment()
        channel = UplinkChannel(env, deliver=lambda r: None, rate=1.0, buffer=1)
        # Capacity = buffer + 1 (in-flight slot): third offer is dropped.
        assert channel.offer(req())
        assert channel.offer(req())
        assert not channel.offer(req())
        assert channel.dropped.count == 1

    @pytest.mark.parametrize("buffer", [0, 1, 3])
    def test_waiting_room_excludes_the_request_on_air(self, buffer):
        # Once the transmit loop runs, the channel holds one request on
        # air plus ``buffer`` waiting; the offer after that is dropped.
        env = Environment()
        channel = UplinkChannel(env, deliver=lambda r: None, rate=1.0, buffer=buffer)
        accepted = []

        def offer_burst():
            yield env.timeout(0.5)
            accepted.extend(channel.offer(req(0.5)) for _ in range(buffer + 2))

        env.process(offer_burst())
        env.run()
        assert accepted == [True] * (buffer + 1) + [False]
        assert channel.dropped.count == 1
        assert channel.delivered.count == buffer + 1

    def test_buffer_drains_and_accepts_again(self):
        env = Environment()
        channel = UplinkChannel(env, deliver=lambda r: None, rate=1.0, buffer=0)
        assert channel.offer(req())
        assert not channel.offer(req())
        env.run()
        assert channel.offer(req())

    def test_drop_fraction(self):
        env = Environment()
        channel = UplinkChannel(env, deliver=lambda r: None, rate=1.0, buffer=0)
        channel.offer(req())
        channel.offer(req())  # dropped
        env.run()
        assert channel.drop_fraction() == pytest.approx(0.5)

    def test_drop_fraction_nan_when_unused(self):
        env = Environment()
        channel = UplinkChannel(env, deliver=lambda r: None, rate=1.0)
        assert math.isnan(channel.drop_fraction())


class TestSystemIntegration:
    def test_ideal_uplink_is_default(self):
        system = HybridSystem(HybridConfig(), seed=0)
        assert system.uplink.ideal

    def test_starved_uplink_throttles_server(self):
        base = HybridConfig(arrival_rate=5.0)
        throttled_cfg = dataclasses.replace(base, uplink_rate=1.0, uplink_buffer=4)
        free = HybridSystem(base, seed=1).run(800.0)
        system = HybridSystem(throttled_cfg, seed=1)
        throttled = system.run(800.0)
        # Most requests never reach the server.
        assert system.uplink.drop_fraction() > 0.5
        assert throttled.satisfied_requests < free.satisfied_requests

    def test_generous_uplink_close_to_ideal(self):
        base = HybridConfig(arrival_rate=2.0)
        generous_cfg = dataclasses.replace(base, uplink_rate=50.0, uplink_buffer=256)
        system = HybridSystem(generous_cfg, seed=2)
        result = system.run(800.0)
        assert system.uplink.drop_fraction() == pytest.approx(0.0, abs=1e-9)
        assert result.satisfied_requests > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HybridConfig(), uplink_rate=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(HybridConfig(), uplink_buffer=-1)
