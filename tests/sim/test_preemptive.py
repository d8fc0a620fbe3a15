"""Tests for the preemptive-resume pull service extension."""

import pytest

from repro.core import FaultConfig, HybridConfig
from repro.sim import HybridSystem
from repro.sim.preemptive import PreemptiveHybridServer
from repro.workload import Request, RequestTrace


def build(threshold=0.0, alpha=0.0, **config_kwargs):
    defaults = dict(num_items=10, cutoff=2, length_law="constant", alpha=alpha)
    defaults.update(config_kwargs)
    return HybridSystem(
        HybridConfig(**defaults),
        seed=0,
        trace=RequestTrace.empty(),
        server_cls=PreemptiveHybridServer,
        server_kwargs={"preemption_threshold": threshold},
    )


def req(t, item, rank=2, priority=1.0):
    return Request(time=t, item_id=item, client_id=0, class_rank=rank, priority=priority)


class TestConstruction:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            build(threshold=-0.1)

    def test_serial_mode_only(self):
        with pytest.raises(ValueError, match="serial"):
            HybridSystem(
                HybridConfig(),
                seed=0,
                pull_mode="concurrent",
                server_cls=PreemptiveHybridServer,
            )


class TestPreemptionMechanics:
    def test_higher_priority_arrival_preempts(self):
        system = build(alpha=0.0)
        server = system.server
        env = system.env

        # Item 5 (low priority) requested at t=0: push [0,2), pull starts
        # at t=2 and would finish at t=4.
        server.submit(req(0.0, item=5, rank=2, priority=1.0))

        def challenger():
            yield env.timeout(2.5)  # mid-transmission of item 5
            server.submit(req(env.now, item=7, rank=0, priority=30.0))

        env.process(challenger())
        env.run(until=20.0)
        assert server.preemptions == 1
        # Both requests eventually satisfied.
        assert system.metrics.result(20.0, 0).satisfied_requests == 2

    def test_no_preemption_below_threshold(self):
        system = build(threshold=1e9, alpha=0.0)
        server = system.server
        env = system.env
        server.submit(req(0.0, item=5, rank=2, priority=1.0))

        def challenger():
            yield env.timeout(2.5)
            server.submit(req(env.now, item=7, rank=0, priority=30.0))

        env.process(challenger())
        env.run(until=20.0)
        assert server.preemptions == 0

    def test_no_preemption_by_weaker_entry(self):
        system = build(alpha=0.0)
        server = system.server
        env = system.env
        server.submit(req(0.0, item=5, rank=0, priority=30.0))

        def challenger():
            yield env.timeout(2.5)
            server.submit(req(env.now, item=7, rank=2, priority=1.0))

        env.process(challenger())
        env.run(until=20.0)
        assert server.preemptions == 0

    def test_push_requests_never_trigger_preemption(self):
        system = build(alpha=0.0)
        server = system.server
        env = system.env
        server.submit(req(0.0, item=5, rank=2, priority=1.0))

        def challenger():
            yield env.timeout(2.5)
            server.submit(req(env.now, item=0, rank=0, priority=30.0))  # push item

        env.process(challenger())
        env.run(until=20.0)
        assert server.preemptions == 0

    def test_resume_semantics_shrink_remaining_length(self):
        system = build(alpha=0.0)
        server = system.server
        env = system.env
        server.submit(req(0.0, item=5, rank=2, priority=1.0))

        def challenger():
            yield env.timeout(3.0)  # item 5 transmitted [2,3) of its 2 units... half
            server.submit(req(env.now, item=7, rank=0, priority=30.0))

        env.process(challenger())
        env.run(until=4.5)
        entry = server.pull_queue.peek(5)
        assert entry is not None
        # One unit of its 2-unit length already transmitted.
        assert entry.length == pytest.approx(1.0)


class TestConservationUnderPreemption:
    def test_requests_conserved_with_live_load(self):
        system = HybridSystem(
            HybridConfig(alpha=0.0, arrival_rate=5.0),
            seed=3,
            server_cls=PreemptiveHybridServer,
            server_kwargs={"preemption_threshold": 0.0},
        )
        result = system.run(1_000.0)
        arrived = sum(c.count for c in system.metrics.arrivals_by_class.values())
        pending = (
            system.server.pending_push_requests
            + system.server.pending_pull_requests
            + system.server.in_flight_pull_requests
        )
        assert result.satisfied_requests + result.blocked_requests + pending == arrived
        assert system.server.preemptions > 0


class TestKernelTransmissions:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_lossy_downlink_pulls_balance_under_the_watchdog(self, engine):
        # The kernel puts the preemptive server's pulls on air: they are
        # corrupted and re-queued by ARQ like any other, and every one
        # started is completed, corrupted, preempted or still on air.
        config = HybridConfig(alpha=0.0, theta=0.60, cutoff=40).with_faults(
            FaultConfig(downlink_loss=0.3)
        )
        system = HybridSystem(
            config,
            seed=5,
            server_cls=PreemptiveHybridServer,
            server_kwargs={"preemption_threshold": 0.1},
            engine=engine,
        )
        system.run(2_000.0)
        server = system.server
        assert server.pull_tx_completed > 0
        assert server.pull_tx_corrupted > 0
        assert server.pull_tx_preempted == server.preemptions > 0
        assert server.pull_tx_started == (
            server.pull_tx_completed
            + server.pull_tx_corrupted
            + server.pull_tx_preempted
            + server.active_pull_transmissions
        )
        # Periodic audits plus the one at the horizon.
        assert system.watchdog.checks_performed > 1
