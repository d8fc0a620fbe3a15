"""Unit tests for the fault-injection & graceful-degradation layer."""

import math

import pytest

from repro.core import HybridConfig
from repro.core.faults import SHEDDING_POLICIES, FaultConfig
from repro.des import RandomStreams
from repro.schedulers.importance_factor import ImportanceFactorScheduler
from repro.schedulers.base import PullQueue
from repro.sim import run_single
from repro.sim.faults import FaultInjector, select_shed_victim
from repro.workload.arrivals import Request


class TestFaultConfigValidation:
    def test_default_is_inert(self):
        cfg = FaultConfig()
        assert not cfg.active
        assert not cfg.channel_faults
        assert not cfg.client_recovery

    def test_activation_flags(self):
        assert FaultConfig(downlink_loss=0.1).channel_faults
        assert FaultConfig(uplink_loss=0.1).client_recovery
        assert FaultConfig(class_deadlines=(10.0,)).client_recovery
        assert FaultConfig(queue_capacity=5).active
        assert not FaultConfig(queue_capacity=5).channel_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"downlink_loss": 1.0},
            {"downlink_loss": -0.1},
            {"downlink_mean_burst": 0.5},
            {"good_state_loss": 0.5, "bad_state_loss": 0.2},
            {"downlink_loss": 0.5, "bad_state_loss": 0.3},
            {"uplink_loss": 1.0},
            {"max_retries": -1},
            {"backoff_base": 0.0},
            {"backoff_cap": 0.5, "backoff_base": 1.0},
            {"backoff_jitter": 1.0},
            {"class_deadlines": ()},
            {"class_deadlines": (10.0, -1.0)},
            {"queue_capacity": 0},
            {"shedding_policy": "drop-random"},
            {"watchdog_interval": 0.0},
            # Hardened in PR 4: NaN/inf used to slip through the simple
            # sign checks (`nan <= 0` is False) and poison timers later.
            {"watchdog_interval": math.nan},
            {"watchdog_interval": math.inf},
            {"backoff_base": math.nan},
            {"backoff_base": math.inf},
            {"backoff_cap": math.nan, "backoff_base": 1.0},
            {"class_deadlines": (10.0, math.nan)},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_rejection_messages_are_actionable(self):
        # Every validation error should tell the user what to set.
        with pytest.raises(ValueError, match="watchdog_interval"):
            FaultConfig(watchdog_interval=math.nan)
        with pytest.raises(ValueError, match="backoff_base"):
            FaultConfig(backoff_base=-1.0)

    def test_gilbert_elliott_closed_forms(self):
        cfg = FaultConfig(downlink_loss=0.2, downlink_mean_burst=5.0)
        assert cfg.bad_occupancy == pytest.approx(0.2)  # loss / bad_state_loss
        assert cfg.bad_to_good == pytest.approx(0.2)  # 1 / mean burst
        # Stationary balance: pi_B = p_gb / (p_gb + p_bg).
        p_gb = cfg.good_to_bad
        assert p_gb / (p_gb + cfg.bad_to_good) == pytest.approx(cfg.bad_occupancy)

    def test_deadline_for_fallback(self):
        cfg = FaultConfig(class_deadlines=(100.0, 50.0))
        assert cfg.deadline_for(0) == 100.0
        assert cfg.deadline_for(1) == 50.0
        assert cfg.deadline_for(5) == 50.0  # beyond tuple -> last entry
        assert math.isinf(FaultConfig().deadline_for(0))


class TestFaultInjector:
    def _injector(self, seed=0, **kwargs):
        return FaultInjector(FaultConfig(**kwargs), RandomStreams(seed=seed))

    def test_inert_without_loss(self):
        injector = self._injector()
        assert not any(injector.downlink_lost() for _ in range(50))
        assert not any(injector.uplink_lost() for _ in range(50))
        assert injector.downlink_draws == 0
        assert injector.uplink_draws == 0

    def test_deterministic_across_instances(self):
        a = self._injector(seed=7, downlink_loss=0.3, uplink_loss=0.2)
        b = self._injector(seed=7, downlink_loss=0.3, uplink_loss=0.2)
        assert [a.downlink_lost() for _ in range(200)] == [
            b.downlink_lost() for _ in range(200)
        ]
        assert [a.uplink_lost() for _ in range(200)] == [
            b.uplink_lost() for _ in range(200)
        ]

    def test_stationary_loss_rate(self):
        injector = self._injector(seed=1, downlink_loss=0.25, downlink_mean_burst=4.0)
        n = 40_000
        losses = sum(injector.downlink_lost() for _ in range(n))
        assert losses / n == pytest.approx(0.25, abs=0.02)

    def test_losses_are_bursty(self):
        """With mean burst 8, losses cluster far more than memoryless ones."""
        injector = self._injector(seed=2, downlink_loss=0.2, downlink_mean_burst=8.0)
        draws = [injector.downlink_lost() for _ in range(40_000)]
        pairs = sum(1 for x, y in zip(draws, draws[1:]) if x and y)
        losses = sum(draws)
        # P(loss | previous loss) should approach the bad-state persistence
        # (1 - 1/8 = 0.875), far above the stationary 0.2 of a Bernoulli
        # channel with the same average loss.
        assert pairs / losses > 0.5

    def test_uplink_rate(self):
        injector = self._injector(seed=3, uplink_loss=0.1)
        n = 20_000
        assert sum(injector.uplink_lost() for _ in range(n)) / n == pytest.approx(
            0.1, abs=0.02
        )


class TestSheddingPolicies:
    def _queue(self):
        catalog = HybridConfig().build_catalog()
        queue = PullQueue(catalog)
        # item 5: one class-A requester (priority 3)
        queue.add(Request(time=0.0, item_id=5, client_id=0, class_rank=0, priority=3.0))
        # item 6: three class-C requesters (total priority 3, more requests)
        for c in range(3):
            queue.add(
                Request(time=1.0, item_id=6, client_id=10 + c, class_rank=2, priority=1.0)
            )
        # item 7: one class-C requester (priority 1) — the weakest entry
        queue.add(Request(time=2.0, item_id=7, client_id=20, class_rank=2, priority=1.0))
        return queue

    def _candidate(self, queue, class_rank=1, priority=2.0):
        return queue.make_entry(
            Request(time=3.0, item_id=30, client_id=30, class_rank=class_rank, priority=priority)
        )

    def test_drop_newest_rejects_candidate(self):
        queue = self._queue()
        victim = select_shed_victim(
            "drop-newest", queue, self._candidate(queue), ImportanceFactorScheduler(0.0), 3.0
        )
        assert victim is None

    def test_drop_lowest_priority_evicts_weakest_entry(self):
        queue = self._queue()
        victim = select_shed_victim(
            "drop-lowest-priority", queue, self._candidate(queue), ImportanceFactorScheduler(0.0), 3.0
        )
        assert victim == 7

    def test_drop_lowest_priority_can_reject_candidate(self):
        queue = self._queue()
        weak = self._candidate(queue, class_rank=2, priority=0.5)
        victim = select_shed_victim(
            "drop-lowest-priority", queue, weak, ImportanceFactorScheduler(0.0), 3.0
        )
        assert victim is None

    def test_drop_lowest_gamma_uses_scheduler_score(self):
        queue = self._queue()
        # Pure priority (alpha=0): gamma = Q_i, so item 7 (Q=1) is weakest.
        victim = select_shed_victim(
            "drop-lowest-gamma", queue, self._candidate(queue), ImportanceFactorScheduler(0.0), 3.0
        )
        assert victim == 7

    def test_priority_ties_break_on_fewer_requests(self):
        queue = self._queue()
        # Items 5 (1 request, Q=3) and 6 (3 requests, Q=3) tie on priority;
        # fewer requests loses.  Remove item 7 first so it cannot win.
        queue.pop(7)
        candidate = self._candidate(queue, class_rank=0, priority=3.0)
        victim = select_shed_victim(
            "drop-lowest-priority", queue, candidate, ImportanceFactorScheduler(0.0), 3.0
        )
        assert victim in (5, 30) or victim is None
        # candidate has 1 request / priority 3 too: tie broken toward
        # larger item id => the candidate (item 30) loses.
        assert victim is None


class TestZeroFaultFidelity:
    """FaultConfig() must reproduce the seed simulator bit-for-bit."""

    GOLDEN = {
        "serial": (83.53068918492134, 3123, 44, 482.50280133603485),
        "concurrent": (48.84265110942477, 3240, 180, 279.8568577071872),
    }

    @pytest.mark.parametrize("mode", ["serial", "concurrent"])
    def test_golden_values(self, mode):
        result = run_single(HybridConfig(), seed=3, horizon=800.0, pull_mode=mode)
        delay, satisfied, blocked, cost = self.GOLDEN[mode]
        assert result.overall_delay == delay
        assert result.satisfied_requests == satisfied
        assert result.blocked_requests == blocked
        assert result.total_prioritized_cost == cost

    @pytest.mark.parametrize("mode", ["serial", "concurrent"])
    def test_explicit_zero_fault_config_identical(self, mode):
        base = run_single(HybridConfig(), seed=9, horizon=400.0, pull_mode=mode)
        armed = run_single(
            HybridConfig().with_faults(FaultConfig()),
            seed=9,
            horizon=400.0,
            pull_mode=mode,
        )
        assert armed.overall_delay == base.overall_delay
        assert armed.per_class_delay == base.per_class_delay
        assert armed.per_class_blocking == base.per_class_blocking
        assert armed.total_prioritized_cost == base.total_prioritized_cost
        assert armed.satisfied_requests == base.satisfied_requests
        assert armed.reneged_requests == 0
        assert armed.shed_requests == 0
        assert armed.corrupted_push_slots == 0


class TestChannelFaultsEndToEnd:
    def test_downlink_loss_records_corruption(self):
        config = HybridConfig().with_faults(FaultConfig(downlink_loss=0.2))
        result = run_single(config, seed=4, horizon=600.0)
        assert result.corrupted_push_slots > 0
        assert result.corrupted_pull_transmissions > 0
        assert result.satisfied_requests > 0

    def test_downlink_loss_degrades_delay(self):
        ideal = run_single(HybridConfig(), seed=4, horizon=600.0)
        lossy = run_single(
            HybridConfig().with_faults(FaultConfig(downlink_loss=0.3)),
            seed=4,
            horizon=600.0,
        )
        assert lossy.overall_delay > ideal.overall_delay

    def test_uplink_retries_and_abandonment(self):
        config = HybridConfig().with_faults(
            FaultConfig(uplink_loss=0.4, max_retries=2, backoff_base=0.5)
        )
        result = run_single(config, seed=5, horizon=400.0)
        assert result.client_retries > 0
        assert result.uplink_abandoned > 0
        assert result.uplink_dropped >= result.uplink_abandoned

    def test_no_retries_means_every_loss_terminal(self):
        config = HybridConfig().with_faults(FaultConfig(uplink_loss=0.3, max_retries=0))
        result = run_single(config, seed=5, horizon=400.0)
        assert result.client_retries == 0
        assert result.uplink_abandoned > 0

    def test_reneging_records_per_class(self):
        config = HybridConfig().with_faults(
            FaultConfig(class_deadlines=(5.0, 5.0, 5.0))
        )
        result = run_single(config, seed=6, horizon=400.0)
        assert result.reneged_requests > 0
        assert result.reneged_requests == sum(result.per_class_reneged.values())

    def test_premium_deadline_spares_premium_class(self):
        config = HybridConfig().with_faults(
            FaultConfig(class_deadlines=(math.inf, math.inf, 3.0))
        )
        result = run_single(config, seed=6, horizon=400.0)
        assert result.per_class_reneged["A"] == 0
        assert result.per_class_reneged["B"] == 0
        assert result.per_class_reneged["C"] > 0


class TestBoundedQueue:
    @pytest.mark.parametrize("policy", SHEDDING_POLICIES)
    def test_capacity_respected_and_sheds(self, policy):
        config = HybridConfig().with_faults(
            FaultConfig(queue_capacity=5, shedding_policy=policy)
        )
        from repro.sim import HybridSystem

        system = HybridSystem(config, seed=7)
        result = system.run(horizon=400.0)
        assert len(system.server.pull_queue) <= 5
        assert result.shed_requests > 0
        assert result.shed_requests == sum(result.per_class_shed.values())

    def test_class_aware_policy_sheds_low_priority_first(self):
        def shed_per_class(policy):
            config = HybridConfig().with_faults(
                FaultConfig(queue_capacity=5, shedding_policy=policy)
            )
            return run_single(config, seed=8, horizon=600.0).per_class_shed

        aware = shed_per_class("drop-lowest-priority")
        # The lowest-priority class must absorb the bulk of the sacrifice.
        assert aware["C"] > aware["A"]


class TestWatchdogProvenance:
    """Violation messages must pin the exact run: seed + config hash."""

    @staticmethod
    def _watchdog(**overrides):
        from types import SimpleNamespace

        from repro.sim.faults import ConservationWatchdog

        server = SimpleNamespace(
            store=SimpleNamespace(drain=lambda now: None),
            pending_push_requests=0,
            pending_pull_requests=0,
            in_flight_pull_requests=0,
            active_pull_transmissions=0,
            pull_tx_started=0,
            pull_tx_completed=0,
            pull_tx_corrupted=0,
            pull_tx_preempted=0,
            pull_mode="serial",
        )
        metrics = SimpleNamespace(
            raw_arrivals=5,
            raw_satisfied=3,
            raw_blocked=0,
            raw_reneged=0,
            raw_shed=0,
            raw_uplink_abandoned=0,
        )
        kwargs = dict(seed=42, config_hash="abc123", interval=None)
        kwargs.update(overrides)
        env = SimpleNamespace(now=100.0)
        return ConservationWatchdog(env, server, metrics, **kwargs)

    def test_violation_carries_seed_and_config_hash(self):
        from repro.sim.faults import InvariantViolation

        # 5 generated, 3 satisfied, nothing queued anywhere: the ledger
        # is off by 2, so check() must raise — with full provenance.
        watchdog = self._watchdog()
        with pytest.raises(InvariantViolation) as excinfo:
            watchdog.check()
        message = str(excinfo.value)
        assert "seed=42" in message
        assert "config=abc123" in message
        assert excinfo.value.seed == 42

    def test_provenance_omitted_when_unknown(self):
        from repro.sim.faults import InvariantViolation

        watchdog = self._watchdog(seed=None, config_hash=None)
        with pytest.raises(InvariantViolation) as excinfo:
            watchdog.check()
        assert "seed=" not in str(excinfo.value)

    def test_end_to_end_runs_carry_provenance(self):
        # A healthy run never raises, but the armed watchdog must have
        # received both identifiers from the system wiring.
        from repro.sim import HybridSystem

        config = HybridConfig().with_faults(FaultConfig(watchdog_interval=50.0))
        system = HybridSystem(config, seed=9)
        system.run(horizon=200.0)
        assert system.watchdog.seed == 9
        assert system.watchdog.config_hash
