"""Population-engine equivalence suite: golden pins + statistical agreement.

The population engine (``engine="population"``) replaces per-client
request processes with exact aggregated per-(item, class) Poisson
streams and folds pending requests into per-class counters and
arrival-time moments.  Superposition of Poisson is Poisson and the
folded moments reconstruct the group delay statistics exactly, so the
engine is *statistically* identical to the per-client engines while its
per-event cost is independent of N.  Three layers of protection, mirror
of ``test_fast_equivalence.py``:

* **golden pins** — the population engine's own outputs are frozen
  across 3 seeds × both pull modes × faults on/off, so any behavioural
  drift shows up as an exact-count diff;
* **statistical agreement** — replication means must agree with the fast
  engine within combined confidence half-widths (RNG consumption order
  necessarily differs, so runs cannot be bit-identical);
* **structural invariants** — hypothesis-randomised configurations run
  to completion with the conservation watchdog auditing every ``run``.

The fault regime is downlink-only: the population engine aggregates
clients away, so per-client uplink recovery and reneging
(``client_recovery``) are out of scope by construction and rejected at
construction time (tested in ``TestScopeGuards``).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HybridConfig
from repro.core.faults import FaultConfig
from repro.sim import HybridSystem, run_replications, run_until_precision
from repro.sim.runner import spawn_seeds
from repro.workload.trace import RequestTrace

from .test_golden_equivalence import HORIZON, SEEDS, WARMUP, _fingerprint

#: Downlink-only fault regime (drop-newest shedding is exactly
#: group-equivalent; scored shedding policies and client recovery are
#: documented approximations/exclusions of the folded representation).
POP_FAULTS = FaultConfig(downlink_loss=0.12, queue_capacity=25)


def _config(with_faults: bool) -> HybridConfig:
    config = HybridConfig(num_items=40, cutoff=15, arrival_rate=1.5, num_clients=50)
    return config.with_faults(POP_FAULTS) if with_faults else config


#: (with_faults, pull_mode, seed) -> (satisfied, shed, blocked,
#: push_broadcasts, pull_services, overall_delay, mean_queue_length).
GOLDEN = {
    (False, "serial", 0): (499, 0, 39, 109, 88, 31.41610718330956, 14.2692920701086),
    (False, "serial", 7): (478, 0, 23, 108, 94, 29.121255546101676, 12.860454787528013),
    (False, "serial", 123): (444, 0, 18, 103, 86, 30.46819216552997, 11.421525180542265),
    (False, "concurrent", 0): (503, 0, 55, 176, 123, 17.072551397564702, 6.443677126078731),
    (False, "concurrent", 7): (468, 0, 52, 176, 131, 17.325356907326924, 7.256951791879974),
    (False, "concurrent", 123): (450, 0, 50, 176, 126, 15.495543753196694, 4.259527371036264),
    (True, "serial", 0): (483, 0, 21, 98, 84, 31.373135037652123, 14.62739654502789),
    (True, "serial", 7): (478, 0, 22, 88, 81, 36.27355147280396, 14.090979604822492),
    (True, "serial", 123): (405, 0, 19, 93, 77, 32.06324393183864, 12.395044150981668),
    (True, "concurrent", 0): (501, 0, 57, 167, 117, 18.448490140501047, 6.999268190825937),
    (True, "concurrent", 7): (474, 0, 44, 150, 114, 22.734770029316245, 9.17201087944893),
    (True, "concurrent", 123): (449, 0, 49, 155, 115, 18.963955992973997, 5.49943474183053),
}


@pytest.mark.parametrize("pull_mode", ["serial", "concurrent"])
@pytest.mark.parametrize("with_faults", [False, True], ids=["fault-off", "fault-on"])
class TestGoldenPins:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_population_engine_outputs_are_pinned(self, pull_mode, with_faults, seed):
        system = HybridSystem(
            _config(with_faults), seed=seed, warmup=WARMUP,
            pull_mode=pull_mode, engine="population",
        )
        result = system.run(HORIZON)
        satisfied, shed, blocked, pushes, pulls, delay, qlen = GOLDEN[
            (with_faults, pull_mode, seed)
        ]
        assert result.satisfied_requests == satisfied
        assert result.shed_requests == shed
        assert result.blocked_requests == blocked
        assert result.push_broadcasts == pushes
        assert result.pull_services == pulls
        assert result.overall_delay == pytest.approx(delay, rel=1e-9)
        assert result.mean_queue_length == pytest.approx(qlen, rel=1e-9)

    def test_population_engine_is_deterministic(self, pull_mode, with_faults):
        config = _config(with_faults)
        first = HybridSystem(
            config, seed=SEEDS[0], warmup=WARMUP, pull_mode=pull_mode,
            engine="population",
        ).run(HORIZON)
        second = HybridSystem(
            config, seed=SEEDS[0], warmup=WARMUP, pull_mode=pull_mode,
            engine="population",
        ).run(HORIZON)
        assert _fingerprint(first) == _fingerprint(second)

    def test_replications_identical_across_n_jobs(self, pull_mode, with_faults):
        config = _config(with_faults)
        serial = run_replications(
            config, num_runs=3, horizon=HORIZON, warmup=WARMUP,
            pull_mode=pull_mode, n_jobs=1, engine="population",
        )
        parallel = run_replications(
            config, num_runs=3, horizon=HORIZON, warmup=WARMUP,
            pull_mode=pull_mode, n_jobs=2, engine="population",
        )
        for left, right in zip(serial.runs, parallel.runs):
            assert _fingerprint(left) == _fingerprint(right)


@pytest.mark.parametrize("pull_mode", ["serial", "concurrent"])
@pytest.mark.parametrize("with_faults", [False, True], ids=["fault-off", "fault-on"])
class TestStatisticalAgreement:
    """Population means must agree with the fast engine within CIs.

    The population engine draws aggregated streams (one exponential per
    arrival instead of one per client process), so runs differ; over
    replications both engines simulate the same stochastic system and
    their confidence intervals must overlap.
    """

    def test_overall_delay_cis_overlap(self, pull_mode, with_faults):
        config = _config(with_faults)
        kwargs = dict(
            num_runs=6, horizon=HORIZON, warmup=WARMUP, pull_mode=pull_mode
        )
        fast = run_replications(config, engine="fast", **kwargs)
        population = run_replications(config, engine="population", **kwargs)

        fast_mean, fast_half = fast.overall_delay()
        pop_mean, pop_half = population.overall_delay()
        gap = abs(fast_mean - pop_mean)
        # Same 1.5x slack as the fast-vs-reference gate: cheap at 6
        # replications, while genuine divergence blows well past.
        allowance = 1.5 * (fast_half + pop_half)
        assert gap <= allowance, (
            f"engine means diverge: fast={fast_mean:.4f}±{fast_half:.4f} "
            f"population={pop_mean:.4f}±{pop_half:.4f}"
        )

    def test_throughput_within_ten_percent(self, pull_mode, with_faults):
        config = _config(with_faults)
        kwargs = dict(
            num_runs=6, horizon=HORIZON, warmup=WARMUP, pull_mode=pull_mode
        )
        fast = run_replications(config, engine="fast", **kwargs)
        population = run_replications(config, engine="population", **kwargs)
        fast_satisfied = sum(r.satisfied_requests for r in fast.runs)
        pop_satisfied = sum(r.satisfied_requests for r in population.runs)
        assert pop_satisfied == pytest.approx(fast_satisfied, rel=0.10)


class TestScopeGuards:
    """Unsupported per-client features must fail loudly, not silently."""

    def test_client_recovery_is_rejected(self):
        config = HybridConfig(arrival_rate=1.0, num_clients=20).with_faults(
            FaultConfig(uplink_loss=0.1)
        )
        with pytest.raises(ValueError, match="population"):
            HybridSystem(config, seed=0, engine="population")

    def test_deadlines_are_rejected(self):
        config = HybridConfig(arrival_rate=1.0, num_clients=20).with_faults(
            FaultConfig(class_deadlines=(80.0, 60.0, 40.0))
        )
        with pytest.raises(ValueError, match="population"):
            HybridSystem(config, seed=0, engine="population")

    def test_trace_replay_is_rejected(self):
        with pytest.raises(ValueError, match="population engine folds"):
            HybridSystem(
                HybridConfig(),
                seed=0,
                engine="population",
                trace=RequestTrace.empty(),
            )


class TestPrecisionResume:
    """Sequential stopping + checkpoints must stay exact under population mode.

    The stopping rule consumes seeds strictly in spawn order, so a
    resumed sweep replays the same prefix of the seed schedule and
    returns a bit-identical aggregate — the property that makes ladder
    rungs crash-safe.
    """

    def _sweep(self, tmp_path, resume):
        return run_until_precision(
            _config(with_faults=False),
            rel_halfwidth=0.08,
            min_runs=3,
            max_runs=8,
            horizon=HORIZON,
            warmup=WARMUP,
            base_seed=11,
            engine="population",
            checkpoint_dir=tmp_path / "ckpt",
            resume=resume,
        )

    def test_seeds_consumed_strictly_in_spawn_order(self, tmp_path):
        result = self._sweep(tmp_path, resume=False)
        schedule = spawn_seeds(11, 8)
        assert [r.seed for r in result.runs] == schedule[: result.num_runs]

    def test_resume_is_bit_identical(self, tmp_path):
        first = self._sweep(tmp_path, resume=False)
        resumed = self._sweep(tmp_path, resume=True)
        assert first.num_runs == resumed.num_runs
        assert [r.seed for r in first.runs] == [r.seed for r in resumed.runs]
        assert first.precision_met == resumed.precision_met
        assert first.overall_delay() == resumed.overall_delay()
        for left, right in zip(first.runs, resumed.runs):
            assert _fingerprint(left) == _fingerprint(right)


@st.composite
def _random_scenario(draw):
    with_faults = draw(st.booleans())
    pull_mode = draw(st.sampled_from(["serial", "concurrent"]))
    # Concurrent mode requires a non-empty push set (engine guards it).
    min_cutoff = 1 if pull_mode == "concurrent" else 0
    config = HybridConfig(
        num_items=draw(st.integers(min_value=10, max_value=60)),
        cutoff=draw(st.integers(min_value=min_cutoff, max_value=10)),
        arrival_rate=draw(st.floats(min_value=0.2, max_value=3.0)),
        num_clients=draw(st.integers(min_value=5, max_value=60)),
    )
    if with_faults:
        config = config.with_faults(POP_FAULTS)
    return config, pull_mode


class TestStructuralInvariants:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=_random_scenario(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_population_run_completes_and_conserves(self, scenario, seed):
        config, pull_mode = scenario
        system = HybridSystem(
            config, seed=seed, warmup=10.0, pull_mode=pull_mode, engine="population"
        )
        # The watchdog audits request conservation inside run(); reaching
        # the return already proves the ledger balances.
        result = system.run(150.0)
        assert result.horizon == 150.0
        assert result.satisfied_requests >= 0
        assert result.push_broadcasts >= 0
        assert result.pull_services >= 0
        if not math.isnan(result.overall_delay):
            assert result.overall_delay >= 0.0
