"""Integration tests reproducing the paper's qualitative results (§5).

Each test pins one claim of the evaluation section at a scale large
enough for the shape to be statistically solid.  These are the tests
that say "the reproduction reproduces".
"""

import numpy as np
import pytest

from repro import HybridConfig
from repro.core import blocking_probabilities, optimize_shares
from repro.experiments import ExperimentScale, delay_vs_cutoff, push_policy_comparison
from repro.sim import HybridSystem, build_adaptive_system, run_replications, run_single
from repro.workload import WorkloadPhase

HORIZON = 4_000.0
SCALE = ExperimentScale(horizon=HORIZON, num_seeds=1)


@pytest.fixture(scope="module")
def alpha0_result():
    # Pure priority scheduling at the paper's load.
    return run_replications(
        HybridConfig(theta=0.60, alpha=0.0, cutoff=40),
        num_runs=2,
        horizon=HORIZON,
    )


@pytest.fixture(scope="module")
def cutoff_curves():
    """Per-class delay curves of Figs. 3 (α = 0) and 4 (α = 1) at K = 10, 40, 70."""
    curves = {}
    for alpha in (0.0, 1.0):
        fig = delay_vs_cutoff(alpha=alpha, theta=0.60, cutoffs=(10, 40, 70), scale=SCALE)
        curves[alpha] = {c: np.array(fig.series_by_label(f"Class-{c}").y) for c in "AC"}
    return curves


class TestClassDifferentiation:
    """§5.2: Class-A delay lowest, Class-C highest."""

    def test_delay_ordering_alpha0(self, alpha0_result):
        d = alpha0_result.per_class_delays()
        assert d["A"] < d["B"] < d["C"]

    def test_pull_delay_ordering_alpha0(self, alpha0_result):
        a, _ = alpha0_result.pull_delay("A")
        b, _ = alpha0_result.pull_delay("B")
        c, _ = alpha0_result.pull_delay("C")
        assert a < b < c
        # The premium class is served markedly faster on the pull side.
        assert c / a > 1.25

    def test_alpha1_collapses_differentiation(self):
        result = run_replications(
            HybridConfig(theta=0.60, alpha=1.0, cutoff=40),
            num_runs=2,
            horizon=HORIZON,
        )
        a, _ = result.pull_delay("A")
        c, _ = result.pull_delay("C")
        # Stretch-only scheduling ignores priorities: spread within noise.
        assert abs(c - a) / a < 0.15

    def test_premium_not_slower_at_any_cutoff_alpha0(self, cutoff_curves):
        # Fig. 3: the ordering holds along the whole K axis.
        a, c = cutoff_curves[0.0]["A"], cutoff_curves[0.0]["C"]
        assert np.all(a <= c * 1.05)

    def test_alpha1_collapses_at_every_cutoff(self, cutoff_curves):
        # Fig. 4: no differentiation anywhere along the K axis.
        a, c = cutoff_curves[1.0]["A"], cutoff_curves[1.0]["C"]
        assert np.all(np.abs(c - a) / a < 0.25)

    def test_differentiation_grows_as_alpha_falls(self):
        spreads = []
        for alpha in (1.0, 0.5, 0.0):
            result = run_single(
                HybridConfig(theta=0.60, alpha=alpha, cutoff=40),
                seed=5,
                horizon=HORIZON,
            )
            spread = (
                result.per_class_pull_delay["C"] - result.per_class_pull_delay["A"]
            )
            spreads.append(spread)
        assert spreads[0] < spreads[-1]  # alpha=1 spread < alpha=0 spread


class TestCutoffShape:
    """§5.2: delay high at small K; interior optimum exists."""

    @pytest.fixture(scope="class")
    def runs(self):
        base = HybridConfig(theta=0.60, alpha=0.25)
        return {
            k: run_single(base.with_cutoff(k), seed=2, horizon=HORIZON)
            for k in (5, 25, 55, 90)
        }

    @pytest.fixture(scope="class")
    def sweep(self, runs):
        return {k: result.overall_delay for k, result in runs.items()}

    def test_low_cutoff_penalty(self, sweep):
        assert sweep[5] > sweep[25]

    def test_high_cutoff_penalty(self, sweep):
        assert sweep[90] > sweep[25]

    def test_interior_optimum(self, sweep):
        best = min(sweep, key=sweep.get)
        assert best in (25, 55)

    def test_low_cutoff_cost_penalty(self, runs):
        # Fig. 5: the small-K corner costs more than the best K.
        costs = {k: result.total_prioritized_cost for k, result in runs.items()}
        assert costs[5] > min(costs.values())

    def test_low_cutoff_penalises_basic_class_alpha0(self, cutoff_curves):
        # Fig. 3: the basic class absorbs the small-K pull congestion.
        c = cutoff_curves[0.0]["C"]
        assert c[0] > c.min()


class TestPrioritizedCost:
    """§5.3: decreasing α reduces the total prioritized cost."""

    def test_cost_falls_with_alpha(self):
        # Fig. 6 draws one curve per θ; priority helps on each.
        for theta in (0.20, 0.60):
            costs = {}
            for alpha in (0.0, 1.0):
                result = run_replications(
                    HybridConfig(theta=theta, alpha=alpha, cutoff=40),
                    num_runs=2,
                    horizon=HORIZON,
                )
                costs[alpha], _ = result.total_cost()
            assert costs[0.0] < costs[1.0], theta


class TestBlocking:
    """Abstract: proper bandwidth allocation keeps premium drops low."""

    def test_blocking_ordering_with_weighted_shares(self):
        # Default shares 0.5/0.3/0.2 of 20 units, Poisson(4) demand.
        result = run_replications(
            HybridConfig(theta=0.60, alpha=0.25, cutoff=40),
            num_runs=2,
            horizon=HORIZON,
        )
        a, _ = result.blocking("A")
        c, _ = result.blocking("C")
        assert a < c
        assert a < 0.02  # premium essentially unblocked

    def test_more_premium_bandwidth_less_premium_blocking(self):
        base = HybridConfig(theta=0.60, alpha=0.25, cutoff=40)
        starved = run_single(
            base.with_bandwidth_shares([0.15, 0.45, 0.40]), seed=3, horizon=HORIZON
        )
        protected = run_single(
            base.with_bandwidth_shares([0.60, 0.25, 0.15]), seed=3, horizon=HORIZON
        )
        assert (
            protected.per_class_blocking["A"] <= starved.per_class_blocking["A"]
        )

    def test_optimised_partition_beats_uniform(self):
        config = HybridConfig()
        allocation = optimize_shares(config, resolution=12)
        uniform = blocking_probabilities(
            np.full(3, 1 / 3), config.total_bandwidth, config.bandwidth_demand_mean
        )
        assert allocation.weighted_blocking <= float(config.class_priorities() @ uniform)


class TestSkewEffect:
    """Higher access skew concentrates demand: the push set captures more."""

    def test_skew_reduces_pull_traffic(self):
        base = HybridConfig(alpha=0.5, cutoff=40)
        flat = run_single(base.with_theta(0.20), seed=4, horizon=HORIZON)
        skewed = run_single(base.with_theta(1.40), seed=4, horizon=HORIZON)
        assert skewed.pull_services < flat.pull_services

    def test_skew_reduces_delay_at_fixed_cutoff(self):
        base = HybridConfig(alpha=0.5, cutoff=40)
        flat = run_single(base.with_theta(0.20), seed=4, horizon=HORIZON)
        skewed = run_single(base.with_theta(1.40), seed=4, horizon=HORIZON)
        assert skewed.overall_delay < flat.overall_delay


class TestPushPrograms:
    """E8: under skewed access, popularity-aware broadcast programs beat flat."""

    def test_srr_and_disks_beat_flat_push_only(self):
        _, delay = push_policy_comparison(theta=1.0, scale=SCALE)
        assert delay["srr"] < delay["flat"]
        assert delay["disks"] < delay["flat"] * 1.1


class TestAdaptiveCutoff:
    """§3: the online cut-off search follows a demand drift."""

    def test_adaptive_cutoff_follows_demand_drift(self):
        horizon = 3_000.0
        config = HybridConfig(cutoff=40, theta=0.60)
        static = HybridSystem(config, seed=7, warmup=0.1 * horizon).run(horizon)
        system, controller = build_adaptive_system(
            config,
            seed=7,
            warmup=0.1 * horizon,
            period=horizon / 10,
            candidates=[10, 25, 40, 55, 70],
            phases=[
                WorkloadPhase(duration=horizon / 2, theta=0.20),
                WorkloadPhase(duration=horizon / 2, theta=1.40),
            ],
        )
        adaptive = system.run(horizon)
        assert any(d.changed for d in controller.decisions)
        # Concentrated demand drives the cut-off down.
        assert system.server.cutoff < 40
        assert adaptive.overall_delay < static.overall_delay
