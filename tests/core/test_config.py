"""Unit tests for HybridConfig and ClassSpec."""

import math

import numpy as np
import pytest

from repro.core import ClassSpec, HybridConfig


class TestClassSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClassSpec(name="X", priority=0.0)
        with pytest.raises(ValueError):
            ClassSpec(name="X", priority=1.0, bandwidth_share=0.0)
        with pytest.raises(ValueError):
            ClassSpec(name="X", priority=1.0, bandwidth_share=1.5)

    @pytest.mark.parametrize("priority", [math.nan, math.inf, -1.0])
    def test_priority_must_be_finite_and_positive(self, priority):
        with pytest.raises(ValueError, match="priority"):
            ClassSpec(name="X", priority=priority)


class TestConfigValidation:
    def test_defaults_are_paper_values(self):
        cfg = HybridConfig()
        assert cfg.num_items == 100
        assert cfg.arrival_rate == 5.0
        assert cfg.min_length == 1 and cfg.max_length == 5
        assert cfg.mean_length == 2.0
        assert cfg.class_names() == ["A", "B", "C"]
        assert list(cfg.class_priorities()) == [3.0, 2.0, 1.0]

    def test_cutoff_bounds(self):
        with pytest.raises(ValueError):
            HybridConfig(cutoff=101)
        with pytest.raises(ValueError):
            HybridConfig(cutoff=-1)
        HybridConfig(cutoff=0)
        HybridConfig(cutoff=100)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            HybridConfig(alpha=1.1)
        with pytest.raises(ValueError):
            HybridConfig(alpha=-0.1)

    def test_class_order_enforced(self):
        with pytest.raises(ValueError, match="most-important"):
            HybridConfig(
                class_specs=(
                    ClassSpec("C", 1.0, 0.3),
                    ClassSpec("A", 3.0, 0.3),
                )
            )

    def test_duplicate_class_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            HybridConfig(
                class_specs=(ClassSpec("A", 3.0, 0.3), ClassSpec("A", 2.0, 0.3))
            )

    def test_bandwidth_shares_capped(self):
        with pytest.raises(ValueError, match="shares"):
            HybridConfig(
                class_specs=(ClassSpec("A", 3.0, 0.7), ClassSpec("B", 2.0, 0.7))
            )

    def test_min_population(self):
        with pytest.raises(ValueError):
            HybridConfig(num_clients=2)

    def test_length_law_support(self):
        # Hardened in PR 4 alongside the overload validation sweep: an
        # impossible length support must fail at construction, not when
        # the workload sampler first divides by it.
        with pytest.raises(ValueError, match="min_length"):
            HybridConfig(min_length=0)
        with pytest.raises(ValueError, match="max_length"):
            HybridConfig(min_length=3, max_length=2, mean_length=3.0)
        with pytest.raises(ValueError, match="mean_length"):
            HybridConfig(min_length=1, max_length=5, mean_length=6.0)
        with pytest.raises(ValueError, match="mean_length"):
            HybridConfig(min_length=2, max_length=5, mean_length=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("total_bandwidth", math.nan),
            ("total_bandwidth", 0.0),
            ("bandwidth_demand_mean", math.nan),
            ("bandwidth_demand_mean", math.inf),
            ("bandwidth_demand_mean", -1.0),
            ("uplink_rate", math.nan),
            ("theta", math.nan),
            ("theta", -0.5),
        ],
    )
    def test_nan_and_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HybridConfig(**{field: value})

    def test_nan_population_skew_fails_at_build(self):
        # Like a negative skew, it is checked where the class-size law is built.
        with pytest.raises(ValueError, match="theta"):
            HybridConfig(population_skew=math.nan).build_population()

    @pytest.mark.parametrize("field", ["total_bandwidth", "uplink_rate"])
    def test_infinite_capacity_means_unbounded(self, field):
        assert getattr(HybridConfig(**{field: math.inf}), field) == math.inf

    def test_overload_requires_bounded_queue(self):
        from repro.core import FaultConfig, OverloadConfig

        with pytest.raises(ValueError, match="bounded pull queue"):
            HybridConfig(overload=OverloadConfig(threshold=0.5))
        # With a capacity the same config constructs fine.
        HybridConfig(
            overload=OverloadConfig(threshold=0.5),
            faults=FaultConfig(queue_capacity=10),
        )


class TestDerivedObjects:
    def test_catalog_matches_config(self):
        cfg = HybridConfig(num_items=60, theta=1.0)
        catalog = cfg.build_catalog()
        assert len(catalog) == 60
        assert catalog.lengths.max() <= cfg.max_length

    def test_catalog_deterministic_in_length_seed(self):
        a = HybridConfig(length_seed=1).build_catalog()
        b = HybridConfig(length_seed=1).build_catalog()
        c = HybridConfig(length_seed=2).build_catalog()
        assert np.array_equal(a.lengths, b.lengths)
        assert not np.array_equal(a.lengths, c.lengths)

    def test_population_matches_config(self):
        cfg = HybridConfig(num_clients=120)
        pop = cfg.build_population()
        assert len(pop) == 120
        assert [c.name for c in pop.classes] == ["A", "B", "C"]

    def test_class_bandwidth_absolute(self):
        cfg = HybridConfig(total_bandwidth=20.0)
        bw = cfg.class_bandwidth()
        assert bw.sum() == pytest.approx(20.0)
        assert bw[0] == pytest.approx(10.0)  # 0.5 share


class TestServiceRates:
    def test_paper_convention(self):
        cfg = HybridConfig(cutoff=40, rate_convention="paper")
        catalog = cfg.build_catalog()
        mu1, mu2 = cfg.service_rates(catalog)
        assert mu1 == pytest.approx(catalog.weighted_push_length(40))
        assert mu2 == pytest.approx(catalog.weighted_pull_length(40))

    def test_rate_convention(self):
        cfg = HybridConfig(cutoff=40, rate_convention="rate")
        catalog = cfg.build_catalog()
        mu1, mu2 = cfg.service_rates(catalog)
        mean_push = catalog.weighted_push_length(40) / catalog.push_probability(40)
        assert mu1 == pytest.approx(1.0 / mean_push)
        assert mu2 == pytest.approx(1.0 / catalog.mean_pull_service_time(40))

    def test_paper_mu_sum_constant(self):
        # Under the paper convention mu1 + mu2 = sum P_i L_i independent of K.
        cfg = HybridConfig()
        catalog = cfg.build_catalog()
        total = float(catalog.probabilities @ catalog.lengths)
        for k in (10, 50, 90):
            mu1, mu2 = cfg.with_cutoff(k).service_rates(catalog)
            assert mu1 + mu2 == pytest.approx(total)


class TestVariationHelpers:
    def test_with_cutoff(self):
        cfg = HybridConfig(cutoff=40)
        assert cfg.with_cutoff(10).cutoff == 10
        assert cfg.cutoff == 40  # frozen original untouched

    def test_with_alpha_theta(self):
        cfg = HybridConfig()
        assert cfg.with_alpha(0.1).alpha == 0.1
        assert cfg.with_theta(1.4).theta == 1.4

    def test_with_bandwidth_shares(self):
        cfg = HybridConfig()
        new = cfg.with_bandwidth_shares([0.6, 0.3, 0.1])
        assert new.class_specs[0].bandwidth_share == pytest.approx(0.6)
        assert new.class_specs[0].priority == cfg.class_specs[0].priority

    def test_with_bandwidth_shares_validates_length(self):
        with pytest.raises(ValueError):
            HybridConfig().with_bandwidth_shares([0.5, 0.5])
