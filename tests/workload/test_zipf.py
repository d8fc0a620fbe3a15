"""Unit tests for repro.workload.zipf."""

import numpy as np
import pytest

from repro.workload.zipf import (
    PAPER_THETAS,
    cumulative_mass,
    effective_catalog_fraction,
    fit_theta,
    zipf_cdf,
    zipf_probabilities,
)


class TestZipfProbabilities:
    def test_sums_to_one(self):
        for theta in PAPER_THETAS:
            p = zipf_probabilities(100, theta)
            assert p.sum() == pytest.approx(1.0)

    def test_non_increasing(self):
        p = zipf_probabilities(100, 0.8)
        assert np.all(np.diff(p) <= 0)

    def test_theta_zero_is_uniform(self):
        p = zipf_probabilities(50, 0.0)
        assert np.allclose(p, 1 / 50)

    def test_higher_theta_more_skewed(self):
        p_low = zipf_probabilities(100, 0.2)
        p_high = zipf_probabilities(100, 1.4)
        assert p_high[0] > p_low[0]
        assert p_high[-1] < p_low[-1]

    def test_exact_formula(self):
        theta, n = 0.6, 10
        p = zipf_probabilities(n, theta)
        denom = sum((1 / j) ** theta for j in range(1, n + 1))
        for i in range(1, n + 1):
            assert p[i - 1] == pytest.approx(((1 / i) ** theta) / denom)

    def test_single_item(self):
        assert zipf_probabilities(1, 1.0)[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 0.5)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -0.1)
        with pytest.raises(ValueError):
            zipf_probabilities(10, float("nan"))


class TestCdfAndMass:
    def test_cdf_monotone_ends_at_one(self):
        cdf = zipf_cdf(100, 0.6)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_cumulative_mass_bounds(self):
        p = zipf_probabilities(100, 0.6)
        assert cumulative_mass(p, 0) == 0.0
        assert cumulative_mass(p, 100) == pytest.approx(1.0)
        assert 0 < cumulative_mass(p, 40) < 1

    def test_cumulative_mass_validation(self):
        p = zipf_probabilities(10, 0.6)
        with pytest.raises(ValueError):
            cumulative_mass(p, 11)
        with pytest.raises(ValueError):
            cumulative_mass(p, -1)

    def test_effective_fraction_decreases_with_skew(self):
        p_low = zipf_probabilities(100, 0.2)
        p_high = zipf_probabilities(100, 1.4)
        assert effective_catalog_fraction(p_high) < effective_catalog_fraction(p_low)

    def test_effective_fraction_validation(self):
        p = zipf_probabilities(10, 0.6)
        with pytest.raises(ValueError):
            effective_catalog_fraction(p, mass=0.0)
        with pytest.raises(ValueError):
            effective_catalog_fraction(p, mass=1.5)


class TestFitTheta:
    def test_recovers_true_theta(self):
        rng = np.random.default_rng(0)
        for true_theta in (0.2, 0.6, 1.0, 1.4):
            p = zipf_probabilities(100, true_theta)
            counts = rng.multinomial(50_000, p)
            estimate = fit_theta(counts)
            assert estimate == pytest.approx(true_theta, abs=0.05)

    def test_uniform_counts_give_near_zero(self):
        counts = np.full(50, 100)
        assert fit_theta(counts) == pytest.approx(0.0, abs=0.02)

    def test_degenerate_head_gives_large_theta(self):
        counts = np.zeros(20, dtype=int)
        counts[0] = 1000
        assert fit_theta(counts) > 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_theta([5])
        with pytest.raises(ValueError):
            fit_theta([0, 0])
        with pytest.raises(ValueError):
            fit_theta([3, -1])

    def test_small_sample_still_sane(self):
        rng = np.random.default_rng(1)
        counts = rng.multinomial(200, zipf_probabilities(30, 0.8))
        estimate = fit_theta(counts)
        assert 0.3 < estimate < 1.4
