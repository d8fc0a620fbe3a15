"""Property-based tests for :class:`repro.workload.PopulationArrivals`.

The aggregated generator must honour the superposition identity
``λ_{i,j} = λ' · p_i · f_j`` *exactly* (rates are products of stored
probabilities, not re-estimated), label requests with frequencies
matching the Zipf × class-mix product law, and be bit-reproducible from
the seed — the properties the million-client scale path leans on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import ClientPopulation, ItemCatalog
from repro.workload.population import AGGREGATE_CLIENT, PopulationArrivals


def _build(num_items, theta, num_clients, rate, seed, priority_weighted=False):
    rng = np.random.Generator(np.random.PCG64(seed))
    catalog = ItemCatalog.generate(num_items=num_items, theta=theta, rng=rng)
    population = ClientPopulation.generate(num_clients=num_clients)
    return PopulationArrivals(
        catalog,
        population,
        rate=rate,
        rng=np.random.Generator(np.random.PCG64(seed + 1)),
        priority_weighted=priority_weighted,
    )


class TestRateSuperposition:
    @given(
        num_items=st.integers(min_value=1, max_value=80),
        theta=st.floats(min_value=0.0, max_value=2.0),
        num_clients=st.integers(min_value=3, max_value=5_000_000),
        rate=st.floats(min_value=1e-3, max_value=1e6),
        seed=st.integers(min_value=0, max_value=1_000),
        priority_weighted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_component_rates_sum_to_aggregate(
        self, num_items, theta, num_clients, rate, seed, priority_weighted
    ):
        arrivals = _build(
            num_items, theta, num_clients, rate, seed, priority_weighted
        )
        total = sum(
            arrivals.rate_for(i, j)
            for i in range(num_items)
            for j in range(arrivals.population.num_classes)
        )
        # Thinning splits λ' by two probability vectors that each sum to
        # one, so the components must reassemble λ' to float precision.
        assert total == pytest.approx(rate, rel=1e-9)
        assert arrivals.class_shares.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(arrivals.class_shares >= 0.0)

    @given(
        num_clients=st.integers(min_value=3, max_value=100_000),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_priority_weighting_shifts_mass_to_important_classes(
        self, num_clients, seed
    ):
        plain = _build(20, 0.8, num_clients, 1.0, seed, priority_weighted=False)
        weighted = _build(20, 0.8, num_clients, 1.0, seed, priority_weighted=True)
        # Rank 0 is the most important class (largest q); priority
        # weighting can only raise its share of the aggregate stream.
        assert weighted.class_shares[0] >= plain.class_shares[0] - 1e-12
        assert weighted.class_shares[-1] <= plain.class_shares[-1] + 1e-12


class TestLabelFrequencies:
    def test_split_frequencies_match_product_law(self):
        # One long block: empirical (item, class) label frequencies must
        # match the Zipf × class-mix product within a generous tolerance
        # (3-sigma binomial bands on the largest cells).
        arrivals = _build(12, 0.8, 300, 5.0, seed=42)
        arrivals.chunk_size = 60_000
        times, item_ids, ranks = arrivals.next_block()
        n = len(times)
        item_ids = np.asarray(item_ids)
        ranks = np.asarray(ranks)
        for i in range(3):
            for j in range(arrivals.population.num_classes):
                expected = (
                    arrivals.catalog.probabilities[i] * arrivals.class_shares[j]
                )
                observed = np.mean((item_ids == i) & (ranks == j))
                sigma = np.sqrt(expected * (1.0 - expected) / n)
                assert abs(observed - expected) <= 4.0 * sigma + 1e-12, (
                    f"cell ({i}, {j}): observed {observed:.5f} "
                    f"expected {expected:.5f}"
                )

    def test_interarrival_mean_matches_rate(self):
        arrivals = _build(12, 0.8, 300, 8.0, seed=7)
        arrivals.chunk_size = 50_000
        times, _, _ = arrivals.next_block()
        gaps = np.diff(np.asarray(times))
        mean = float(np.mean(gaps))
        sigma = float(np.std(gaps)) / np.sqrt(len(gaps))
        assert abs(mean - 1.0 / 8.0) <= 4.0 * sigma

    def test_requests_carry_aggregate_sentinel(self):
        arrivals = _build(12, 0.8, 300, 5.0, seed=3)
        arrivals.chunk_size = 64
        for request in arrivals.next_chunk():
            assert request.client_id == AGGREGATE_CLIENT
            expected = arrivals.population.priorities[request.class_rank]
            assert request.priority == pytest.approx(float(expected))


class TestDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        chunks=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_stream(self, seed, chunks):
        first = _build(15, 0.8, 300, 5.0, seed)
        second = _build(15, 0.8, 300, 5.0, seed)
        first.chunk_size = second.chunk_size = 257
        for _ in range(chunks):
            for a, b in zip(first.next_block(), second.next_block()):
                assert np.array_equal(a, b)

    def test_blocks_continue_the_clock(self):
        arrivals = _build(15, 0.8, 300, 5.0, seed=11)
        arrivals.chunk_size = 100
        t1, _, _ = arrivals.next_block()
        t2, _, _ = arrivals.next_block()
        merged = np.concatenate((t1, t2))
        assert len(merged) == 200
        assert np.all(np.diff(merged) > 0.0)

    def test_invalid_parameters_rejected(self):
        rng = np.random.Generator(np.random.PCG64(0))
        catalog = ItemCatalog.generate(num_items=5, theta=0.5, rng=rng)
        population = ClientPopulation.generate(num_clients=30)
        with pytest.raises(ValueError, match="rate"):
            PopulationArrivals(catalog, population, rate=0.0, rng=rng)
        with pytest.raises(ValueError, match="chunk_size"):
            PopulationArrivals(
                catalog, population, rate=1.0, rng=rng, chunk_size=0
            )
