"""Unit tests for repro.workload.arrivals: Poisson request streams."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import HybridConfig
from repro.workload import (
    ArrivalProcess,
    BatchedArrivals,
    ClientPopulation,
    ItemCatalog,
    PhasedArrivalProcess,
    PopulationArrivals,
    Request,
    WorkloadPhase,
)


@pytest.fixture()
def process():
    rng = np.random.Generator(np.random.PCG64(42))
    return ArrivalProcess(
        catalog=ItemCatalog.generate(num_items=50, theta=0.6),
        population=ClientPopulation.generate(num_clients=100),
        rate=5.0,
        rng=rng,
    )


class TestConstruction:
    def test_rate_validation(self, process):
        with pytest.raises(ValueError):
            ArrivalProcess(process.catalog, process.population, rate=0, rng=process.rng)

    @pytest.mark.parametrize(
        "rate", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"]
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda p, rate: HybridConfig(arrival_rate=rate),
            lambda p, rate: ArrivalProcess(p.catalog, p.population, rate=rate, rng=p.rng),
            lambda p, rate: BatchedArrivals(p.catalog, p.population, rate=rate, rng=p.rng),
            lambda p, rate: PopulationArrivals(p.catalog, p.population, rate=rate, rng=p.rng),
            lambda p, rate: PhasedArrivalProcess(
                p.catalog, p.population, [WorkloadPhase(10.0, 0.6)], rate, p.rng
            ),
            lambda p, rate: WorkloadPhase(10.0, 0.6, rate=rate),
        ],
        ids=[
            "HybridConfig",
            "ArrivalProcess",
            "BatchedArrivals",
            "PopulationArrivals",
            "PhasedArrivalProcess",
            "WorkloadPhase",
        ],
    )
    def test_rate_must_be_finite_and_positive(self, process, build, rate):
        # An infinite rate puts every arrival of a block at t = 0, so a
        # drain to any later time never returns; a NaN rate draws NaN
        # times and runs to the horizon with no arrival admitted.
        with pytest.raises(ValueError, match="finite and > 0"):
            build(process, rate)


class TestLazyStream:
    def test_times_strictly_increasing(self, process):
        stream = iter(process)
        times = [next(stream).time for _ in range(100)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_request_fields_consistent(self, process):
        stream = iter(process)
        for _ in range(50):
            r = next(stream)
            assert 0 <= r.item_id < len(process.catalog)
            assert 0 <= r.client_id < len(process.population)
            client = process.population[r.client_id]
            assert r.class_rank == client.service_class.rank
            assert r.priority == client.priority

    def test_empirical_rate(self, process):
        stream = iter(process)
        times = [next(stream).time for _ in range(5000)]
        rate = len(times) / times[-1]
        assert rate == pytest.approx(5.0, rel=0.1)


class TestBulkGeneration:
    def test_horizon_bounds(self, process):
        reqs = process.generate(horizon=100.0)
        assert all(0 <= r.time < 100.0 for r in reqs)
        times = [r.time for r in reqs]
        assert times == sorted(times)

    def test_count_close_to_expected(self, process):
        reqs = process.generate(horizon=2000.0)
        assert len(reqs) == pytest.approx(5.0 * 2000, rel=0.1)

    def test_item_popularity_follows_zipf(self, process):
        reqs = process.generate(horizon=5000.0)
        counts = np.bincount([r.item_id for r in reqs], minlength=50)
        freq = counts / counts.sum()
        # Strong check on the head of the distribution.
        assert freq[0] == pytest.approx(process.catalog.probabilities[0], rel=0.1)
        # Popular items requested more than unpopular ones.
        assert counts[0] > counts[-1]

    def test_horizon_validation(self, process):
        with pytest.raises(ValueError):
            process.generate(horizon=0)

    def test_class_mix_matches_population(self, process):
        reqs = process.generate(horizon=5000.0)
        ranks = np.bincount([r.class_rank for r in reqs], minlength=3)
        observed = ranks / ranks.sum()
        assert np.allclose(observed, process.population.class_fractions, atol=0.03)


class TestAnalyticalRates:
    def test_pull_rate_thinning(self, process):
        k = 20
        expected = 5.0 * process.catalog.pull_probability(k)
        assert process.pull_rate(k) == pytest.approx(expected)

    def test_pull_rate_extremes(self, process):
        assert process.pull_rate(len(process.catalog)) == pytest.approx(0.0)
        assert process.pull_rate(0) == pytest.approx(5.0)

    def test_per_class_rates_sum_to_pull_rate(self, process):
        rates = process.per_class_pull_rates(20)
        assert rates.sum() == pytest.approx(process.pull_rate(20))
        assert len(rates) == 3


class TestPriorityWeightedDemand:
    """§4.2's λ_i = λ·p_i·q_j demand decomposition."""

    @pytest.fixture()
    def weighted(self, process):
        return ArrivalProcess(
            catalog=process.catalog,
            population=process.population,
            rate=5.0,
            rng=np.random.Generator(np.random.PCG64(43)),
            priority_weighted=True,
        )

    def test_class_request_shares_proportional_to_priority_mass(self, weighted):
        reqs = weighted.generate(horizon=5000.0)
        counts = np.bincount([r.class_rank for r in reqs], minlength=3)
        observed = counts / counts.sum()
        mass = weighted.population.class_fractions * weighted.population.priorities
        expected = mass / mass.sum()
        assert np.allclose(observed, expected, atol=0.03)

    def test_premium_clients_request_more_than_share(self, weighted):
        reqs = weighted.generate(horizon=5000.0)
        counts = np.bincount([r.class_rank for r in reqs], minlength=3)
        premium_share = counts[0] / counts.sum()
        assert premium_share > weighted.population.class_fractions[0]

    def test_per_class_rates_reflect_weighting(self, weighted, process):
        uniform_rates = process.per_class_pull_rates(20)
        weighted_rates = weighted.per_class_pull_rates(20)
        assert weighted_rates.sum() == pytest.approx(uniform_rates.sum())
        assert weighted_rates[0] > uniform_rates[0]

    def test_lazy_stream_respects_weighting(self, weighted):
        stream = iter(weighted)
        ranks = [next(stream).class_rank for _ in range(3000)]
        counts = np.bincount(ranks, minlength=3)
        mass = weighted.population.class_fractions * weighted.population.priorities
        expected = mass / mass.sum()
        assert np.allclose(counts / counts.sum(), expected, atol=0.04)

    def test_system_config_plumbs_flag(self):
        import dataclasses

        from repro.core import HybridConfig
        from repro.sim import HybridSystem

        cfg = dataclasses.replace(HybridConfig(), priority_weighted_demand=True)
        system = HybridSystem(cfg, seed=0)
        result = system.run(400.0)
        # Premium arrivals exceed their population share.
        arrivals = {
            name: system.metrics.arrivals_by_class[name].count for name in "ABC"
        }
        total = sum(arrivals.values())
        premium_share = arrivals["A"] / total
        assert premium_share > system.population.class_fractions[0]


class _PastTheCdf:
    """A seeded numpy Generator whose every seventh uniform lands in [1 − 1e-10, 1].

    Against a catalog whose CDF ends below 1.0 those uniforms fall past
    its last value, so the draw's clamp to the last item runs (seven is
    odd, so with priority-weighted clients they alternate between the
    item and the client draw).
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.exponential = self._rng.exponential
        self.integers = self._rng.integers
        self._calls = 0

    def random(self) -> float:
        u = self._rng.random()
        self._calls += 1
        return 1.0 - u * 1e-10 if self._calls % 7 == 0 else u


def _searchsorted_stream(process):
    """The per-arrival draw as ``ArrivalProcess`` made it before its list CDFs.

    ``np.searchsorted`` on the CDF arrays and numpy scalar indexing, the
    same three draws per arrival in the same order.
    """
    rng = process.rng
    item_cdf = np.cumsum(process.catalog.probabilities)
    num_clients = len(process.population)
    rank = np.array([c.service_class.rank for c in process.population], dtype=int)
    priority = np.array([c.priority for c in process.population], dtype=float)
    client_cdf = np.cumsum(priority / priority.sum()) if process.priority_weighted else None
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / process.rate))
        idx = int(np.searchsorted(item_cdf, rng.random(), side="right"))
        item_id = min(idx, len(process.catalog) - 1)
        if client_cdf is None:
            client_id = int(rng.integers(0, num_clients))
        else:
            idx = int(np.searchsorted(client_cdf, rng.random(), side="right"))
            client_id = min(idx, num_clients - 1)
        yield Request(
            time=t,
            item_id=item_id,
            client_id=client_id,
            class_rank=int(rank[client_id]),
            priority=float(priority[client_id]),
        )


class TestDrawMatchesSearchsortedReference:
    """The list-CDF draw yields the requests the numpy-indexed draw did."""

    DRAWS = 20_000

    @staticmethod
    def _catalog(kind: str) -> ItemCatalog:
        catalog = ItemCatalog.generate(num_items=40, theta=0.8)
        if kind == "zipf":
            return catalog
        # Within the catalog's 1e-9 normalisation tolerance, so its CDF
        # ends at about 1 − 5e-10.
        return ItemCatalog(
            lengths=catalog.lengths, probabilities=catalog.probabilities * (1.0 - 5e-10)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "priority-weighted"])
    @pytest.mark.parametrize("kind", ["zipf", "cdf-below-one"])
    def test_same_requests_in_value_and_type(self, kind, weighted, seed):
        catalog = self._catalog(kind)
        population = ClientPopulation.generate(num_clients=100)

        def process() -> ArrivalProcess:
            rng = np.random.default_rng(seed) if kind == "zipf" else _PastTheCdf(seed)
            return ArrivalProcess(
                catalog, population, rate=5.0, rng=rng, priority_weighted=weighted
            )

        reference = _searchsorted_stream(process())
        expected = [next(reference) for _ in range(self.DRAWS)]
        chunked = process()
        got: list[Request] = []
        while len(got) < self.DRAWS:
            got.extend(chunked.next_chunk())
        got = got[: self.DRAWS]
        streamed = iter(process())
        assert [next(streamed) for _ in range(self.DRAWS)] == expected
        assert got == expected
        types = (float, int, int, int, float)
        for request in got:
            assert tuple(type(value) for value in dataclasses.astuple(request)) == types
        last = len(catalog) - 1
        if kind == "cdf-below-one":
            assert catalog.probabilities.cumsum()[-1] < 1.0
            assert sum(r.item_id == last for r in got) >= self.DRAWS // 20
