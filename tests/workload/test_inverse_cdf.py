"""The guide-table lookup draws exactly what ``np.searchsorted`` draws.

:class:`~repro.workload.arrivals.InverseCdf` replaced the clamped
``searchsorted`` in both block samplers.  Its result must be the same
index with the same dtype for every uniform, so every drawn value, and
with it every golden and digest, stays as it was.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import BatchedArrivals, ClientPopulation, ItemCatalog, Request
from repro.workload.arrivals import InverseCdf
from repro.workload.population import AGGREGATE_CLIENT, PopulationArrivals
from repro.workload.zipf import zipf_probabilities


def _searchsorted(cdf, u):
    """The draw the block samplers made before the guide table."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


@st.composite
def _cdfs(draw):
    """A Zipf(θ) CDF with some entries zeroed, ending just below or above 1.

    Zeroing the last entries of a CDF that ends above 1 puts values
    before its end above 1 too, where only a search can count them.
    """
    n = draw(st.integers(min_value=1, max_value=10_000))
    probabilities = zipf_probabilities(n, draw(st.floats(min_value=0.0, max_value=2.0)))
    if draw(st.booleans()):
        order = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        probabilities = probabilities[order.permutation(n)]
    zeros = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=50))
    probabilities[zeros] = 0.0
    probabilities[n - draw(st.integers(min_value=0, max_value=min(3, n - 1))) :] = 0.0
    if not probabilities.any():
        probabilities[-1] = 1.0
    end = 1.0 + draw(st.sampled_from([-1e-9, -1e-12, -2.0**-52, 0.0, 2.0**-52, 1e-12, 1e-9]))
    return np.cumsum(probabilities / probabilities.sum() * end)


class TestInverseCdfIsExact:
    @given(cdf=_cdfs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_index_and_dtype_as_clamped_searchsorted(self, cdf, seed):
        lookup = InverseCdf(cdf)
        size = lookup._size
        assert size & (size - 1) == 0
        edges = np.arange(size + 1) / size
        u = np.concatenate(
            (
                [0.0, 1.0 - 2.0**-53],
                edges,
                cdf,
                np.nextafter(cdf, -np.inf),
                np.nextafter(cdf, np.inf),
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                np.random.default_rng(seed).random(4096),
            )
        )
        u = u[u >= 0.0]  # uniforms are never negative
        want = _searchsorted(cdf, u)
        got = lookup(u)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        # Each CDF value but the last can put a step in one bucket; the
        # bucket for u >= 1 is always searched.
        assert np.count_nonzero(lookup._table < 0) <= len(cdf)

    def test_single_entry_cdf_always_draws_index_zero(self):
        u = np.array([0.0, 0.5, 1.0 - 2.0**-53, 1.0, 2.0])
        got = InverseCdf(np.array([1.0]))(u)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, np.zeros(len(u), dtype=np.intp))


class _PastTheCdfBlocks:
    """A seeded numpy Generator whose every seventh uniform lands in [1 − 1e-10, 1].

    The block-drawing version of ``test_arrivals._PastTheCdf``: against a
    catalog whose CDF ends below 1.0 those uniforms fall past its last
    value, so the draw's clamp to the last index runs.  Seventh by
    position in the whole uniform stream, so every block and every
    uniform block of a chunk (items, then clients or classes) gets some.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.exponential = self._rng.exponential
        self.integers = self._rng.integers
        self._drawn = 0

    def random(self, size: int) -> np.ndarray:
        u = self._rng.random(size)
        position = self._drawn + 1 + np.arange(size)
        self._drawn += size
        return np.where(position % 7 == 0, 1.0 - u * 1e-10, u)


def _batched_reference(sampler):
    """``BatchedArrivals.next_chunk`` as it drew with ``searchsorted``."""
    rng, n = sampler.rng, sampler.chunk_size
    item_cdf = np.cumsum(sampler.catalog.probabilities)
    population = sampler.population
    rank = np.array([c.service_class.rank for c in population], dtype=int)
    priority = np.array([c.priority for c in population], dtype=float)
    client_cdf = np.cumsum(priority / priority.sum()) if sampler.priority_weighted else None
    t = 0.0
    while True:
        times = t + np.cumsum(rng.exponential(1.0 / sampler.rate, size=n))
        t = float(times[-1])
        item_ids = _searchsorted(item_cdf, rng.random(n))
        if client_cdf is None:
            client_ids = rng.integers(0, len(population), size=n)
        else:
            client_ids = _searchsorted(client_cdf, rng.random(n))
        yield [
            Request(time=t, item_id=i, client_id=c, class_rank=k, priority=p)
            for t, i, c, k, p in zip(
                times.tolist(),
                item_ids.tolist(),
                client_ids.tolist(),
                rank[client_ids].tolist(),
                priority[client_ids].tolist(),
            )
        ]


def _population_reference(sampler):
    """``PopulationArrivals.next_block`` as it drew with ``searchsorted``."""
    rng, n = sampler.rng, sampler.chunk_size
    item_cdf = np.cumsum(sampler.catalog.probabilities)
    population = sampler.population
    if sampler.priority_weighted:
        mass = population.class_counts * population.priorities
        shares = mass / mass.sum()
    else:
        shares = population.class_fractions
    class_cdf = np.cumsum(np.asarray(shares, dtype=float))
    t = 0.0
    while True:
        times = t + np.cumsum(rng.exponential(1.0 / sampler.rate, size=n))
        t = float(times[-1])
        yield times, _searchsorted(item_cdf, rng.random(n)), _searchsorted(class_cdf, rng.random(n))


class TestBlockDrawMatchesSearchsortedReference:
    """Both block samplers draw the values the ``searchsorted`` draw did."""

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

    @classmethod
    def _sampler(cls, sampler_cls, kind, weighted, seed, chunk_size):
        rng = np.random.default_rng(seed) if kind == "zipf" else _PastTheCdfBlocks(seed)
        chunk = {} if chunk_size is None else {"chunk_size": chunk_size}
        return sampler_cls(
            cls._catalog(kind),
            ClientPopulation.generate(num_clients=100),
            rate=5.0,
            rng=rng,
            priority_weighted=weighted,
            **chunk,
        )

    @pytest.mark.parametrize("chunk_size", [None, 7], ids=["default-chunk", "chunk-7"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "priority-weighted"])
    @pytest.mark.parametrize("kind", ["zipf", "cdf-below-one"])
    def test_batched_chunks_in_value_and_type(self, kind, weighted, seed, chunk_size):
        def sampler_() -> BatchedArrivals:
            return self._sampler(BatchedArrivals, kind, weighted, seed, chunk_size)

        sampler = sampler_()
        reference = _batched_reference(sampler_())
        got: list[Request] = []
        expected: list[Request] = []
        while len(got) < self.DRAWS:
            got.extend(sampler.next_chunk())
            expected.extend(next(reference))
        assert got == expected
        types = (float, int, int, int, float)
        for request in got:
            assert tuple(type(value) for value in dataclasses.astuple(request)) == types
        if kind == "cdf-below-one":
            last = len(sampler.catalog) - 1
            assert sum(r.item_id == last for r in got) >= len(got) // 20

    @pytest.mark.parametrize("chunk_size", [None, 7], ids=["default-chunk", "chunk-7"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "priority-weighted"])
    @pytest.mark.parametrize("kind", ["zipf", "cdf-below-one"])
    def test_population_blocks_in_value_and_dtype(self, kind, weighted, seed, chunk_size):
        def sampler_() -> PopulationArrivals:
            return self._sampler(PopulationArrivals, kind, weighted, seed, chunk_size)

        sampler = sampler_()
        reference = _population_reference(sampler_())
        drawn = 0
        items = []
        while drawn < self.DRAWS:
            block = sampler.next_block()
            for got, want in zip(block, next(reference)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            items.append(block[1])
            drawn += len(block[0])
        if kind == "cdf-below-one":
            last = len(sampler.catalog) - 1
            assert np.count_nonzero(np.concatenate(items) == last) >= drawn // 20
        # The Request view carries the same draws.
        times, item_ids, ranks = next(_population_reference(sampler_()))
        priority = sampler.population.priorities.tolist()
        assert sampler_().next_chunk() == [
            Request(t, i, AGGREGATE_CLIENT, k, priority[k])
            for t, i, k in zip(times.tolist(), item_ids.tolist(), ranks.tolist())
        ]
