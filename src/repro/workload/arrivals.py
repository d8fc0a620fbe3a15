"""Poisson request arrival model.

Aggregate arrivals form a Poisson process with rate ``λ'`` (paper: 5
requests per broadcast unit).  Each arrival independently selects an item
from the Zipf access law and an originating client uniformly from the
population — so the per-item, per-class arrival streams are thinned
Poisson processes, exactly the decomposition the paper's analysis relies
on (``λ_i = λ · p_i · q_j`` discussion in §4.2).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .clients import ClientPopulation
from .items import ItemCatalog

__all__ = ["Request", "ArrivalProcess", "InverseCdf"]

#: Arrivals per :meth:`ArrivalProcess.next_chunk`.  Small, because the
#: draws a run makes past its horizon are wasted.
_CHUNK = 128

#: Most buckets an :class:`InverseCdf` cuts ``[0, 1)`` into (128 KiB of
#: indices).
_MAX_BUCKETS = 1 << 14


@dataclass(frozen=True, slots=True)
class Request:
    """One client request for one item.

    Attributes
    ----------
    time:
        Arrival time (broadcast units).
    item_id:
        Requested item (0-based Zipf rank).
    client_id:
        Originating client.
    class_rank:
        Importance rank of the client's service class (0 = most important).
    priority:
        The client's priority weight ``q_j``.
    """

    time: float
    item_id: int
    client_id: int
    class_rank: int
    priority: float


class InverseCdf:
    """Exact inverse-CDF lookup for blocks of uniforms: a guide table.

    ``InverseCdf(cdf)(u)`` equals ``np.minimum(np.searchsorted(cdf, u,
    side="right"), len(cdf) - 1)`` in value and dtype for every ``u >= 0``.
    It cuts ``[0, 1)`` into ``G`` equal buckets, ``G`` the least power of
    two with 64 buckets per CDF value (at most ``_MAX_BUCKETS``), so
    ``u·G`` and every bucket edge ``k/G`` are exact.  A bucket whose two
    edges map to one index holds no CDF step, and the table stores that
    index for it; a bucket that holds a step, and the bucket for
    ``u >= 1``, store -1, and only the keys that land in them are
    searched.  At most ``len(cdf)`` buckets hold a step, so a block
    searches at most about ``len(cdf) / G`` of its keys, however skewed
    the law.
    """

    def __init__(self, cdf: np.ndarray) -> None:
        # Counting only the values below the last one is the clamp.
        self._head = np.asarray(cdf, dtype=float)[:-1]
        self._size = min(_MAX_BUCKETS, 1 << (64 * len(cdf) - 1).bit_length())
        edges = np.arange(self._size + 1) / self._size
        table = np.searchsorted(self._head, edges, side="right")
        table[:-1][table[:-1] != table[1:]] = -1
        table[-1] = -1
        self._table = table

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The index each uniform in ``u`` draws from the CDF."""
        # Clamped before the cast, which a float past the intp range breaks.
        scaled = u * self._size
        np.minimum(scaled, self._size, out=scaled)
        index = self._table[scaled.astype(np.intp)]
        searched = np.flatnonzero(index < 0)
        index[searched] = np.searchsorted(self._head, u[searched], side="right")
        return index


class _Sampler:
    """The checked parameters every sampler keeps (see :class:`ArrivalProcess`)."""

    def __init__(
        self,
        catalog: ItemCatalog,
        population: ClientPopulation,
        rate: float,
        rng: np.random.Generator,
        priority_weighted: bool,
        chunk_size: int,
    ) -> None:
        if not 0 < rate < math.inf:
            raise ValueError(f"arrival rate must be finite and > 0, got {rate}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.catalog = catalog
        self.population = population
        self.rate = float(rate)
        self.rng = rng
        self.priority_weighted = bool(priority_weighted)
        self.chunk_size = int(chunk_size)

    def next_chunk(self) -> list[Request]:
        """The next ``chunk_size`` arrivals, in time order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Request]:
        """Infinite lazy stream of requests in time order, a chunk at a time."""
        while True:
            yield from self.next_chunk()


class ArrivalProcess(_Sampler):
    """Generates the request stream, either lazily or as a bulk trace.

    Parameters
    ----------
    catalog:
        Item catalog supplying the Zipf item law.
    population:
        Client population supplying the class mix.
    rate:
        Aggregate Poisson rate ``λ'`` (requests per broadcast unit),
        finite and positive.
    rng:
        numpy Generator; pass a named stream from
        :class:`repro.des.RandomStreams` for reproducibility.
    priority_weighted:
        If true, a request's originating client is drawn with probability
        proportional to its priority weight ``q_j`` instead of uniformly —
        the demand decomposition §4.2 writes as ``λ_i = λ·p_i·q_j``
        (important clients are also the heavy requesters).  Default off:
        the §5 evaluation draws clients uniformly.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        population: ClientPopulation,
        rate: float,
        rng: np.random.Generator,
        priority_weighted: bool = False,
    ) -> None:
        super().__init__(catalog, population, rate, rng, priority_weighted, _CHUNK)
        self._num_clients = len(population)
        self._client_class_rank, self._client_priority = population.client_table()
        self._client_weights: Optional[np.ndarray] = None
        self._client_cdf: Optional[np.ndarray] = None
        if priority_weighted:
            self._client_weights = self._client_priority / self._client_priority.sum()
            self._client_cdf = np.cumsum(self._client_weights)
        self._item_cdf = np.cumsum(catalog.probabilities)
        self._stream: Optional[Iterator[Request]] = None

    # -- lazy stream (for the DES) ------------------------------------------
    def __iter__(self) -> Iterator[Request]:
        """Infinite lazy stream of requests in time order.

        Per arrival: the exponential gap, the item uniform, then the
        client draw (``integers``, or a uniform on the priority CDF).
        ``bisect_right`` on the CDFs as lists finds the index
        ``np.searchsorted(..., side="right")`` would.
        """
        rng = self.rng
        exponential = rng.exponential
        uniform = rng.random
        integers = rng.integers
        scale = 1.0 / self.rate
        item_cdf = self._item_cdf.tolist()
        last_item = len(item_cdf) - 1
        num_clients = self._num_clients
        client_cdf = None if self._client_cdf is None else self._client_cdf.tolist()
        ranks = self._client_class_rank.tolist()
        priorities = self._client_priority.tolist()
        t = 0.0
        while True:
            t += exponential(scale)
            item_id = min(bisect_right(item_cdf, uniform()), last_item)
            if client_cdf is None:
                client_id = int(integers(0, num_clients))
            else:
                client_id = min(bisect_right(client_cdf, uniform()), num_clients - 1)
            yield Request(t, item_id, client_id, ranks[client_id], priorities[client_id])

    def next_chunk(self) -> list[Request]:
        """The next arrivals of one :meth:`__iter__` stream, for in-line draining."""
        if self._stream is None:
            self._stream = iter(self)
        return list(islice(self._stream, self.chunk_size))

    # -- bulk generation (vectorised, for analysis & traces) ------------------
    def generate(self, horizon: float) -> list[Request]:
        """All requests in ``[0, horizon)`` as a list, vectorised draw."""
        times = self.sample_times(horizon)
        n = len(times)
        if n == 0:
            return []
        item_ids = self.rng.choice(len(self.catalog), size=n, p=self.catalog.probabilities)
        if self._client_weights is None:
            client_ids = self.rng.integers(0, self._num_clients, size=n)
        else:
            client_ids = self.rng.choice(self._num_clients, size=n, p=self._client_weights)
        return [
            Request(
                time=float(t),
                item_id=int(i),
                client_id=int(c),
                class_rank=int(self._client_class_rank[c]),
                priority=float(self._client_priority[c]),
            )
            for t, i, c in zip(times, item_ids, client_ids)
        ]

    def sample_times(self, horizon: float) -> np.ndarray:
        """Poisson arrival epochs in ``[0, horizon)`` (sorted)."""
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        # Draw count, then order statistics of uniforms — O(n) and exact.
        n = int(self.rng.poisson(self.rate * horizon))
        times = np.sort(self.rng.uniform(0.0, horizon, size=n))
        return times

    # -- analytical rates -----------------------------------------------------
    def pull_rate(self, cutoff: int) -> float:
        """Arrival rate into the pull system, ``λ = Σ_{i>K} P_i · λ'``."""
        return self.rate * self.catalog.pull_probability(cutoff)

    def per_class_pull_rates(self, cutoff: int) -> np.ndarray:
        """Pull arrival rate per service class (rank order).

        Uniform client draw: proportional to population share.  Priority-
        weighted draw (§4.2's ``λ_i = λ·p_i·q_j``): proportional to the
        class's total priority mass.
        """
        if self._client_weights is None:
            shares = self.population.class_fractions
        else:
            mass = self.population.class_fractions * self.population.priorities
            shares = mass / mass.sum()
        return self.pull_rate(cutoff) * shares
