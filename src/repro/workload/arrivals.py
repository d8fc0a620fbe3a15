"""Poisson request arrival model.

Aggregate arrivals form a Poisson process with rate ``λ'`` (paper: 5
requests per broadcast unit).  Each arrival independently selects an item
from the Zipf access law and an originating client uniformly from the
population — so the per-item, per-class arrival streams are thinned
Poisson processes, exactly the decomposition the paper's analysis relies
on (``λ_i = λ · p_i · q_j`` discussion in §4.2).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .clients import ClientPopulation
from .items import ItemCatalog

__all__ = ["Request", "ArrivalProcess"]

#: Arrivals per :meth:`ArrivalProcess.next_chunk`.  Small, because the
#: draws a run makes past its horizon are wasted.
_CHUNK = 128


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


class ArrivalProcess:
    """Generates the request stream, either lazily or as a bulk trace.

    Parameters
    ----------
    catalog:
        Item catalog supplying the Zipf item law.
    population:
        Client population supplying the class mix.
    rate:
        Aggregate Poisson rate ``λ'`` (requests per broadcast unit).
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
        if rate <= 0:
            raise ValueError(f"arrival rate must be > 0, got {rate}")
        self.catalog = catalog
        self.population = population
        self.rate = float(rate)
        self.rng = rng
        self.priority_weighted = bool(priority_weighted)
        self._num_clients = len(population)
        self._client_class_rank = np.array(
            [c.service_class.rank for c in population], dtype=int
        )
        self._client_priority = np.array([c.priority for c in population], dtype=float)
        if priority_weighted:
            self._client_weights = self._client_priority / self._client_priority.sum()
            self._client_cdf = np.cumsum(self._client_weights)
        else:
            self._client_weights = None
            self._client_cdf = None
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
        return list(islice(self._stream, _CHUNK))

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
