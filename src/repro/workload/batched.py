"""Chunked, numpy-vectorised Poisson request generation.

:class:`BatchedArrivals` produces the same workload *distribution* as the
lazy :class:`~repro.workload.arrivals.ArrivalProcess` — exponential
inter-arrival gaps at aggregate rate ``λ'``, Zipf item draws, uniform or
priority-weighted client draws — but samples whole chunks of variates at
once instead of three scalar numpy calls per arrival.  Per-call numpy
dispatch overhead (~1 µs each) dominates the reference arrival path, so
batching it is one of the fast engine's main levers.

The draws are consumed from the same named stream in a different order
(blocked per-variate instead of interleaved per-arrival), so a batched
run is **statistically identical but not bit-identical** to a reference
run of the same seed; see ``docs/performance.md``.

Chunking bounds memory: only ``chunk_size`` requests exist at a time, so
an unbounded-horizon stream never materialises the whole trace.
:class:`~repro.workload.arrivals.Request` objects (``slots=True``
dataclasses) are built once per chunk from plain-Python scalars
(``ndarray.tolist``) — the struct-of-arrays representation stays internal
and the API boundary still speaks ``Request``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .arrivals import InverseCdf, Request, _Sampler
from .clients import ClientPopulation
from .items import ItemCatalog

__all__ = ["BatchedArrivals"]


class BatchedArrivals(_Sampler):
    """Vectorised equivalent of :class:`~repro.workload.arrivals.ArrivalProcess`.

    Takes :class:`~repro.workload.arrivals.ArrivalProcess`'s parameters,
    plus ``chunk_size``, the arrivals generated per batch.  Larger chunks
    amortise numpy dispatch further but hold more ``Request`` objects
    alive; the default keeps a chunk comfortably inside L2-cache-sized
    lists.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        population: ClientPopulation,
        rate: float,
        rng: np.random.Generator,
        priority_weighted: bool = False,
        chunk_size: int = 4096,
    ) -> None:
        super().__init__(catalog, population, rate, rng, priority_weighted, chunk_size)
        self._num_clients = len(population)
        self._client_class_rank, self._client_priority = population.client_table()
        self._items = InverseCdf(np.cumsum(catalog.probabilities))
        self._clients: Optional[InverseCdf] = None
        if priority_weighted:
            weights = self._client_priority / self._client_priority.sum()
            self._clients = InverseCdf(np.cumsum(weights))
        #: Clock of the last generated arrival; the next chunk continues
        #: from here, so consecutive chunks form one Poisson process.
        self._t = 0.0

    def next_chunk(self) -> list[Request]:
        """Generate the next ``chunk_size`` arrivals, in time order.

        One exponential block, one item-uniform block and one client
        block replace ``3 × chunk_size`` scalar draws.  Times are a
        running cumulative sum, so they continue seamlessly from the
        previous chunk and are non-decreasing by construction.
        """
        n = self.chunk_size
        rng = self.rng
        times = self._t + np.cumsum(rng.exponential(1.0 / self.rate, size=n))
        self._t = float(times[-1])
        item_ids = self._items(rng.random(n))
        if self._clients is None:
            client_ids = rng.integers(0, self._num_clients, size=n)
        else:
            client_ids = self._clients(rng.random(n))
        ranks = self._client_class_rank[client_ids]
        priorities = self._client_priority[client_ids]
        return [
            Request(time=t, item_id=i, client_id=c, class_rank=k, priority=p)
            for t, i, c, k, p in zip(
                times.tolist(),
                item_ids.tolist(),
                client_ids.tolist(),
                ranks.tolist(),
                priorities.tolist(),
            )
        ]
