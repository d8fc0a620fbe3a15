"""Population-aggregated Poisson request generation for the scale path.

A superposition of independent Poisson processes is itself Poisson, so the
per-client request processes of :class:`~repro.workload.clients.ClientPopulation`
collapse *exactly* into one aggregate process at rate ``λ'`` whose requests
are labelled by (item, class) via independent thinning:

    λ_{i,j} = λ' · p_i · f_j

where ``p_i`` is the Zipf item probability and ``f_j`` the probability a
random request originates from class ``j`` (the class's population share,
or its priority-mass share when draws are priority-weighted).  Client
identity beyond the class label never influences the scheduler — entries
fold requests into counts — so dropping it loses nothing distributionally.

:class:`PopulationArrivals` therefore never materialises clients: requests
carry ``client_id = -1`` and a class rank drawn straight from the class
share CDF.  This is *statistically identical* to
:class:`~repro.workload.batched.BatchedArrivals` (which draws a concrete
client uniformly and reads off its class) but O(num_classes) in the
population size ``N`` — the workload for ``N = 10M`` costs the same to set
up as ``N = 300``.  Only the aggregate rate grows with ``N``.

Like :class:`BatchedArrivals`, generation is chunked numpy blocks; the
struct-of-arrays view (:meth:`next_block`) hands numpy arrays to the
population engine's vectorised fold without any ``Request`` objects, while
:meth:`next_chunk` / ``__iter__`` keep the generic ``Request`` API for
tests and the reference driver.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .arrivals import InverseCdf, Request, _Sampler
from .clients import ClientPopulation
from .items import ItemCatalog

__all__ = ["PopulationArrivals"]

#: One block of aggregated arrivals: ``(times, item_ids, class_ranks)``.
Block = tuple[NDArray[np.float64], NDArray[np.intp], NDArray[np.intp]]

#: Sentinel client id carried by aggregated requests — no concrete client
#: exists, only a class label.
AGGREGATE_CLIENT = -1


class PopulationArrivals(_Sampler):
    """Aggregated per-(item, class) Poisson arrival streams.

    Takes :class:`~repro.workload.arrivals.ArrivalProcess`'s parameters,
    plus ``chunk_size``, the arrivals generated per numpy block.  Only the
    population's class-level views are read; clients are never
    materialised.  ``priority_weighted`` weights the class share by
    priority mass (class ``j`` share ``∝ count_j · q_j``) instead of
    population share — the aggregated equivalent of drawing the client
    proportionally to ``q_j``.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        population: ClientPopulation,
        rate: float,
        rng: np.random.Generator,
        priority_weighted: bool = False,
        chunk_size: int = 8192,
    ) -> None:
        super().__init__(catalog, population, rate, rng, priority_weighted, chunk_size)
        if priority_weighted:
            mass = population.class_counts * population.priorities
            shares = mass / mass.sum()
        else:
            shares = population.class_fractions
        #: Probability a random request belongs to each class (rank order).
        self.class_shares: np.ndarray = np.asarray(shares, dtype=float)
        self._classes = InverseCdf(np.cumsum(self.class_shares))
        self._class_priority = [float(q) for q in population.priorities]
        self._items = InverseCdf(np.cumsum(catalog.probabilities))
        #: Clock of the last generated arrival; the next block continues
        #: from here, so consecutive blocks form one Poisson process.
        self._t = 0.0

    # -- aggregated stream structure -------------------------------------------
    def rate_for(self, item_id: int, rank: int) -> float:
        """Poisson rate of the aggregated (item, class) component stream.

        ``λ_{i,j} = λ' · p_i · f_j`` — independent thinning of the
        aggregate, so the component rates sum back to ``λ'`` exactly.
        """
        return float(
            self.rate
            * self.catalog.probabilities[item_id]
            * self.class_shares[rank]
        )

    # -- generation --------------------------------------------------------------
    def next_block(self) -> Block:
        """Next ``chunk_size`` arrivals as parallel numpy arrays.

        Returns ``(times, item_ids, class_ranks)`` in time order, continuing
        the previous block's clock: the struct-of-arrays view the population
        engine folds directly — no ``Request`` objects, no client ids.
        Priorities are a pure function of rank (``population.priorities[rank]``).
        """
        n = self.chunk_size
        rng = self.rng
        times = self._t + np.cumsum(rng.exponential(1.0 / self.rate, size=n))
        self._t = float(times[-1])
        item_ids = self._items(rng.random(n))
        ranks = self._classes(rng.random(n))
        return times, item_ids, ranks

    def next_chunk(self) -> list[Request]:
        """Next ``chunk_size`` arrivals as ``Request`` objects.

        Same draws as :meth:`next_block`; requests carry the sentinel
        ``client_id = -1`` because no concrete client exists.
        """
        times, item_ids, ranks = self.next_block()
        priority = self._class_priority
        return [
            Request(
                time=t,
                item_id=i,
                client_id=AGGREGATE_CLIENT,
                class_rank=k,
                priority=priority[k],
            )
            for t, i, k in zip(times.tolist(), item_ids.tolist(), ranks.tolist())
        ]
