"""Nonstationary workloads: demand that drifts over time.

§3's periodic cut-off re-optimisation only matters when demand moves.
:class:`PhasedArrivalProcess` plays a sequence of phases, each with its
own Zipf skew (and optionally its own item permutation and arrival
rate), so the popular set — and hence the right cut-off — changes at
phase boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .arrivals import Request
from .clients import ClientPopulation
from .items import ItemCatalog
from .zipf import zipf_probabilities

__all__ = ["WorkloadPhase", "PhasedArrivalProcess"]


@dataclass(frozen=True)
class WorkloadPhase:
    """One stationary stretch of the drifting workload.

    Attributes
    ----------
    duration:
        Phase length in broadcast units.
    theta:
        Zipf skew during this phase.
    rate:
        Aggregate arrival rate (``None`` = keep the process default).
    rotate:
        Circular shift applied to the popularity ranking — ``rotate=k``
        makes item ``k`` the hottest, modelling interest moving through
        the catalog.
    """

    duration: float
    theta: float
    rate: Optional[float] = None
    rotate: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        if not self.theta >= 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.rate is not None and not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")


class PhasedArrivalProcess:
    """Poisson arrivals whose item law changes per phase (cyclic).

    Parameters
    ----------
    catalog:
        Item catalog (lengths only are used; popularities are per-phase).
    population:
        Client population for class/priority assignment.
    phases:
        Phase sequence, repeated cyclically forever.
    default_rate:
        Arrival rate used by phases that don't override it.
    rng:
        Randomness source.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        population: ClientPopulation,
        phases: Sequence[WorkloadPhase],
        default_rate: float,
        rng: np.random.Generator,
    ) -> None:
        if not phases:
            raise ValueError("at least one phase is required")
        if not 0 < default_rate < math.inf:
            raise ValueError(f"default_rate must be finite and > 0, got {default_rate}")
        self.catalog = catalog
        self.population = population
        self.phases = list(phases)
        self.default_rate = float(default_rate)
        self.rng = rng
        self._num_clients = len(population)
        self._client_class_rank, self._client_priority = population.client_table()

    def phase_probabilities(self, phase: WorkloadPhase) -> np.ndarray:
        """The item law in effect during ``phase``."""
        probs = zipf_probabilities(len(self.catalog), phase.theta)
        return np.roll(probs, phase.rotate % len(self.catalog))

    def phase_at(self, t: float) -> WorkloadPhase:
        """The phase active at absolute time ``t`` (phases cycle)."""
        total = sum(p.duration for p in self.phases)
        offset = t % total
        for phase in self.phases:
            if offset < phase.duration:
                return phase
            offset -= phase.duration
        return self.phases[-1]  # pragma: no cover - float edge

    def __iter__(self) -> Iterator[Request]:
        """Infinite time-ordered request stream across phases."""
        t = 0.0
        phase_index = 0
        phase_end = self.phases[0].duration
        cdf = np.cumsum(self.phase_probabilities(self.phases[0]))
        rate = self.phases[0].rate or self.default_rate
        while True:
            t += float(self.rng.exponential(1.0 / rate))
            while t >= phase_end:
                phase_index = (phase_index + 1) % len(self.phases)
                phase = self.phases[phase_index]
                phase_end += phase.duration
                cdf = np.cumsum(self.phase_probabilities(phase))
                rate = phase.rate or self.default_rate
            item_id = min(
                int(np.searchsorted(cdf, self.rng.random(), side="right")),
                len(self.catalog) - 1,
            )
            client_id = int(self.rng.integers(0, self._num_clients))
            yield Request(
                time=t,
                item_id=item_id,
                client_id=client_id,
                class_rank=int(self._client_class_rank[client_id]),
                priority=float(self._client_priority[client_id]),
            )
