"""Client population partitioned into priority service classes.

Paper Section 5.1 (assumptions 5–6): clients are split into Class-A
(highest priority), Class-B (medium) and Class-C (lowest), with priorities
in ratio 1::2::3 and class populations following a Zipf law such that the
*highest* priority class has the *fewest* clients.

We encode priority as the weight ``q_j`` a client contributes to an item's
total priority ``Q_i = Σ q_j`` — a larger ``q_j`` pulls the item forward in
the importance-factor ordering, so Class-A (most important) carries the
largest weight.  With the paper's 1::2::3 ratio that means
``q_A : q_B : q_C = 3 : 2 : 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .zipf import zipf_probabilities

__all__ = ["ServiceClass", "Client", "ClientPopulation", "paper_classes"]


@dataclass(frozen=True, slots=True)
class ServiceClass:
    """One priority class of clients.

    Attributes
    ----------
    name:
        Human label ("A", "B", "C", ... in the paper).
    priority:
        The weight ``q_j`` each member contributes to ``Q_i``; larger is
        more important.
    rank:
        0-based importance rank — 0 is the most important class.  Used by
        the non-preemptive priority analysis (Cobham ordering).
    """

    name: str
    priority: float
    rank: int

    def __post_init__(self) -> None:
        if self.priority <= 0:
            raise ValueError(f"priority must be > 0, got {self.priority}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")


@dataclass(frozen=True, slots=True)
class Client:
    """One client device, bound to a service class."""

    client_id: int
    service_class: ServiceClass

    @property
    def priority(self) -> float:
        """Shortcut for the client's class weight ``q_j``."""
        return self.service_class.priority


def paper_classes(
    names: Sequence[str] = ("A", "B", "C"),
    ratio: Sequence[float] = (3.0, 2.0, 1.0),
) -> list[ServiceClass]:
    """The paper's three service classes with 1::2::3 priority ratio.

    ``ratio`` is given most-important-first (Class-A weight 3).
    """
    if len(names) != len(ratio):
        raise ValueError(f"{len(names)} names vs {len(ratio)} ratio entries")
    if list(ratio) != sorted(ratio, reverse=True):
        raise ValueError("ratio must be non-increasing (most important class first)")
    return [ServiceClass(name=n, priority=float(q), rank=i) for i, (n, q) in enumerate(zip(names, ratio))]


@dataclass
class ClientPopulation:
    """A set of clients partitioned over service classes.

    Attributes
    ----------
    classes:
        Service classes in importance order (rank 0 first).
    class_counts:
        Number of clients per class (aligned with ``classes``).
    """

    classes: list[ServiceClass]
    class_counts: np.ndarray
    #: Per-client objects, materialised on first per-client access.  The
    #: population-aggregated scale path (``repro.scale``) only ever reads
    #: the class-level views, so a 10M-client population stays O(classes)
    #: until somebody actually iterates clients.
    _clients: list[Client] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.class_counts = np.asarray(self.class_counts, dtype=int)
        if len(self.classes) != len(self.class_counts):
            raise ValueError(
                f"{len(self.classes)} classes vs {len(self.class_counts)} counts"
            )
        if np.any(self.class_counts < 0) or self.class_counts.sum() == 0:
            raise ValueError("class counts must be non-negative and not all zero")
        ranks = [c.rank for c in self.classes]
        if ranks != list(range(len(self.classes))):
            raise ValueError(f"classes must be in rank order 0..n-1, got ranks {ranks}")

    def _materialize(self) -> list[Client]:
        if self._clients is None:
            clients: list[Client] = []
            cid = 0
            for svc, count in zip(self.classes, self.class_counts):
                for _ in range(int(count)):
                    clients.append(Client(client_id=cid, service_class=svc))
                    cid += 1
            self._clients = clients
        return self._clients

    # -- construction --------------------------------------------------------
    @classmethod
    def generate(
        cls,
        num_clients: int,
        classes: Sequence[ServiceClass] | None = None,
        population_skew: float = 1.0,
    ) -> "ClientPopulation":
        """Paper §5.1 population: class sizes Zipf with *fewest* in Class-A.

        The Zipf law over class sizes is applied in reverse rank order so
        the most important class gets the smallest share (assumption 6).
        Every class receives at least one client.

        Parameters
        ----------
        num_clients:
            Total population size ``C``.
        classes:
            Service classes (default: :func:`paper_classes`).
        population_skew:
            Zipf skew of the class-size law; 0 gives equal class sizes.
        """
        class_list = list(classes) if classes is not None else paper_classes()
        n = len(class_list)
        if num_clients < n:
            raise ValueError(f"need >= {n} clients to populate {n} classes, got {num_clients}")
        shares = zipf_probabilities(n, population_skew)[::-1]  # smallest share first (= Class-A)
        counts = np.maximum(1, np.floor(shares * num_clients).astype(int))
        # Distribute the remainder to the largest-share class; ties go to
        # the least important class so Class-A never gains the spillover.
        spill = len(shares) - 1 - int(np.argmax(shares[::-1]))
        while counts.sum() < num_clients:
            counts[spill] += 1
        while counts.sum() > num_clients:
            candidates = np.where(counts > 1)[0]
            counts[candidates[-1]] -= 1
        return cls(classes=class_list, class_counts=counts)

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self.class_counts.sum())

    def __getitem__(self, client_id: int) -> Client:
        return self._materialize()[client_id]

    def __iter__(self) -> Iterator[Client]:
        return iter(self._materialize())

    # -- class-level views --------------------------------------------------------
    @property
    def num_classes(self) -> int:
        """Number of service classes."""
        return len(self.classes)

    @property
    def priorities(self) -> np.ndarray:
        """Per-class priority weights ``q`` in rank order."""
        return np.array([c.priority for c in self.classes], dtype=float)

    @property
    def class_fractions(self) -> np.ndarray:
        """Fraction of the population in each class (rank order).

        Because clients request items at a common rate, this is also the
        probability a random request originates from each class.
        """
        return self.class_counts / self.class_counts.sum()

    def client_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each client's class rank and priority weight ``q_j``, by client id.

        Client ids run class by class, so no client is materialised.
        """
        ranks = np.repeat(np.arange(self.num_classes), self.class_counts)
        return ranks, self.priorities[ranks]

    def class_by_name(self, name: str) -> ServiceClass:
        """Look up a service class by its label."""
        for svc in self.classes:
            if svc.name == name:
                return svc
        raise KeyError(f"no service class named {name!r}")

    def clients_in_class(self, name: str) -> list[Client]:
        """All clients belonging to the named class."""
        svc = self.class_by_name(name)
        return [c for c in self._materialize() if c.service_class is svc]

    def mean_priority(self) -> float:
        """Population-average priority weight ``E[q]``."""
        return float(self.priorities @ self.class_fractions)
