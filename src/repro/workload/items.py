"""Item catalog: variable-length data items with Zipf access popularity.

The paper's evaluation (Section 5.1) uses ``D = 100`` items whose lengths
vary from 1 to 5 *with an average of 2* — note that a uniform draw over
{1..5} would average 3, so the length law must be skewed toward short
items.  We default to a truncated-geometric length law calibrated to hit
the requested mean exactly, and also provide uniform and constant laws for
ablations.

Transmitting item ``i`` occupies the broadcast channel for ``L_i`` time
("broadcast units"), which is the time unit all the paper's delay plots
use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal, Sequence

import numpy as np

from .zipf import zipf_probabilities

__all__ = [
    "DEFAULT_CATALOG_SEED",
    "Item",
    "ItemCatalog",
    "truncated_geometric_pmf",
    "calibrate_geometric",
]

LengthLaw = Literal["truncated_geometric", "uniform", "constant"]

#: Seed of the default catalog length draw.  This is *not* a simulation
#: stream: the catalog is a fixture shared by every run (the paper's
#: fixed 100-item database), so its seed is part of the public API —
#: golden traces pin the lengths it produces.  Simulation streams must
#: instead come from a spawned SeedSequence (see ``repro.sim.runner``).
DEFAULT_CATALOG_SEED = 0


@dataclass(frozen=True, slots=True)
class Item:
    """One data item in the server database.

    Attributes
    ----------
    item_id:
        0-based index; item 0 is the most popular (Zipf rank 1).
    length:
        Transmission time in broadcast units (``L_i`` in the paper).
    probability:
        Access probability ``P_i`` (Zipf).
    """

    item_id: int
    length: float
    probability: float

    def __post_init__(self) -> None:
        if self.item_id < 0:
            raise ValueError(f"item_id must be >= 0, got {self.item_id}")
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if not 0 <= self.probability <= 1:
            raise ValueError(f"probability outside [0,1]: {self.probability}")


def truncated_geometric_pmf(p: float, support: Sequence[int]) -> np.ndarray:
    """PMF of a geometric law restricted (and renormalised) to ``support``.

    ``P(L = support[k]) ∝ (1-p)^k`` — ``p`` near 1 concentrates on the first
    support point, ``p`` near 0 approaches uniform.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0,1), got {p}")
    k = np.arange(len(support), dtype=float)
    w = (1.0 - p) ** k
    return w / w.sum()


def calibrate_geometric(mean: float, support: Sequence[int]) -> float:
    """Find ``p`` so the truncated geometric over ``support`` has ``mean``.

    Raises
    ------
    ValueError
        If ``mean`` is not strictly inside ``(min(support), mean_uniform]``
        — the truncated geometric with decreasing weights cannot exceed the
        uniform mean.
    """
    support_arr = np.asarray(support, dtype=float)
    lo, hi = float(support_arr.min()), float(support_arr.mean())
    if not lo < mean < hi:
        raise ValueError(
            f"target mean {mean} must lie strictly in ({lo}, {hi}) for support {list(support)}"
        )

    # The mean falls as p grows.  Bisect until no double lies strictly
    # inside the bracket; ordering tests alone decide every step.
    below, above = 1e-9, 1 - 1e-9
    while True:
        p = 0.5 * (below + above)
        if not below < p < above:
            return p
        if truncated_geometric_pmf(p, support) @ support_arr > mean:
            below = p
        else:
            above = p


@dataclass
class ItemCatalog:
    """The server database: ``D`` items with lengths and Zipf popularities.

    Use :meth:`generate` for the paper's configuration, or construct
    directly from explicit ``lengths`` for tests/ablations.

    Attributes
    ----------
    lengths:
        ``L_i`` per item, in Zipf-rank order (index 0 = most popular).
    probabilities:
        ``P_i`` per item (sums to 1).
    """

    lengths: np.ndarray
    probabilities: np.ndarray
    _items: list[Item] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=float)
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.lengths.ndim != 1 or self.probabilities.ndim != 1:
            raise ValueError("lengths and probabilities must be 1-D")
        if len(self.lengths) != len(self.probabilities):
            raise ValueError(
                f"length mismatch: {len(self.lengths)} lengths vs "
                f"{len(self.probabilities)} probabilities"
            )
        if len(self.lengths) == 0:
            raise ValueError("catalog cannot be empty")
        if np.any(self.lengths <= 0):
            raise ValueError("all item lengths must be > 0")
        if abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {self.probabilities.sum()}")
        self._items = [
            Item(i, float(l), float(p))
            for i, (l, p) in enumerate(zip(self.lengths, self.probabilities))
        ]

    # -- construction --------------------------------------------------------
    @classmethod
    def generate(
        cls,
        num_items: int = 100,
        theta: float = 0.60,
        min_length: int = 1,
        max_length: int = 5,
        mean_length: float = 2.0,
        length_law: LengthLaw = "truncated_geometric",
        rng: np.random.Generator | None = None,
    ) -> "ItemCatalog":
        """Generate the paper's catalog: Zipf popularities, skewed lengths.

        Parameters
        ----------
        num_items:
            ``D`` (paper: 100).
        theta:
            Zipf skew.
        min_length, max_length, mean_length:
            Length law support and target mean (paper: 1..5, mean 2).
        length_law:
            ``"truncated_geometric"`` (paper-calibrated default),
            ``"uniform"`` over the support, or ``"constant"`` at
            ``mean_length`` (homogeneous ablation).
        rng:
            Source of randomness for the lengths (default: fresh PCG64
            seeded with :data:`DEFAULT_CATALOG_SEED` — the catalog is a
            shared fixture, not a simulation stream, so a fixed
            API-level seed is the contract here).
        """
        if rng is None:
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(DEFAULT_CATALOG_SEED))
            )
        probabilities = zipf_probabilities(num_items, theta)
        support = list(range(min_length, max_length + 1))
        if length_law == "constant":
            lengths = np.full(num_items, float(mean_length))
        elif length_law == "uniform":
            lengths = rng.choice(support, size=num_items).astype(float)
        elif length_law == "truncated_geometric":
            p = calibrate_geometric(mean_length, support)
            pmf = truncated_geometric_pmf(p, support)
            lengths = rng.choice(support, size=num_items, p=pmf).astype(float)
        else:  # pragma: no cover - guarded by Literal type
            raise ValueError(f"unknown length law {length_law!r}")
        return cls(lengths=lengths, probabilities=probabilities)

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, item_id: int) -> Item:
        return self._items[item_id]

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    # -- paper quantities --------------------------------------------------------
    def push_set(self, cutoff: int) -> list[Item]:
        """Items 0..cutoff-1 — the broadcast (push) set for cutoff ``K``."""
        self._check_cutoff(cutoff)
        return self._items[:cutoff]

    def pull_set(self, cutoff: int) -> list[Item]:
        """Items cutoff..D-1 — the on-demand (pull) set."""
        self._check_cutoff(cutoff)
        return self._items[cutoff:]

    def push_probability(self, cutoff: int) -> float:
        """Total access probability of the push set, ``Σ_{i≤K} P_i``."""
        self._check_cutoff(cutoff)
        return float(self.probabilities[:cutoff].sum())

    def pull_probability(self, cutoff: int) -> float:
        """Total access probability of the pull set, ``Σ_{i>K} P_i``."""
        return 1.0 - self.push_probability(cutoff)

    def weighted_push_length(self, cutoff: int) -> float:
        """``Σ_{i≤K} P_i·L_i`` — the paper's ``μ₁`` quantity (§5.1)."""
        self._check_cutoff(cutoff)
        return float(self.probabilities[:cutoff] @ self.lengths[:cutoff])

    def weighted_pull_length(self, cutoff: int) -> float:
        """``Σ_{i>K} P_i·L_i`` — the paper's ``μ₂`` quantity (§5.1)."""
        self._check_cutoff(cutoff)
        return float(self.probabilities[cutoff:] @ self.lengths[cutoff:])

    def broadcast_cycle_length(self, cutoff: int) -> float:
        """Total length of one flat broadcast cycle over the push set."""
        self._check_cutoff(cutoff)
        return float(self.lengths[:cutoff].sum())

    def mean_pull_service_time(self, cutoff: int) -> float:
        """Mean transmission time of a pull request's item.

        Lengths weighted by the *conditional* access probabilities of the
        pull set (the item a pull request asks for is Zipf-distributed over
        the pull set).  Returns ``nan`` for an all-push split.
        """
        self._check_cutoff(cutoff)
        mass = self.pull_probability(cutoff)
        if mass <= 0:
            return float("nan")
        return self.weighted_pull_length(cutoff) / mass

    def _check_cutoff(self, cutoff: int) -> None:
        if not 0 <= cutoff <= len(self._items):
            raise ValueError(f"cutoff {cutoff} outside [0, {len(self._items)}]")
