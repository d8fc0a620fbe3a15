"""Per-class bandwidth partitioning (§3/§5: "minimizing the number of
requests dropped by assigning appropriate fraction of available
bandwidth").

In the serial service model a pull transmission for class ``c`` is
admitted iff its Poisson(``m``) bandwidth demand fits within the class's
reservation ``B_c = share_c · B``; the blocking probability is therefore
the exact Poisson tail

    P_block(c) = P[X > floor(B_c)],   X ~ Poisson(m).

:func:`blocking_probabilities` evaluates that tail;
:func:`optimize_shares` searches the simplex of share vectors for the
partition minimising priority-weighted blocking — the quantity the
paper's abstract claims can keep premium-class drops "very low".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .config import HybridConfig

__all__ = [
    "blocking_probabilities",
    "BandwidthAllocation",
    "optimize_shares",
    "poisson_tail",
]


def poisson_tail(mean: float, capacity: float) -> float:
    """``P[Poisson(mean) > capacity]`` — the admission-failure probability.

    ``capacity`` is compared as a real number: a demand of ``k`` units is
    admitted iff ``k <= capacity``.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if capacity < 0:
        return 1.0
    if mean == 0:
        return 0.0
    from scipy import stats

    return float(stats.poisson.sf(math.floor(capacity), mean))


def blocking_probabilities(
    shares: Sequence[float], total_bandwidth: float, demand_mean: float
) -> np.ndarray:
    """Per-class blocking probability under a share vector."""
    s = np.asarray(shares, dtype=float)
    if np.any(s < 0):
        raise ValueError(f"shares must be >= 0, got {s}")
    if total_bandwidth <= 0:
        raise ValueError(f"total_bandwidth must be > 0, got {total_bandwidth}")
    return np.asarray(
        [poisson_tail(demand_mean, share * total_bandwidth) for share in s], dtype=float
    )


@dataclass(frozen=True)
class BandwidthAllocation:
    """An optimised per-class bandwidth partition.

    Attributes
    ----------
    shares:
        Fraction of total bandwidth per class (rank order); sums to 1.
    blocking:
        Resulting per-class blocking probabilities.
    weighted_blocking:
        The optimised objective ``Σ_c w_c · P_block(c)``.
    """

    shares: np.ndarray
    blocking: np.ndarray
    weighted_blocking: float

    def apply(self, config: HybridConfig) -> HybridConfig:
        """Return ``config`` with these shares installed."""
        return config.with_bandwidth_shares(list(self.shares))


def optimize_shares(
    config: HybridConfig,
    weights: Sequence[float] | None = None,
    resolution: int = 20,
) -> BandwidthAllocation:
    """Grid-search the share simplex for minimal weighted blocking.

    Parameters
    ----------
    config:
        Supplies the class count, total bandwidth and demand mean.
    weights:
        Objective weights per class (default: the class priorities, so
        premium blocking is penalised hardest).
    resolution:
        Simplex grid granularity — shares are multiples of
        ``1/resolution``.  Every class gets a strictly positive share.

    Notes
    -----
    The per-class blocking is independent across classes given the
    shares, so the objective is separable but *not* convex in the
    discrete Poisson tail; exhaustive simplex enumeration (cheap at the
    paper's 3 classes) is exact on the grid.  Ties prefer more bandwidth
    for more important classes (lexicographic by shares, descending).
    """
    n = len(config.class_specs)
    w = (
        np.asarray(weights, dtype=float)
        if weights is not None
        else config.class_priorities()
    )
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    if resolution < n:
        raise ValueError(f"resolution {resolution} too coarse for {n} classes")

    best: tuple[float, tuple[float, ...]] | None = None
    # Enumerate compositions of `resolution` into n positive parts.
    for parts in product(range(1, resolution - n + 2), repeat=n - 1):
        remainder = resolution - sum(parts)
        if remainder < 1:
            continue
        units = parts + (remainder,)
        shares = tuple(u / resolution for u in units)
        blocking = blocking_probabilities(
            shares, config.total_bandwidth, config.bandwidth_demand_mean
        )
        objective = float(w @ blocking)
        key = (objective, tuple(-s for s in shares))
        if best is None or key < best:
            best = key
            best_shares, best_blocking = shares, blocking
    assert best is not None  # resolution >= n guarantees one composition
    return BandwidthAllocation(
        shares=np.asarray(best_shares),
        blocking=best_blocking,
        weighted_blocking=best[0],
    )
