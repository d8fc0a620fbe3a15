"""Zipf access-probability law used throughout the paper.

The paper (Section 4.1) assumes item access probabilities

    P_i = (1/i)^theta / sum_j (1/j)^theta ,   i = 1..D

with *access skew coefficient* ``theta``: ``theta = 0`` is uniform access,
larger ``theta`` concentrates demand on the low-indexed (popular) items.
The evaluation sweeps ``theta`` in {0.20, 0.60, 1.0, 1.40}.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "zipf_probabilities",
    "zipf_cdf",
    "cumulative_mass",
    "effective_catalog_fraction",
    "fit_theta",
    "PAPER_THETAS",
]

#: The skew values the paper's evaluation uses (Section 5.1, assumption 4).
PAPER_THETAS: tuple[float, ...] = (0.20, 0.60, 1.0, 1.40)


def zipf_probabilities(n: int, theta: float) -> np.ndarray:
    """Zipf probability vector ``P_i ∝ (1/i)^theta`` for ``i = 1..n``.

    Parameters
    ----------
    n:
        Number of items (``D`` in the paper).  Must be >= 1.
    theta:
        Access skew coefficient.  ``0`` gives the uniform distribution.
        Must be >= 0 (the paper never uses negative skew).

    Returns
    -------
    numpy.ndarray
        Length-``n`` vector summing to 1, non-increasing in ``i``.
    """
    if n < 1:
        raise ValueError(f"need at least one item, got n={n}")
    if not theta >= 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-theta)
    return weights / weights.sum()


def zipf_cdf(n: int, theta: float) -> np.ndarray:
    """Cumulative distribution of :func:`zipf_probabilities`."""
    return np.cumsum(zipf_probabilities(n, theta))


def cumulative_mass(probabilities: np.ndarray, k: int) -> float:
    """Total access probability of the first ``k`` items (the push set).

    ``k = 0`` returns 0; ``k = len(probabilities)`` returns 1 (up to
    floating point).
    """
    if not 0 <= k <= len(probabilities):
        raise ValueError(f"k={k} outside [0, {len(probabilities)}]")
    return float(np.sum(probabilities[:k]))


def fit_theta(
    counts: np.ndarray,
    theta_bounds: tuple[float, float] = (0.0, 4.0),
) -> float:
    """Maximum-likelihood Zipf skew from observed per-rank request counts.

    ``counts[i]`` is the number of requests observed for the item of rank
    ``i+1``.  Maximises the multinomial log-likelihood
    ``Σ_i counts[i]·log P_i(θ)`` over ``θ`` — the estimator a deployed
    adaptive controller would run on its demand window.

    Parameters
    ----------
    counts:
        Non-negative observation counts in rank order.
    theta_bounds:
        Search interval for θ.

    Returns
    -------
    float
        The ML estimate, clipped to ``theta_bounds``.
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need a 1-D count vector with >= 2 ranks")
    if np.any(c < 0) or c.sum() <= 0:
        raise ValueError("counts must be non-negative with a positive total")
    from scipy import optimize as _optimize

    log_ranks = np.log(np.arange(1, c.size + 1, dtype=float))

    def negative_log_likelihood(theta: float) -> float:
        # log P_i = -theta*log(i) - log(sum_j j^-theta), computed stably.
        weights = -theta * log_ranks
        log_norm = float(np.logaddexp.reduce(weights))
        return -float(c @ (weights - log_norm))

    result = _optimize.minimize_scalar(
        negative_log_likelihood, bounds=theta_bounds, method="bounded"
    )
    return float(np.clip(result.x, *theta_bounds))


def effective_catalog_fraction(probabilities: np.ndarray, mass: float = 0.9) -> float:
    """Fraction of the catalog capturing ``mass`` of the access probability.

    A skew diagnostic: under high theta a small prefix of items covers most
    demand, which is exactly why a small push set suffices there.
    """
    if not 0 < mass <= 1:
        raise ValueError(f"mass must be in (0, 1], got {mass}")
    cdf = np.cumsum(probabilities)
    k = int(np.searchsorted(cdf, mass) + 1)
    return min(k, len(probabilities)) / len(probabilities)
