"""Measurement primitives: tallies, time-weighted series and counters.

Simulation output analysis lives here so the simulator proper only ever
calls ``observe``/``set`` and the statistics (means, variances, confidence
intervals, time-averages, batch means) are computed in one audited place.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

__all__ = ["Tally", "TimeWeighted", "Counter", "batch_means_ci", "t_quantile"]


def t_quantile(level: float, dof: int) -> float:
    """Two-sided Student-t critical value for a ``level`` interval.

    scipy is imported here, on first use, so that a simulation run, which
    never asks for an interval, does not load it.
    """
    from scipy import stats

    return float(stats.t.ppf(0.5 + level / 2.0, dof))


class Tally:
    """Streaming sample statistics over observations (Welford's algorithm).

    Records count, mean, variance, min and max in O(1) memory; optionally
    keeps the raw observations for percentile queries.

    Parameters
    ----------
    keep_values:
        If true, retain every observation (needed for percentiles).
    """

    def __init__(self, keep_values: bool = False) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._values: Optional[list[float]] = [] if keep_values else None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._values is not None:
            self._values.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations.

        Exactly equivalent to calling :meth:`observe` once per value —
        the same Welford recurrence runs in the same order, so the
        resulting statistical state (and :meth:`__eq__`) is bit-identical
        to the sequential path.  State access is hoisted into locals so
        batched hot paths (the fast engine's metric accumulation) pay one
        method call per batch instead of one per observation.
        """
        n = self._n
        mean = self._mean
        m2 = self._m2
        lo = self._min
        hi = self._max
        keep = self._values
        for raw in values:
            value = float(raw)
            n += 1
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
            if value < lo:
                lo = value
            if value > hi:
                hi = value
            if keep is not None:
                keep.append(value)
        self._n = n
        self._mean = mean
        self._m2 = m2
        self._min = lo
        self._max = hi

    def observe_moments(
        self,
        n: int,
        total: float,
        sq_total: float,
        minimum: float,
        maximum: float,
    ) -> None:
        """Merge a pre-aggregated moment summary in place (Chan et al.).

        ``(n, Σx, Σx², min, max)`` fully determines the tally state for a
        batch, so the population-aggregated engine can fold thousands of
        folded observations into one call.  The merge is the same pairwise
        update :meth:`merge` uses — *statistically exact* (identical count,
        mean, variance, min, max in exact arithmetic) but not bit-identical
        to replaying :meth:`observe`, because floating-point summation
        order differs.  Not available with ``keep_values=True``: the raw
        observations were never materialised.
        """
        if self._values is not None:
            raise RuntimeError("observe_moments cannot reconstruct kept values")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n == 0:
            return
        mean_b = total / n
        # Non-negative by Cauchy–Schwarz; clamp the float residue.
        m2_b = max(sq_total - total * mean_b, 0.0)
        combined = self._n + n
        delta = mean_b - self._mean
        self._mean += delta * n / combined
        self._m2 += m2_b + delta * delta * self._n * n / combined
        self._n = combined
        if minimum < self._min:
            self._min = minimum
        if maximum > self._max:
            self._max = maximum

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (``nan`` if empty)."""
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``nan`` if < 2 observations)."""
        return self._m2 / (self._n - 1) if self._n > 1 else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation (``nan`` if empty)."""
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation (``nan`` if empty)."""
        return self._max if self._n else math.nan

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile; requires ``keep_values=True``."""
        if self._values is None:
            raise RuntimeError("construct with keep_values=True for percentiles")
        if not self._values:
            return math.nan
        return float(np.percentile(self._values, q))

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t confidence interval for the mean.

        Returns ``(nan, nan)`` with fewer than two observations.
        """
        if self._n < 2:
            return (math.nan, math.nan)
        half = t_quantile(level, self._n - 1) * self.std / math.sqrt(self._n)
        return (self._mean - half, self._mean + half)

    def merge(self, other: "Tally") -> "Tally":
        """Return a new tally combining this one with ``other`` (Chan et al.)."""
        out = Tally(keep_values=self._values is not None and other._values is not None)
        n = self._n + other._n
        if n == 0:
            return out
        delta = other._mean - self._mean
        out._n = n
        out._mean = self._mean + delta * other._n / n
        out._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        if out._values is not None:
            out._values = list(self._values or []) + list(other._values or [])
        return out

    def __eq__(self, other: object) -> bool:
        """Value equality over the full statistical state.

        Two tallies fed the same observation sequence compare equal,
        which lets composite results (e.g. ``SimulationResult``) be
        compared bit-for-bit across runs.
        """
        if not isinstance(other, Tally):
            return NotImplemented
        return (
            self._n == other._n
            and self._mean == other._mean
            and self._m2 == other._m2
            and self._min == other._min
            and self._max == other._max
            and self._values == other._values
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Tally(n={self._n}, mean={self.mean:.4g})"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal (e.g. queue length).

    Call :meth:`set` whenever the level changes; the integral of the level
    over time accumulates automatically.

    Parameters
    ----------
    env_now:
        Function returning the current simulation time (typically the bound
        method ``lambda: env.now`` or the ``Environment.now`` property via a
        closure).
    initial:
        Level before the first :meth:`set`.
    """

    def __init__(self, now: float = 0.0, initial: float = 0.0) -> None:
        self._last_time = float(now)
        self._start_time = float(now)
        self._level = float(initial)
        self._area = 0.0
        self._max = float(initial)

    @property
    def level(self) -> float:
        """Current level of the signal."""
        return self._level

    @property
    def maximum(self) -> float:
        """Largest level ever set."""
        return self._max

    def set(self, now: float, level: float) -> None:
        """Change the level to ``level`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(f"time ran backwards: {now} < {self._last_time}")
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        level = float(level)
        self._level = level
        if level > self._max:
            self._max = level

    def add(self, now: float, delta: float) -> None:
        """Increment the level by ``delta`` at time ``now``."""
        self.set(now, self._level + delta)

    def time_average(self, now: Optional[float] = None) -> float:
        """Average level over ``[start, now]`` (``nan`` if zero elapsed)."""
        end = self._last_time if now is None else float(now)
        elapsed = end - self._start_time
        if elapsed <= 0:
            return math.nan
        area = self._area + self._level * (end - self._last_time)
        return area / elapsed

    def __eq__(self, other: object) -> bool:
        """Value equality over the full integrator state."""
        if not isinstance(other, TimeWeighted):
            return NotImplemented
        return (
            self._last_time == other._last_time
            and self._start_time == other._start_time
            and self._level == other._level
            and self._area == other._area
            and self._max == other._max
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"TimeWeighted(level={self._level}, avg={self.time_average():.4g})"


class Counter:
    """A plain event counter with a rate helper."""

    def __init__(self) -> None:
        self._count = 0

    def increment(self, by: int = 1) -> None:
        """Add ``by`` to the count."""
        self._count += by

    @property
    def count(self) -> int:
        """Current count."""
        return self._count

    def rate(self, elapsed: float) -> float:
        """Events per unit time over ``elapsed`` (``nan`` if non-positive)."""
        return self._count / elapsed if elapsed > 0 else math.nan

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counter):
            return NotImplemented
        return self._count == other._count

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Counter({self._count})"


def batch_means_ci(
    samples: np.ndarray | list[float], n_batches: int = 10, level: float = 0.95
) -> tuple[float, float, float]:
    """Batch-means point estimate and confidence interval.

    The classic remedy for autocorrelated simulation output: partition the
    (time-ordered) sample path into ``n_batches`` contiguous batches, treat
    batch means as i.i.d. and apply a Student-t interval.

    Returns
    -------
    (mean, lo, hi):
        Point estimate and confidence bounds.  ``(nan, nan, nan)`` when
        there are fewer samples than batches.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < n_batches or n_batches < 2:
        return (math.nan, math.nan, math.nan)
    usable = (x.size // n_batches) * n_batches
    batches = x[:usable].reshape(n_batches, -1).mean(axis=1)
    mean = float(batches.mean())
    sd = float(batches.std(ddof=1))
    half = t_quantile(level, n_batches - 1) * sd / math.sqrt(n_batches)
    return (mean, mean - half, mean + half)
