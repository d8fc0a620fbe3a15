"""Deterministic, named random-number streams for reproducible simulation.

Every stochastic component of the simulator draws from its own named
stream.  Streams are derived from a single root seed via
``numpy.random.SeedSequence.spawn``-style key derivation, so:

* a run is a pure function of ``(configuration, seed)``;
* adding a new stochastic component does not perturb the draws of
  existing components (streams are keyed by *name*, not creation order).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, TypeVar

# numpy imports numpy.random on first attribute access.  Every run draws
# from it, so it loads with repro, not inside a system build or timed run.
import numpy as np
import numpy.random  # noqa: F401

_T = TypeVar("_T")

__all__ = ["RandomStreams", "stable_key"]


def stable_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (BLAKE2 digest).

    Python's built-in ``hash`` is salted per-interpreter-run and therefore
    unusable for reproducible stream derivation.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RandomStreams:
    """A family of independent, named ``numpy.random.Generator`` streams.

    Parameters
    ----------
    seed:
        Root seed for the whole family.  Two families with the same seed
        produce identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.stream("arrivals")
    >>> lengths = streams.stream("item-lengths")
    >>> float(arrivals.exponential(1.0)) != float(lengths.exponential(1.0))
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed of this family."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``.

        Repeated calls with the same name return the *same* generator
        object, so draws continue where they left off.
        """
        gen = self._cache.get(name)
        if gen is None:
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(stable_key(name),))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._cache[name] = gen
        return gen

    def fork(self, name: str) -> "RandomStreams":
        """Derive a child family (e.g. one per replication) keyed by ``name``."""
        child_seed = (self._seed * 0x9E3779B97F4A7C15 + stable_key(name)) % (2**63)
        return RandomStreams(seed=child_seed)

    # -- convenience distributions used across the simulator ----------------
    def exponential(self, name: str, rate: float) -> float:
        """One draw from Exp(rate); ``rate`` is events per unit time."""
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        return float(self.stream(name).exponential(1.0 / rate))

    def poisson(self, name: str, mean: float) -> int:
        """One draw from Poisson(mean)."""
        if mean < 0:
            raise ValueError(f"mean must be >= 0, got {mean}")
        return int(self.stream(name).poisson(mean))

    def choice(self, name: str, n: int, p: Sequence[float] | np.ndarray) -> int:
        """Sample an index in ``range(n)`` with probabilities ``p``."""
        return int(self.stream(name).choice(n, p=np.asarray(p, dtype=float)))

    def uniform_int(self, name: str, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self.stream(name).integers(low, high + 1))

    def shuffle(self, name: str, items: Iterable[_T]) -> list[_T]:
        """Return a shuffled copy of ``items``."""
        out = list(items)
        self.stream(name).shuffle(out)
        return out
