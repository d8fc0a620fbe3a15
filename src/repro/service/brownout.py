"""Brownout: sustained-overload shedding in strict C → B → A order.

The simulator's :class:`~repro.sim.overload.OverloadController` refuses
admissions instantaneously once occupancy crosses per-class limits; a
live service needs the *sustained* version — reacting to a windowed
signal, with hysteresis, so a single bursty window cannot flap the
degradation policy (Chaudhary–Kavitha–Nair's partially-lossy reading:
lossy low-class traffic absorbs overload so the fluid high-class traffic
keeps its deadlines).

The controller consumes one occupancy observation per window (fed by the
service's monitor loop, which samples the same windowed timeline the
``/stream`` endpoint publishes) and maintains a *brownout level* ``k``:
the ``k`` lowest-ranked classes are shed at admission.  Level changes
move one step at a time:

* ``engage`` consecutive windows with occupancy ≥ ``high`` → level +1,
* ``release`` consecutive windows with occupancy ≤ ``low`` → level −1.

Because the shed set at level ``k`` is always a superset of the shed set
at ``k-1`` and levels move stepwise, classes are browned out strictly in
reverse rank order — C first, then B, and A only if the configured
ceiling allows it at all (the default ceiling ``num_classes - 1`` spares
A entirely).  :func:`~repro.core.overload.admission_limits` supplies the
per-class *occupancy* limits used inside a level, so the instantaneous
trunk-reservation defense and the sustained brownout compose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.overload import admission_limits
from .config import ServiceConfig

__all__ = ["BrownoutController"]


@dataclass
class BrownoutController:
    """Windowed, hysteretic, class-ordered load shedding.

    Build with :meth:`from_config`; feed :meth:`observe` once per window
    and consult :meth:`admits` per admission decision.
    """

    num_classes: int
    capacity: int
    high: float
    low: float
    engage: int
    release: int
    max_level: int
    threshold: float = 0.85
    level: int = 0
    #: Consecutive windows at/above the high water mark.
    hot_windows: int = 0
    #: Consecutive windows at/below the low water mark.
    cool_windows: int = 0
    #: ``(window_index, old_level, new_level)`` history, oldest first.
    transitions: list[tuple[int, int, int]] = field(default_factory=list)
    #: Admission refusals per class rank.
    shed_by_rank: list[int] = field(default_factory=list)
    #: Windows observed so far.
    windows: int = 0
    #: Per-rank occupancy limits applied *within* a level (trunk
    #: reservation): even before brownout engages, a nearly-full queue
    #: stops admitting the lowest classes first.
    limits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.shed_by_rank:
            self.shed_by_rank = [0] * self.num_classes
        if not self.limits:
            self.limits = admission_limits(
                self.threshold, self.capacity, self.num_classes
            )

    @classmethod
    def from_config(cls, config: ServiceConfig) -> "BrownoutController":
        """Wire the controller from a :class:`ServiceConfig`."""
        return cls(
            num_classes=config.num_classes,
            capacity=config.ingress_capacity,
            high=config.brownout_high,
            low=config.brownout_low,
            engage=config.brownout_engage,
            release=config.brownout_release,
            max_level=config.resolved_max_level(),
            threshold=config.brownout_high,
        )

    # -- windowed signal -------------------------------------------------------
    def observe(self, occupancy_fraction: float) -> int:
        """Feed one window's queue occupancy (0..1); returns the new level.

        The two hysteresis counters are mutually exclusive: a window in
        the dead band (``low < occ < high``) resets both, so escalation
        and de-escalation each require genuinely *consecutive* evidence.
        """
        self.windows += 1
        if occupancy_fraction >= self.high:
            self.hot_windows += 1
            self.cool_windows = 0
            if self.hot_windows >= self.engage and self.level < self.max_level:
                self._set_level(self.level + 1)
                self.hot_windows = 0
        elif occupancy_fraction <= self.low:
            self.cool_windows += 1
            self.hot_windows = 0
            if self.cool_windows >= self.release and self.level > 0:
                self._set_level(self.level - 1)
                self.cool_windows = 0
        else:
            self.hot_windows = 0
            self.cool_windows = 0
        return self.level

    def _set_level(self, new_level: int) -> None:
        self.transitions.append((self.windows, self.level, new_level))
        self.level = new_level

    # -- admission -------------------------------------------------------------
    def shed_rank_floor(self) -> int:
        """Lowest class rank currently shed (``num_classes`` = none shed)."""
        return self.num_classes - self.level

    def admits(self, class_rank: int, occupancy: int) -> bool:
        """Whether a new queue entry of ``class_rank`` is admitted now.

        Two gates compose, both monotone in rank:

        1. brownout level: ranks ≥ ``num_classes - level`` are shed;
        2. trunk reservation: within a level, occupancy must sit below
           the class's :func:`~repro.core.overload.admission_limits`.

        Counts the refusal when the answer is ``False``.
        """
        if class_rank >= self.shed_rank_floor() or occupancy >= self.limits[class_rank]:
            self.shed_by_rank[class_rank] += 1
            return False
        return True

    # -- audit ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON payload for ``/metrics``."""
        return {
            "level": self.level,
            "max_level": self.max_level,
            "windows": self.windows,
            "shed_by_rank": list(self.shed_by_rank),
            "transitions": [
                {"window": w, "from": a, "to": b} for w, a, b in self.transitions
            ],
            "limits": list(self.limits),
        }
