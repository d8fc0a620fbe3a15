"""The closed-loop SLO controller: windowed QoS in, bounded knob moves out.

:class:`SLOController` is a *pure* deterministic policy object — no
wall-clock, no randomness, no simulator imports — so the same instance
drives the DES engines (:mod:`repro.control.loop`), the live service
(:mod:`repro.service.control`) and offline trace replay (``repro control
replay``).  Hosts feed it one :class:`WindowObservation` per control
window and apply whatever :class:`Decision.applied` asks for.

Hardening, in the order the update runs:

1. **NaN watchdog** — a window reporting non-finite statistics *despite
   having data* degrades the controller immediately.
2. **Hysteresis** — violations must persist ``engage_windows``
   consecutive windows before any move; after a move the controller
   holds still for ``cooldown_windows`` (per-knob rate limits on top of
   that live in :mod:`repro.control.knobs`).  Together these bound the
   reconfiguration rate to ``1 / (cooldown_windows + 1)`` changes per
   window — pinned by the Hypothesis suite.
3. **Oscillation watchdog** — ``flip_limit`` direction reversals of the
   cutoff within its recent-move memory means the controller is hunting
   across a workload boundary; it degrades rather than thrash.
4. **Failsafe** — degrading latches the controller: it reverts to the
   last knob state that met every SLO (initially the baseline) and
   refuses further moves until :meth:`SLOController.reset`.  Hosts emit
   ``ControllerDegraded`` + a ``source="failsafe"`` ``ConfigChange``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .knobs import KnobBounds, KnobState, clamp_step, project_shares
from .slo import SLOError, SLOSpec

__all__ = [
    "ClassWindow",
    "WindowObservation",
    "ControlSettings",
    "Decision",
    "SLOController",
    "find_violations",
]


@dataclass(frozen=True)
class ClassWindow:
    """One class's QoS inside one control window.

    ``delay_mean``/``delay_p95`` are statistics of the requests satisfied
    in the window (``nan`` when none were — that is *absence of
    evidence*, not corruption, and never trips the NaN watchdog).
    ``blocking`` is the blocked fraction of the window's ``arrivals``.
    """

    arrivals: int
    satisfied: int
    blocked: int
    delay_mean: float
    delay_p95: float
    blocking: float

    @property
    def corrupt(self) -> bool:
        """Non-finite statistics despite data: the NaN-watchdog predicate."""
        if self.arrivals < 0 or self.satisfied < 0 or self.blocked < 0:
            return True
        if self.satisfied > 0 and not (
            math.isfinite(self.delay_mean) and math.isfinite(self.delay_p95)
        ):
            return True
        if self.arrivals > 0 and not math.isfinite(self.blocking):
            return True
        return False


@dataclass(frozen=True)
class WindowObservation:
    """Windowed per-class QoS, the controller's only input."""

    window: int
    time: float
    classes: tuple[tuple[str, ClassWindow], ...]

    def for_class(self, name: str) -> ClassWindow:
        for label, stats in self.classes:
            if label == name:
                return stats
        raise KeyError(f"class {name!r} not observed; have {[n for n, _ in self.classes]}")


@dataclass(frozen=True)
class ControlSettings:
    """Hysteresis and watchdog tuning of one controller instance."""

    engage_windows: int = 2
    release_windows: int = 4
    cooldown_windows: int = 2
    flip_limit: int = 3
    flip_memory: int = 8

    def __post_init__(self) -> None:
        if self.engage_windows < 1:
            raise ValueError(f"engage_windows must be >= 1, got {self.engage_windows}")
        if self.release_windows < 1:
            raise ValueError(f"release_windows must be >= 1, got {self.release_windows}")
        if self.cooldown_windows < 0:
            raise ValueError(f"cooldown_windows must be >= 0, got {self.cooldown_windows}")
        if self.flip_limit < 1:
            raise ValueError(f"flip_limit must be >= 1, got {self.flip_limit}")
        if self.flip_memory < 2 * self.flip_limit:
            raise ValueError(
                f"flip_memory must be >= 2*flip_limit, got {self.flip_memory}"
            )


@dataclass(frozen=True)
class Decision:
    """What the controller concluded for one window.

    ``applied`` is the complete knob state to install (``None`` = hold
    everything).  ``violations`` lists the ``class:metric`` pairs over
    target this window; ``degraded`` marks a failsafe/latched decision.
    """

    window: int
    time: float
    applied: Optional[KnobState]
    reason: str
    violations: tuple[str, ...] = ()
    degraded: bool = False


def find_violations(spec: SLOSpec, obs: WindowObservation) -> tuple[str, ...]:
    """The ``class:metric`` pairs of ``obs`` that exceed their SLO targets.

    The controller's violation predicate, exposed so experiments can
    score *uncontrolled* runs with exactly the same yardstick.  Classes
    outside the spec are unconstrained; non-finite statistics (no data
    in the window) never count as violations.
    """
    found: list[str] = []
    for name, stats in obs.classes:
        try:
            slo = spec.for_class(name)
        except SLOError:
            continue
        if (
            slo.delay_mean is not None
            and math.isfinite(stats.delay_mean)
            and stats.delay_mean > slo.delay_mean
        ):
            found.append(f"{name}:delay_mean")
        if (
            slo.delay_p95 is not None
            and math.isfinite(stats.delay_p95)
            and stats.delay_p95 > slo.delay_p95
        ):
            found.append(f"{name}:delay_p95")
        if (
            slo.blocking is not None
            and math.isfinite(stats.blocking)
            and stats.blocking > slo.blocking
        ):
            found.append(f"{name}:blocking")
    return tuple(found)


@dataclass
class _Streaks:
    """Mutable hysteresis counters (one violation streak, one clean)."""

    violating: int = 0
    clean: int = 0
    cooldown: int = 0


class SLOController:
    """Deterministic feedback policy over declarative SLO targets.

    Parameters
    ----------
    spec:
        Per-class targets; class order must match ``baseline.shares``.
    bounds:
        Knob intervals, step limits and the share guardrail.
    baseline:
        The static configuration the run started with — the initial
        last-known-good state the failsafe reverts to.
    settings:
        Hysteresis/watchdog tuning.
    """

    def __init__(
        self,
        spec: SLOSpec,
        bounds: KnobBounds,
        baseline: KnobState,
        settings: ControlSettings = ControlSettings(),
    ) -> None:
        if len(spec.class_names) != len(baseline.shares):
            raise ValueError(
                f"spec names {list(spec.class_names)} do not align with "
                f"{len(baseline.shares)} baseline shares"
            )
        if not bounds.admits(baseline):
            raise ValueError(
                f"baseline {baseline} violates bounds/guardrail {bounds}"
            )
        self.spec = spec
        self.bounds = bounds
        self.settings = settings
        self.baseline = baseline
        self._knobs = baseline
        self._last_good = baseline
        self._streaks = _Streaks()
        self._moves: list[int] = []  # cutoff step signs, oscillation memory
        self._degraded = False
        self._degraded_reason: Optional[str] = None
        self._changes = 0
        self._windows = 0
        #: Full decision log, one entry per observed window.
        self.decisions: list[Decision] = []

    # -- introspection ---------------------------------------------------------
    @property
    def knobs(self) -> KnobState:
        """The knob state the controller currently wants installed."""
        return self._knobs

    @property
    def degraded(self) -> bool:
        """Whether the watchdog latched the controller into failsafe."""
        return self._degraded

    @property
    def degraded_reason(self) -> Optional[str]:
        return self._degraded_reason

    @property
    def changes(self) -> int:
        """Number of knob states this controller has asked hosts to apply."""
        return self._changes

    @property
    def windows(self) -> int:
        """Number of windows observed (plus stall notifications)."""
        return self._windows

    def status(self) -> dict[str, object]:
        """JSON-ready status for ``/control`` and ``repro control``."""
        return {
            "degraded": self._degraded,
            "degraded_reason": self._degraded_reason,
            "windows": self._windows,
            "changes": self._changes,
            "knobs": self._knobs.to_dict(),
            "last_good": self._last_good.to_dict(),
            "baseline": self.baseline.to_dict(),
            "violation_streak": self._streaks.violating,
            "clean_streak": self._streaks.clean,
            "cooldown": self._streaks.cooldown,
        }

    # -- the update ------------------------------------------------------------
    def observe(self, obs: WindowObservation) -> Decision:
        """Consume one window and decide; see the module docstring order."""
        self._windows += 1
        if self._degraded:
            decision = Decision(
                window=obs.window,
                time=obs.time,
                applied=None,
                reason=f"latched:{self._degraded_reason}",
                degraded=True,
            )
            self.decisions.append(decision)
            return decision

        for name, stats in obs.classes:
            if stats.corrupt:
                return self._degrade(obs, f"nan-observation:{name}")

        violations = self._violations(obs)
        streaks = self._streaks
        if violations:
            streaks.violating += 1
            streaks.clean = 0
        else:
            streaks.clean += 1
            streaks.violating = 0
            # A fully clean window proves the current knobs meet every
            # SLO: remember them as the failsafe target.
            self._last_good = self._knobs

        if streaks.cooldown > 0:
            streaks.cooldown -= 1
            decision = Decision(
                window=obs.window,
                time=obs.time,
                applied=None,
                reason="cooldown",
                violations=violations,
            )
            self.decisions.append(decision)
            return decision

        if violations and streaks.violating >= self.settings.engage_windows:
            return self._tighten(obs, violations)
        if not violations and streaks.clean >= self.settings.release_windows:
            return self._relax(obs)

        decision = Decision(
            window=obs.window,
            time=obs.time,
            applied=None,
            reason="hold",
            violations=violations,
        )
        self.decisions.append(decision)
        return decision

    def note_stall(self, window: int, time: float) -> Decision:
        """Host-side watchdog: the control loop missed its heartbeat.

        Degrades exactly like an in-band watchdog trip, so a killed or
        hung controller task fails safe to the last-known-good knobs.
        """
        self._windows += 1
        if self._degraded:
            decision = Decision(
                window=window,
                time=time,
                applied=None,
                reason=f"latched:{self._degraded_reason}",
                degraded=True,
            )
            self.decisions.append(decision)
            return decision
        return self._degrade(
            WindowObservation(window=window, time=time, classes=()), "stalled"
        )

    def reset(self) -> None:
        """Re-arm a degraded controller from its last-known-good state.

        An operator action (``POST /control/reset``), never automatic —
        a controller that degraded once must not silently resume.
        """
        self._degraded = False
        self._degraded_reason = None
        self._streaks = _Streaks()
        self._moves = []
        self._knobs = self._last_good

    # -- internals -------------------------------------------------------------
    def _violations(self, obs: WindowObservation) -> tuple[str, ...]:
        return find_violations(self.spec, obs)

    def _degrade(self, obs: WindowObservation, reason: str) -> Decision:
        self._degraded = True
        self._degraded_reason = reason
        fallback = self._last_good
        applied = fallback if fallback != self._knobs else None
        self._knobs = fallback
        decision = Decision(
            window=obs.window,
            time=obs.time,
            applied=applied,
            reason=f"failsafe:{reason}",
            degraded=True,
        )
        self.decisions.append(decision)
        return decision

    def _propose(self, violations: tuple[str, ...]) -> KnobState:
        """Deterministic escalation policy for a persistent violation set.

        * any ``blocking`` violation → grow the push set (cutoff up) so
          fewer items compete for pull bandwidth, and shift share toward
          the blocked classes;
        * delay-only violations → shrink the push set (cutoff down, a
          shorter broadcast cycle) and shift share toward the slow
          classes;
        * α steps toward priority (down) when the *top* class is among
          the violators, toward stretch (up) when only lower classes are
          — always one bounded step, always inside the guardrail.
        """
        bounds = self.bounds
        current = self._knobs
        names = self.spec.class_names
        violators = {v.split(":", 1)[0] for v in violations}
        blocking = any(v.endswith(":blocking") for v in violations)

        if blocking:
            cutoff = min(current.cutoff + bounds.cutoff_step, bounds.cutoff_max)
        else:
            cutoff = max(current.cutoff - bounds.cutoff_step, bounds.cutoff_min)

        if names and names[0] in violators:
            alpha_target = current.alpha - bounds.alpha_step
        elif violators:
            alpha_target = current.alpha + bounds.alpha_step
        else:
            alpha_target = current.alpha
        alpha = clamp_step(
            current.alpha, alpha_target, bounds.alpha_step, bounds.alpha_min, bounds.alpha_max
        )

        donors = [i for i, name in enumerate(names) if name not in violators]
        takers = [i for i, name in enumerate(names) if name in violators]
        proposal = list(current.shares)
        if takers and donors:
            give = bounds.share_step * len(takers) / len(donors)
            for i in donors:
                proposal[i] -= give
            for i in takers:
                proposal[i] += bounds.share_step
        shares = project_shares(current.shares, tuple(proposal), bounds)
        return KnobState(cutoff=cutoff, alpha=alpha, shares=shares)

    def _tighten(self, obs: WindowObservation, violations: tuple[str, ...]) -> Decision:
        proposed = self._propose(violations)
        if not proposed.finite or not self.bounds.admits(proposed):
            return self._degrade(obs, "nan-knob")
        if proposed == self._knobs:
            decision = Decision(
                window=obs.window,
                time=obs.time,
                applied=None,
                reason="saturated",
                violations=violations,
            )
            self.decisions.append(decision)
            return decision
        direction = (proposed.cutoff > self._knobs.cutoff) - (
            proposed.cutoff < self._knobs.cutoff
        )
        if direction and self._oscillating(direction):
            return self._degrade(obs, "oscillation")
        return self._apply(obs, proposed, "tighten:" + ",".join(violations), violations)

    def _relax(self, obs: WindowObservation) -> Decision:
        """Step every knob one bounded move back toward the baseline."""
        bounds = self.bounds
        current = self._knobs
        base = self.baseline
        if current == base:
            decision = Decision(
                window=obs.window, time=obs.time, applied=None, reason="steady"
            )
            self.decisions.append(decision)
            return decision
        cutoff = int(
            clamp_step(
                float(current.cutoff),
                float(base.cutoff),
                float(bounds.cutoff_step),
                float(bounds.cutoff_min),
                float(bounds.cutoff_max),
            )
        )
        alpha = clamp_step(
            current.alpha, base.alpha, bounds.alpha_step, bounds.alpha_min, bounds.alpha_max
        )
        shares = project_shares(current.shares, base.shares, bounds)
        proposed = KnobState(cutoff=cutoff, alpha=alpha, shares=shares)
        if proposed == current:
            decision = Decision(
                window=obs.window, time=obs.time, applied=None, reason="steady"
            )
            self.decisions.append(decision)
            return decision
        # Relaxation is rate-limited and monotone toward baseline, so it
        # is exempt from the oscillation memory (it cannot hunt).
        return self._apply(obs, proposed, "relax", ())

    def _apply(
        self,
        obs: WindowObservation,
        proposed: KnobState,
        reason: str,
        violations: tuple[str, ...],
    ) -> Decision:
        direction = (proposed.cutoff > self._knobs.cutoff) - (
            proposed.cutoff < self._knobs.cutoff
        )
        if direction:
            self._moves.append(direction)
            if len(self._moves) > self.settings.flip_memory:
                del self._moves[0]
        self._knobs = proposed
        self._changes += 1
        self._streaks.cooldown = self.settings.cooldown_windows
        self._streaks.violating = 0
        self._streaks.clean = 0
        decision = Decision(
            window=obs.window,
            time=obs.time,
            applied=proposed,
            reason=reason,
            violations=violations,
        )
        self.decisions.append(decision)
        return decision

    def _oscillating(self, next_direction: int) -> bool:
        """Would recording ``next_direction`` cross the flip limit?"""
        moves = [*self._moves, next_direction][-self.settings.flip_memory :]
        flips = sum(
            1 for a, b in zip(moves, moves[1:]) if a != b
        )
        return flips >= self.settings.flip_limit
