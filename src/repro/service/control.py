"""Live closed-loop SLO control: the service-side host of the controller.

:class:`ServiceControlBridge` hosts the *same* pure
:class:`~repro.control.SLOController` as the simulator's
:class:`~repro.control.loop.ControlLoop`: it collects one window of
per-class QoS (empirical delay percentiles from every served request,
blocking from the ledger's per-rank counters), feeds the controller,
and installs the decided knob state on the core's policy kernel through
:func:`~repro.control.loop.install_knobs`, the apply path both hosts
share — all from the monitor loop, so an apply never interleaves with
an admission decision.

**Precedence with brownout** (the load-shedding controller that was here
first): while ``brownout.level > 0`` the SLO controller is *frozen* — it
consumes no observations and issues no reconfigurations, and the windows
the brownout governs are discarded rather than queued.  Rationale: a
brownout means sustained overload, and overload is the brownout
controller's job — shedding C before B before A.  Feeding those windows
to the SLO controller would make it tighten knobs to chase deadline
misses the shedding is already absorbing, and relaxing *into* an
overload would fight the brownout's exit hysteresis.  The instantaneous
trunk-reservation limits of :class:`~repro.core.overload.OverloadConfig`
sit below both and always apply — see ``docs/control.md`` for the full
three-layer precedence table.

**Failsafe visibility**: unlike the simulator (where a degrade that
falls back to the *current* knobs has nothing to apply), the live bridge
always emits the ``source="failsafe"`` :class:`~repro.obs.ConfigChange`
after a ``ControllerDegraded`` — even as a no-op — and an operator
``/control/reset`` always emits a ``source="operator"`` change.  The
trace-validate reconfiguration audit requires both to prove the latch
protocol on a live soak.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..control.controller import (
    ClassWindow,
    ControlSettings,
    Decision,
    SLOController,
    WindowObservation,
)
from ..control.knobs import KnobState
from ..control.loop import default_bounds, empirical_percentile, install_knobs
from ..obs.events import ControllerDegraded

if TYPE_CHECKING:
    from .core import SchedulerCore

__all__ = ["ServiceControlBridge"]


class ServiceControlBridge:
    """Hosts one :class:`SLOController` inside a running service core.

    Built by :class:`~repro.service.core.SchedulerCore` when the config
    carries an SLO spec; driven once per monitor window via :meth:`tick`.
    """

    def __init__(
        self,
        core: "SchedulerCore",
        settings: Optional[ControlSettings] = None,
    ) -> None:
        config = core.config
        if config.slo is None:
            raise ValueError("ServiceConfig.slo is None — nothing to control")
        hybrid = config.hybrid
        baseline = KnobState(
            cutoff=int(hybrid.cutoff),
            alpha=float(hybrid.alpha),
            shares=tuple(float(s.bandwidth_share) for s in hybrid.class_specs),
        )
        alpha_tunable = hasattr(core.kernel.pull_scheduler, "set_alpha")
        self.core = core
        self.controller = SLOController(
            spec=config.slo,
            bounds=default_bounds(hybrid, alpha_tunable=alpha_tunable),
            baseline=baseline,
            settings=settings if settings is not None else ControlSettings(),
        )
        self.applied = baseline
        self.seq = 0
        #: Windows discarded because brownout precedence froze the loop.
        self.holds = 0
        self._windows = 0
        self._names = hybrid.class_names()
        self._delays: list[list[float]] = [[] for _ in self._names]
        ledger = core.ledger
        self._prev = [
            (ledger.submitted_by_rank[rank], ledger.blocked_by_rank[rank])
            for rank in range(len(self._names))
        ]

    # -- observation -----------------------------------------------------------
    def note_delay(self, class_rank: int, delay: float) -> None:
        """Record one served request's delay (wall seconds) for the window."""
        self._delays[class_rank].append(delay)

    def _flush(self, now: float) -> WindowObservation:
        """Difference the ledger and drain the delay samples into one window."""
        ledger = self.core.ledger
        classes: list[tuple[str, ClassWindow]] = []
        for rank, name in enumerate(self._names):
            submitted = ledger.submitted_by_rank[rank]
            blocked = ledger.blocked_by_rank[rank]
            prev_submitted, prev_blocked = self._prev[rank]
            arrivals = submitted - prev_submitted
            blocked_n = blocked - prev_blocked
            samples = self._delays[rank]
            classes.append(
                (
                    name,
                    ClassWindow(
                        arrivals=arrivals,
                        satisfied=len(samples),
                        blocked=blocked_n,
                        delay_mean=(
                            sum(samples) / len(samples) if samples else math.nan
                        ),
                        delay_p95=empirical_percentile(samples, 95.0),
                        blocking=(
                            blocked_n / arrivals if arrivals > 0 else math.nan
                        ),
                    ),
                )
            )
            self._prev[rank] = (submitted, blocked)
            self._delays[rank] = []
        obs = WindowObservation(
            window=self._windows, time=now, classes=tuple(classes)
        )
        self._windows += 1
        return obs

    # -- the per-window update ---------------------------------------------------
    def tick(self, now: float, brownout_level: int) -> Optional[Decision]:
        """One monitor window elapsed; observe, decide, apply.

        Returns the controller's decision, or ``None`` when brownout
        precedence froze the loop for this window.
        """
        obs = self._flush(now)
        if brownout_level > 0:
            self.holds += 1
            return None
        was_degraded = self.controller.degraded
        decision = self.controller.observe(obs)
        self._settle(decision, was_degraded, now)
        return decision

    def kill(self, now: float) -> Decision:
        """Chaos/watchdog entry: the controller task was killed or hung.

        Trips the stall watchdog, which latches the controller and fails
        safe to the last-known-good knobs.
        """
        was_degraded = self.controller.degraded
        decision = self.controller.note_stall(self._windows, now)
        self._windows += 1
        self._settle(decision, was_degraded, now)
        return decision

    def reset(self) -> dict[str, object]:
        """Operator re-arm after a degrade (``POST /control/reset``).

        Emits an unconditional ``source="operator"`` change — the audit's
        proof that the failsafe latch was released deliberately.
        """
        self.controller.reset()
        self._apply(self.controller.knobs, "operator", "reset", force=True)
        return self.status()

    def _settle(self, decision: Decision, was_degraded: bool, now: float) -> None:
        if decision.degraded and not was_degraded:
            fallback = (
                decision.applied if decision.applied is not None else self.applied
            )
            tracer = self.core.tracer
            if tracer is not None:
                # Events are stamped with a fresh clock read: `now` is the
                # window boundary, and other emissions (queue samples)
                # may already carry later times.
                tracer.emit(
                    ControllerDegraded(
                        time=self.core.clock.now(),
                        reason=self.controller.degraded_reason or "unknown",
                        fallback_cutoff=fallback.cutoff,
                        fallback_alpha=fallback.alpha,
                        fallback_shares=fallback.shares,
                    )
                )
            # The audit expects the failsafe install right after the
            # degrade even when it is a no-op; force the emission.
            self._apply(fallback, "failsafe", decision.reason, force=True)
        elif decision.applied is not None:
            source = "failsafe" if decision.degraded else "controller"
            self._apply(decision.applied, source, decision.reason)

    # -- application -------------------------------------------------------------
    def _apply(
        self,
        knobs: KnobState,
        source: str,
        reason: str,
        force: bool = False,
    ) -> None:
        if knobs == self.applied and not force:
            return
        install_knobs(self.core.kernel, self.applied, knobs, self.seq + 1, source, reason)
        self.applied = knobs
        self.seq += 1

    # -- introspection -------------------------------------------------------------
    def status(self) -> dict[str, object]:
        """JSON payload of ``GET /control`` (mirrors the sim loop's)."""
        record = self.controller.status()
        record.update(
            applied=self.applied.to_dict(),
            seq=self.seq,
            holds=self.holds,
            window=self.core.config.brownout_window,
        )
        return record
