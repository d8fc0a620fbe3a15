"""Preemptive pull service — simulating the road §4.2.1 declined.

The paper's discipline is explicitly *non-preemptive*: once a pull
transmission starts, later arrivals wait even if their importance factor
is higher.  :class:`PreemptiveHybridServer` implements the alternative:
when a request arrives whose queue entry's importance factor exceeds the
in-flight transmission's by more than ``preemption_threshold``, the
transmission is interrupted, the interrupted item returns to the pull
queue with its *remaining length* (preemptive-resume — clients keep the
bytes already received), and the loop reconsiders.

Together with :mod:`repro.analysis.preemptive` this quantifies the
design choice: preemption shaves premium delay further but pays a
switching and fairness price on the basic classes.
"""

from __future__ import annotations

from typing import Any, Optional

from ..des import URGENT
from .server import HybridServer

__all__ = ["PreemptiveHybridServer"]


class PreemptiveHybridServer(HybridServer):
    """Hybrid server whose pull transmissions can be preempted.

    The kernel puts transmissions on air, completes or corrupts them and
    re-queues a preempted one
    (:meth:`~repro.sim.policy.PolicyKernel._preempt_pull`); this server
    only decides when, on ``submit``, and cancels the on-air completion.

    Parameters
    ----------
    preemption_threshold:
        Minimum importance-factor advantage (relative, e.g. ``0.2`` = 20 %)
        a newly scored entry needs over the in-flight transmission to
        trigger preemption.  ``0`` preempts on any strict improvement.
    (remaining parameters as :class:`HybridServer`; serial mode only)
    """

    def __init__(self, *args, preemption_threshold: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.pull_mode != "serial":
            raise ValueError("preemptive service is defined for serial mode only")
        if preemption_threshold < 0:
            raise ValueError(
                f"preemption_threshold must be >= 0, got {preemption_threshold}"
            )
        self.preemption_threshold = float(preemption_threshold)
        #: Completion payload of the (preemptible) transmission on air.
        self._on_air: Optional[tuple] = None
        self.preemptions = 0

    def submit(self, request) -> None:  # type: ignore[override]
        super().submit(request)
        on_air = self._on_air
        if on_air is None or request.item_id < self.cutoff:
            return
        entry = self.pull_queue.peek(request.item_id)
        if entry is None:
            return
        now = self.env.now
        current_score = self.pull_scheduler.score(on_air[0], now)
        challenger = self.pull_scheduler.score(entry, now)
        if challenger > current_score * (1.0 + self.preemption_threshold):
            self.preemptions += 1
            # Cancel the completion; the cut runs ahead of same-time
            # records, as an interrupt would.
            self._on_air = None
            self.env.schedule_call(0.0, self._preempt, on_air, priority=URGENT)

    def _preempt(self, on_air: tuple) -> None:
        self._preempt_pull(*on_air, self.env.now)
        self._advance()

    def _transmit(self, grant: Any) -> Any:
        self._on_air = super()._transmit(grant)
        return self._on_air

    def _on_pull_done(self, payload: Any) -> None:
        if payload is self._on_air:
            self._on_air = None
            super()._on_pull_done(payload)
