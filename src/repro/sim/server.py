"""The hybrid broadcast server (Figure 1 of the paper).

The server loops forever:

1. broadcast the next push item chosen by the push scheduler (taking the
   item's length in broadcast units), satisfying every client that was
   already waiting for it when the transmission began;
2. if the pull queue is non-empty, extract the entry with maximum
   importance factor, sample its Poisson bandwidth demand, charge it to
   the service class of its most important requester, and either

   * transmit it (serving all pending requests and then releasing the
     bandwidth), or
   * drop the entry — and all its pending requests — if the class's
     bandwidth reservation cannot cover the demand (blocking).

Two pull service modes are supported:

* ``"serial"`` — the server alternates push and pull transmissions on one
  channel, exactly matching the §4 queueing analysis (the birth-death
  chain alternating μ₁/μ₂ service).
* ``"concurrent"`` — pull transmissions are spawned as parallel downlink
  streams that hold their bandwidth for the duration of the transfer
  while the broadcast cycle continues.  This realises the reading of §3
  in which bandwidth is a finite resource that *accumulates* across
  overlapping transfers, making blocking dependent on load rather than
  only on the demand distribution's tail.

The decisions themselves live in :class:`~repro.sim.policy.PolicyKernel`;
:class:`HybridServer` only moves their time, as flat ``(fn, arg)``
records on the :class:`~repro.des.Environment` calendar: no generator
frame and no Event per cycle.  The reference and fast engines run it
over the per-request pending store, the population engine
(:class:`~repro.scale.server.PopulationHybridServer`) over the folded one.
"""

from __future__ import annotations

import math
from typing import Any, Literal

from ..des import URGENT, Environment
from .policy import DROPPED, PolicyKernel

__all__ = ["HybridServer", "PullMode"]

PullMode = Literal["serial", "concurrent"]

#: Bandwidth demands drawn per block from the ``"bandwidth"`` stream: the
#: same values as one draw per service, without numpy's per-call cost.
_DEMAND_BLOCK = 512


class HybridServer(PolicyKernel):
    """The Figure-1 loop as callback records on the event calendar.

    Parameters are those of :class:`~repro.sim.policy.PolicyKernel`.
    ``_advance`` runs cycles until a transmission goes on air or the loop
    sleeps; ``_on_push_done`` and ``_on_pull_done`` continue them when a
    transmission's air time has elapsed.  Drops and concurrent grants
    loop in place, so consecutive zero-air-time decisions never recurse.
    A pure-pull loop with an empty queue sleeps until a request queues.
    """

    env: Environment

    def _start(self) -> None:
        self._demand_rng = self.streams.stream("bandwidth")
        self._demand_mean = float(self.config.bandwidth_demand_mean)
        self._demands: list[int] = []
        self._demand_idx = 0
        #: Token of the current sleep: a timer or wake record carrying an
        #: older one finds the loop gone and does nothing.
        self._nap = 0
        #: Asleep with no wake record on the calendar.
        self._idle = False
        # The first cycle runs at t=0 ahead of NORMAL records, as a
        # process start would.
        self.env.schedule_call(0.0, self._advance, priority=URGENT)

    def _next_demand(self) -> float:
        i = self._demand_idx
        if i == len(self._demands):
            self._demands = self._demand_rng.poisson(self._demand_mean, _DEMAND_BLOCK).tolist()
            i = 0
        self._demand_idx = i + 1
        return float(self._demands[i])

    # -- sleeping ------------------------------------------------------------
    def _wake(self) -> None:
        if self._idle:
            # The loop resumes at the same time, after the current record.
            self._idle = False
            self.env.schedule_call(0.0, self._on_wake, self._nap)

    def _sleep(self, now: float) -> None:
        """Suspend the loop; with buffered arrivals, until the next one."""
        self._nap += 1
        self._idle = True
        nxt = self.store.next_arrival
        if nxt < math.inf:
            # Nothing external wakes the loop for a buffered arrival.
            self.env.schedule_call(nxt - now, self._on_wake, self._nap)

    def _on_wake(self, nap: int) -> None:
        if nap != self._nap:
            return
        if self.store.next_arrival < math.inf:
            # Admit the buffered arrivals; sleep on unless one queued.
            now = self.env.now
            self.store.drain(now)
            if not self.pull_queue:
                self._sleep(now)
                return
        self._nap += 1
        self._idle = False
        self._advance()

    # -- server cycle --------------------------------------------------------
    def _advance(self, _arg: object = None) -> None:
        """Run cycles until a transmission is on air or the loop sleeps."""
        while True:
            now = self.env.now
            item_id = self._start_push(now)
            if item_id is not None:
                self.env.schedule_call(
                    self.catalog[item_id].length, self._on_push_done, (item_id, now)
                )
                return
            if not self._pull_step(pushed=False):
                return

    def _on_push_done(self, payload: Any) -> None:
        """One push slot's air time elapsed: decode (or corrupt), continue."""
        item_id, started = payload
        self._decode_push(item_id, started, self.env.now)
        if self._pull_step(pushed=True):
            self._advance()

    def _pull_step(self, pushed: bool) -> bool:
        """Serve or drop one pull entry; ``True`` when the next cycle follows.

        ``False`` when control is suspended: a serial transmission went on
        air (``_on_pull_done`` resumes the cycle) or the loop sleeps.
        """
        now = self.env.now
        grant = self._take_pull(now)
        if grant is None:
            if not pushed:
                self._sleep(now)
            return pushed
        if grant is DROPPED:
            return True
        if self.pull_mode == "serial":
            self._transmit(grant)
            return False
        # A concurrent grant goes on air through a zero-delay URGENT
        # record, as a spawned process starts: after the next push slot
        # is scheduled, so its completion follows a slot ending at the
        # same time.
        self.env.schedule_call(0.0, self._transmit, grant, priority=URGENT)
        return True

    def _transmit(self, grant: Any) -> Any:
        """Put a granted pull transmission on air; returns its completion payload."""
        self._start_pull()
        payload = (*grant, self.env.now)
        self.env.schedule_call(grant[0].length, self._on_pull_done, payload)
        return payload

    def _on_pull_done(self, payload: Any) -> None:
        """A pull transmission's air time elapsed; a serial one resumes the cycle."""
        self._complete_pull(*payload, self.env.now)
        if self.pull_mode == "serial":
            self._advance()
