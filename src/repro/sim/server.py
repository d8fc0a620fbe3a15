"""The hybrid broadcast server process (Figure 1 of the paper).

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
:class:`HybridServer` is its generator-process driver on the reference
:class:`~repro.des.Environment`.
"""

from __future__ import annotations

import math
from typing import Literal

from ..des import Environment
from .policy import DROPPED, PolicyKernel

__all__ = ["HybridServer", "PullMode"]

PullMode = Literal["serial", "concurrent"]


class HybridServer(PolicyKernel):
    """Reference-engine driver: the Figure-1 loop as one generator process.

    Parameters are those of :class:`~repro.sim.policy.PolicyKernel`;
    bandwidth demands are drawn one at a time from the ``"bandwidth"``
    stream.
    """

    env: Environment

    def _start(self) -> None:
        self._demand_mean = self.config.bandwidth_demand_mean
        self._wakeup = self.env.event()
        self._process = self.env.process(self._run())

    def _next_demand(self) -> float:
        return float(self.streams.poisson("bandwidth", self._demand_mean))

    def _wake(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self):
        """Main loop per Figure 1: push one item, then serve one pull entry."""
        while True:
            pushed = yield from self._broadcast_next_push()
            served = yield from self._serve_next_pull()
            if not pushed and not served:
                yield from self._sleep()

    def _sleep(self):
        """Pure-pull system with an empty queue: sleep until a request joins it.

        :meth:`_wake` ends the sleep; with buffered arrivals the loop also
        wakes at the next one, admits it and sleeps on unless it queued.
        """
        while not self.pull_queue:
            self._wakeup = self.env.event()
            nxt = self.store.next_arrival
            if nxt == math.inf:
                yield self._wakeup
                return
            yield self._wakeup | self.env.timeout(nxt - self.env.now)
            self.store.drain(self.env.now)

    def _broadcast_next_push(self):
        """Broadcast one push slot; returns True if a slot was transmitted."""
        started = self.env.now
        item_id = self._start_push(started)
        if item_id is None:
            return False
        yield self.env.timeout(self.catalog[item_id].length)
        self._decode_push(item_id, started, self.env.now)
        return True

    def _serve_next_pull(self):
        """Serve (or drop) the max-importance pull entry; True if one was taken."""
        grant = self._take_pull(self.env.now)
        if grant is None:
            return False
        if grant is not DROPPED:
            if self.pull_mode == "serial":
                yield from self._transmit_pull(*grant)
            else:
                self.env.process(self._transmit_pull(*grant))
        return True

    def _transmit_pull(self, entry, rank: int, demand: float):
        """Hold one granted pull transmission on air, then complete it."""
        self.pull_tx_started += 1
        self.active_pull_transmissions += 1
        started = self.env.now
        yield self.env.timeout(entry.length)
        self._complete_pull(entry, rank, demand, started, self.env.now)
