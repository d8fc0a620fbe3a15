"""Fast-engine driver: callback server loop + batched arrivals.

:class:`FastHybridServer` drives :class:`~repro.sim.policy.PolicyKernel`
— the same policy the reference server runs — as a kind-dispatched state
machine over :meth:`~repro.des.fastengine.FastEnvironment.schedule_call`
records: no generator frames, no Event/Timeout objects on the per-cycle
path.  The population engine is this driver over the folded pending
store (:class:`~repro.scale.server.PopulationHybridServer`).

Differences from the reference server, by design:

* Bandwidth demands are pre-drawn in blocks from the same ``"bandwidth"``
  stream (statistically identical, different stream consumption order).
* Arrivals come from :class:`~repro.workload.batched.BatchedArrivals`
  blocks.  With an ideal uplink both drivers drain them the same way, at
  every point the kernel touches queue state instead of one calendar
  record each (see :meth:`~repro.sim.policy.RequestStore.attach`).

Tracing and phase profiling run through the kernel as on the reference
engine; with a tracer installed, the store admits each arrival through
the kernel's per-request path, which emits its trace events.

:class:`FastArrivalDriver` replaces the ``drive_arrivals`` generator with
one flat calendar record per arrival, fed by pre-generated chunks from
:class:`~repro.workload.batched.BatchedArrivals`.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..des import URGENT
from ..des.fastengine import FastEnvironment
from ..workload.arrivals import Request
from ..workload.batched import BatchedArrivals
from .policy import DROPPED, PolicyKernel

__all__ = ["FastHybridServer", "FastArrivalDriver"]

#: Bandwidth demands pre-drawn per block; amortises numpy scalar-dispatch
#: overhead (~1 µs per draw) over the pull-service hot loop.
_DEMAND_BLOCK = 512


class FastHybridServer(PolicyKernel):
    """Callback driver of the policy kernel for :class:`FastEnvironment`.

    Semantics match :class:`~repro.sim.server.HybridServer` cycle for
    cycle: broadcast the next push item, then serve (or drop) the
    max-importance pull entry; a pure-pull server with an empty queue
    sleeps until the next admission wakes it.  ``_advance`` starts cycles
    until the server blocks on a timed transmission (or idles);
    ``_on_push_done`` / ``_on_pull_done`` are the transmission-completion
    continuations.  Drops and concurrent spawns loop in place (the
    ``while`` in ``_advance``), so consecutive zero-air-time decisions
    never recurse.
    """

    env: FastEnvironment

    def _start(self) -> None:
        # Block-drawn Poisson bandwidth demands (same "bandwidth" stream
        # as the reference server, consumed in blocks instead of per
        # service — statistically identical, not bit-identical).
        self._demand_rng = self.streams.stream("bandwidth")
        self._demand_mean = float(self.config.bandwidth_demand_mean)
        self._demand_buf: np.ndarray | None = None
        self._demand_idx = 0
        #: True while the cycle loop is suspended with no continuation on
        #: the calendar (pure-pull, empty queue).  Set before the initial
        #: wake so the start-up record passes the guard; any stale wake
        #: arriving while the loop runs is a no-op.
        self._sleeping = True
        # Mirror the reference server's process start: the loop's first
        # cycle runs at t=0 ahead of NORMAL-priority records.
        self.env.schedule_call(0.0, self._on_wake, priority=URGENT)

    def _next_demand(self) -> float:
        """Next Poisson bandwidth demand from the block-drawn buffer."""
        buf = self._demand_buf
        i = self._demand_idx
        if buf is None or i >= _DEMAND_BLOCK:
            buf = self._demand_rng.poisson(self._demand_mean, _DEMAND_BLOCK)
            self._demand_buf = buf
            i = 0
        self._demand_idx = i + 1
        return float(buf[i])

    # -- server cycle --------------------------------------------------------
    def _wake(self) -> None:
        if self._sleeping:
            # The zero-delay record mirrors the reference server's wakeup
            # event (the cycle resumes at the same time, after the current
            # record).  ``_sleeping`` is cleared by the wake itself, so
            # racing wakes collapse into no-ops.
            self.env.schedule_call(0.0, self._on_wake)

    def _on_wake(self, _arg: object = None) -> None:
        if not self._sleeping:
            # Stale wake: another record already resumed the loop (or a
            # transmission is on air).  Guarding here keeps duplicate
            # wakeups from running two cycle loops concurrently.
            return
        self._sleeping = False
        self._advance()

    def _advance(self) -> None:
        """Run cycles until a timed transmission blocks or the queue drains."""
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
        """Serve or drop one pull entry; ``True`` → caller continues the cycle.

        Returns ``False`` when control is suspended — a serial
        transmission went on air (``_on_pull_done`` resumes the
        cycle) or the pure-pull queue drained (an admission wakes the
        loop).
        """
        env = self.env
        now = env.now
        grant = self._take_pull(now)
        if grant is None:
            if pushed:
                return True
            self._sleeping = True
            nxt = self.store.next_arrival
            if nxt < math.inf:
                # Pure-pull with buffered arrivals: nothing external will
                # wake the loop, so sleep until the next arrival (the
                # selection drained every arrival up to ``now``).
                env.schedule_call(nxt - now, self._on_wake)
            return False
        if grant is DROPPED:
            return True
        self.pull_tx_started += 1
        self.active_pull_transmissions += 1
        env.schedule_call(grant[0].length, self._on_pull_done, (*grant, now))
        return self.pull_mode != "serial"

    def _on_pull_done(self, payload: Any) -> None:
        """A pull transmission's air time elapsed; a serial one resumes the cycle."""
        self._complete_pull(*payload, self.env.now)
        if self.pull_mode == "serial":
            self._advance()


class FastArrivalDriver:
    """Submit pre-generated arrival chunks through flat calendar records.

    One ``schedule_call`` record per arrival (arrivals must interleave
    with service completions in time order), but no generator resume, no
    ``Timeout`` object and no scalar RNG call per arrival — the chunk's
    requests were drawn vectorised by
    :class:`~repro.workload.batched.BatchedArrivals`.
    """

    def __init__(self, env: FastEnvironment, front, arrivals: BatchedArrivals) -> None:
        self.env = env
        self.front = front
        self.arrivals = arrivals
        self._chunk: list[Request] = arrivals.next_chunk()
        self._index = 0
        first = self._chunk[0]
        env.schedule_call(first.time - env.now, self._on_arrival)

    def _on_arrival(self, _arg=None) -> None:
        chunk = self._chunk
        index = self._index
        request = chunk[index]
        index += 1
        if index >= len(chunk):
            chunk = self.arrivals.next_chunk()
            self._chunk = chunk
            index = 0
        self._index = index
        self.env.schedule_call(chunk[index].time - self.env.now, self._on_arrival)
        self.front.submit(request)
