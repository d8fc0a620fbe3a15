"""Client-side request generation and fault recovery.

The entire client population is modelled by one aggregate Poisson arrival
process (`repro.workload.ArrivalProcess`) feeding the server's uplink —
statistically identical to per-client independent Poisson sources, and
exactly the paper's arrival assumption.  The same driver replays a
recorded trace, so identical request sequences can be replayed against
different scheduling policies.

When the fault layer is armed, requests flow through a
:class:`FaultAwareFront` that adds the client-side recovery behaviour of
real wireless terminals: lost uplink offers retry with capped binary
exponential backoff plus jitter, and requests whose per-class patience
expires renege (abandon) wherever they currently sit — mid-backoff, in
uplink transit, parked for a push broadcast, or waiting in the pull
queue.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..core.faults import FaultConfig
from ..des import Environment, RandomStreams
from ..obs.events import RequestRetried
from ..workload.arrivals import Request
from .metrics import MetricsCollector
from .server import HybridServer  # noqa: F401 - canonical submit target
from .uplink import UplinkChannel

__all__ = ["FaultAwareFront", "drive_arrivals"]


class FaultAwareFront:
    """Client-side fault recovery between the request drivers and the uplink.

    Tracks every live request it has accepted so the conservation
    watchdog can audit the full pipeline.  Per-request bookkeeping is
    keyed by object identity (request objects are reused across retries)
    and dies no later than the request's deadline.

    Parameters
    ----------
    env:
        Simulation environment.
    server:
        The hybrid server (renege target for already-delivered requests).
    uplink:
        The uplink channel; its ``deliver`` callback must be rewired to
        :meth:`on_delivered`.
    faults:
        The fault model (retry/backoff/deadline parameters).
    metrics:
        Metrics sink for retries, reneges and terminal uplink losses.
    streams:
        Named random streams ("client-backoff" is drawn here).
    """

    #: Request states tracked per live request (by ``id``):
    #: ``"uplink"`` — offered, in channel transit;
    #: ``"backoff"`` — lost, waiting out a retry delay;
    #: ``"server"`` — delivered (deadlined requests only);
    #: ``"reneged-unrecorded"`` — deadline hit in uplink transit, the
    #: abandonment is recorded when the stale delivery surfaces;
    #: ``"reneged-recorded"`` — deadline hit mid-backoff, already
    #: recorded; the pending retry timer discards it silently.

    def __init__(
        self,
        env: Environment,
        server,
        uplink: UplinkChannel,
        faults: FaultConfig,
        metrics: MetricsCollector,
        streams: RandomStreams,
    ) -> None:
        self.env = env
        self.server = server
        self.uplink = uplink
        self.faults = faults
        self.metrics = metrics
        #: Optional :class:`~repro.obs.TraceRecorder` (installed by
        #: :class:`~repro.sim.system.HybridSystem`); records uplink retries.
        self.tracer = None
        self._rng = streams.stream("client-backoff")
        #: New requests accepted from the drivers (retries excluded).
        self.generated = 0
        #: Requests currently waiting out a backoff delay.
        self.retry_pending = 0
        self._state: dict[int, str] = {}

    # -- driver-facing interface ---------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept one new client request and start pushing it uplink."""
        self.generated += 1
        deadline = self.faults.deadline_for(request.class_rank)
        if math.isfinite(deadline):
            self.env.process(self._deadline_watch(request, request.time + deadline))
        self._offer(request, attempt=0)

    # -- uplink interaction ------------------------------------------------------
    def _offer(self, request: Request, attempt: int) -> None:
        rid = id(request)
        self._state[rid] = "uplink"
        if self.uplink.offer(request):
            return
        if attempt >= self.faults.max_retries:
            self.metrics.record_uplink_abandoned(request)
            self._state.pop(rid, None)
            return
        self.metrics.record_retry()
        if self.tracer is not None:
            self.tracer.emit(
                RequestRetried(
                    time=self.env.now,
                    req=self.tracer.rid(request),
                    item_id=request.item_id,
                    class_rank=request.class_rank,
                    attempt=attempt,
                )
            )
        self._state[rid] = "backoff"
        self.retry_pending += 1
        delay = min(self.faults.backoff_base * (2.0**attempt), self.faults.backoff_cap)
        if self.faults.backoff_jitter:
            delay *= 1.0 + self.faults.backoff_jitter * float(self._rng.uniform(-1.0, 1.0))
        self.env.process(self._retry(request, attempt + 1, delay))

    def _retry(self, request: Request, attempt: int, delay: float):
        yield self.env.timeout(delay)
        rid = id(request)
        if self._state.get(rid) == "reneged-recorded":
            self._state.pop(rid, None)
            return
        self.retry_pending -= 1
        self._offer(request, attempt)

    def on_delivered(self, request: Request) -> None:
        """Uplink delivery callback: hand over unless the client reneged."""
        rid = id(request)
        state = self._state.get(rid)
        if state == "reneged-unrecorded":
            self._state.pop(rid, None)
            self.metrics.record_reneged(request)
            return
        if math.isfinite(self.faults.deadline_for(request.class_rank)):
            self._state[rid] = "server"
        else:
            self._state.pop(rid, None)
        self.server.submit(request)

    # -- reneging ----------------------------------------------------------------
    def _deadline_watch(self, request: Request, expires: float):
        wait = expires - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        rid = id(request)
        state = self._state.get(rid)
        if state == "server":
            self._state.pop(rid, None)
            # Records the abandonment iff the request is still pending
            # (parked or queued); in-flight transmissions complete.
            self.server.renege(request)
        elif state == "backoff":
            self.retry_pending -= 1
            self._state[rid] = "reneged-recorded"
            self.metrics.record_reneged(request)
        elif state == "uplink":
            # Still in channel transit: the stale delivery records it.
            self._state[rid] = "reneged-unrecorded"
        # else: already terminal (abandoned at the uplink) — nothing to do.


def drive_arrivals(env: Environment, server, arrivals: Iterable[Request]):
    """DES process: submit requests from an arrival source, one event each.

    ``arrivals`` is any time-ordered iterable of requests — a live Poisson
    stream, which runs forever (bound the simulation with
    ``env.run(until=horizon)``), or a replayed
    :class:`~repro.workload.trace.RequestTrace` for paired comparisons
    (the same randomness against every scheduler).  ``server`` is
    anything with a ``submit(request)`` method — the HybridServer
    directly or an uplink front-end.
    """

    def _proc():
        for request in arrivals:
            delay = request.time - env.now
            if delay > 0:
                yield env.timeout(delay)
            server.submit(request)

    return env.process(_proc())
