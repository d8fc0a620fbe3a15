"""The live scheduler core: the policy kernel driven on the service clock.

:class:`SchedulerCore` is the fourth driver of
:class:`~repro.sim.policy.PolicyKernel`, beside the reference, fast and
population engines: the kernel makes every scheduling decision (Figure
1's push/pull alternation, Eq. 1 selection, per-class bandwidth
admission, downlink ARQ, the ``reconfigure_*`` hooks), and the core only
moves time — ``await asyncio.sleep(length · time_scale)`` on the
injected :class:`~repro.service.clock.ServiceClock` — and takes arrivals
from an HTTP front instead of a DES driver.  Three things are the
service's own:

* an idle push slot is skipped while nobody is parked — unlike the
  simulator, where slots are free, a wall-clock service sleeping
  through empty slots would add real latency to the pull path;
* bandwidth demands are drawn one per service from the service's own
  ``SeedSequence(seed)`` generator;
* downlink corruption is one Bernoulli draw per transmission from a
  second spawned generator, so two soaks with the same request sequence
  draw identical demands and losses.

The robustness spine lives here, settled from the kernel's request
store as each request ends:

* **deadlines** — every admitted request arms a class-budget timer; on
  expiry a request still waiting reneges through the kernel and is
  answered 504;
* **backpressure** — a request that would open a queue entry beyond
  ``ingress_capacity`` is refused with a Retry-After derived from the
  current drain estimate;
* **brownout** — the :class:`~repro.service.brownout.BrownoutController`
  gates admission per class, fed occupancy windows by the monitor loop;
* **conservation** — every transition is double-entry booked in the
  :class:`~repro.service.ledger.ServiceLedger` *and* emitted as a
  :mod:`repro.obs` trace event, so ``repro trace validate`` proves the
  soak's conservation and ordering offline.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..obs.events import RequestArrived, RequestReneged, RequestShed
from ..obs.recorder import TraceRecorder
from ..schedulers.base import PendingEntry
from ..schedulers.registry import make_pull_scheduler, make_push_scheduler
from ..sim.bandwidth_pool import BandwidthPool
from ..sim.metrics import MetricsCollector
from ..sim.policy import DROPPED, PolicyKernel, RequestStore
from ..workload.arrivals import Request
from .brownout import BrownoutController
from .clock import ServiceClock
from .config import ServiceConfig
from .control import ServiceControlBridge
from .health import HealthMonitor, HealthState
from .ledger import ServiceLedger

__all__ = ["SchedulerCore", "RequestOutcome"]


@dataclass(frozen=True)
class RequestOutcome:
    """What the service decided about one submitted request.

    ``status`` is one of served / blocked / rejected / shed / timed_out /
    failed / draining; ``http`` the response code the front should send;
    ``retry_after`` a client hint in seconds for retryable refusals.
    """

    status: str
    http: int
    delay: Optional[float] = None
    via_push: Optional[bool] = None
    retry_after: Optional[float] = None

    def body(self) -> dict[str, object]:
        """JSON response payload."""
        payload: dict[str, object] = {"outcome": self.status}
        if self.delay is not None:
            payload["delay"] = self.delay
        if self.via_push is not None:
            payload["via_push"] = self.via_push
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload


@dataclass
class _Pending:
    """Book-keeping for one admitted, not-yet-terminal request."""

    request: Request
    future: asyncio.Future
    timer: Optional[asyncio.TimerHandle] = None
    #: Deadline fired while the request rode a transmission; decided at
    #: transmission end (a corrupted transfer then times it out).
    expired: bool = False


@dataclass
class _Window:
    """One monitor window of the live timeline (JSON-ready)."""

    time: float
    queue_entries: int
    occupancy: float
    brownout_level: int
    health: str
    served: int
    shed: int
    rejected: int
    timed_out: int


#: Ledger status and HTTP code of each loss the kernel can apply.
_LOSSES = {
    "blocked": ("blocked", 502),
    "reneged": ("timed_out", 504),
    "shed": ("shed", 503),
    "overload_rejected": ("shed", 503),
}


class _DownlinkLoss:
    """The kernel's ``faults``: one Bernoulli loss draw per transmission."""

    def __init__(self, probability: float, rng: np.random.Generator) -> None:
        self.probability = probability
        self.rng = rng

    def downlink_lost(self) -> bool:
        return bool(self.rng.random() < self.probability)


class _SettlingStore(RequestStore):
    """The kernel's request store, answering each request as it ends."""

    def __init__(self, kernel: PolicyKernel) -> None:
        super().__init__(kernel)
        self.core: SchedulerCore = kernel.env

    def decode(
        self, item_id: int, started: float, now: float, corrupted: bool
    ) -> list[Request]:
        satisfied = super().decode(item_id, started, now, corrupted)
        self.core._served(satisfied, now, via_push=True)
        return satisfied

    def satisfy(self, entry: PendingEntry, now: float) -> None:
        super().satisfy(entry, now)
        self.core._served(entry.requests, now, via_push=False)

    def withdraw(self, request: Request, pulled: bool) -> bool:
        """Remove a still-pending request; looks in the queue, then the waiters.

        ``pulled`` is not trusted: a corrupted transmission re-queues its
        requests even when a cutoff move pushed their item meanwhile.
        """
        return super().withdraw(request, True) or super().withdraw(request, False)

    def lose(self, request: Request, outcome: str, now: float) -> None:
        super().lose(request, outcome, now)
        status, http = _LOSSES[outcome]
        self.core._settle(request, RequestOutcome(status=status, http=http))

    def readmit(self, entry: PendingEntry, now: float) -> bool:
        """Server-side ARQ: re-queue a corrupted transmission's requests.

        A request whose deadline fired while it was on air times out
        instead.  Returns ``True`` if any request was queued.
        """
        core = self.core
        queued = False
        for request in entry.requests:
            pending = core._pending.get(id(request))
            if pending is None:
                continue
            if pending.expired:
                RequestStore.lose(self, request, "reneged", now)
                timed_out = RequestOutcome(status="timed_out", http=504)
                core._settle(request, timed_out, from_flight=True)
            else:
                core.ledger.requeue(1)
                queued = self.kernel._admit_pull(request, now) or queued
        return queued


class _ServiceKernel(PolicyKernel):
    """The policy kernel with the service's driver hooks; ``env`` is the core."""

    store_cls = _SettlingStore
    env: SchedulerCore

    def _start(self) -> None:
        """Nothing to set up: :meth:`SchedulerCore.start` spawns the loops."""

    def _wake(self) -> None:
        self.env._wake()

    def _next_demand(self) -> float:
        return float(self.env._bandwidth_rng.poisson(self.config.bandwidth_demand_mean))


class SchedulerCore:
    """The wall-clock hybrid scheduler behind the HTTP front.

    Parameters
    ----------
    config:
        Service configuration (embeds the :class:`~repro.core.config.
        HybridConfig` the kernel is built from).
    clock:
        Injected clock; tests may pass a pre-warmed or virtual one.
    tracer:
        Optional :class:`~repro.obs.TraceRecorder`; when installed every
        decision is emitted in the simulator's trace schema.
    """

    def __init__(
        self,
        config: ServiceConfig,
        clock: Optional[ServiceClock] = None,
        tracer: Optional[TraceRecorder] = None,
    ) -> None:
        self.config = config
        hybrid = config.hybrid
        self.clock = clock if clock is not None else ServiceClock()
        self.tracer = tracer
        bandwidth_seq, downlink_seq = np.random.SeedSequence(config.seed).spawn(2)
        self._bandwidth_rng = np.random.default_rng(bandwidth_seq)
        self.catalog = hybrid.build_catalog()
        faults = None
        if config.downlink_loss > 0:
            faults = _DownlinkLoss(config.downlink_loss, np.random.default_rng(downlink_seq))
        self.kernel = _ServiceKernel(
            env=self,
            catalog=self.catalog,
            config=hybrid,
            push_scheduler=make_push_scheduler(hybrid.push_scheduler, self.catalog, hybrid.cutoff),
            pull_scheduler=make_pull_scheduler(hybrid.pull_scheduler, alpha=hybrid.alpha),
            pool=BandwidthPool(hybrid.class_bandwidth()),
            metrics=MetricsCollector(hybrid.class_names(), list(hybrid.class_priorities())),
            # Demands and losses come from the service's own generators.
            streams=None,
            faults=faults,
            tracer=tracer,
        )
        self.queue = self.kernel.pull_queue
        #: Client wait per queued entry: one push slot plus one pull entry.
        self._retry_cycle = 2.0 * float(np.mean(self.catalog.lengths)) * config.time_scale
        self.brownout = BrownoutController.from_config(config)
        self.ledger = ServiceLedger(num_classes=config.num_classes)
        self.health = HealthMonitor()
        self.control: Optional[ServiceControlBridge] = (
            ServiceControlBridge(self) if config.slo is not None else None
        )
        self._pending: dict[int, _Pending] = {}  # keyed by id(request)
        self._wakeup: Optional[asyncio.Event] = None
        self._tasks: list[asyncio.Task] = []
        self._draining = False
        self.windows: list[_Window] = []
        self._subscribers: list[asyncio.Queue] = []
        self._last_totals = (0, 0, 0, 0)
        if tracer is not None:
            tracer.meta.update(
                service=True,
                pull_mode="serial",
                cutoff=hybrid.cutoff,
                num_items=hybrid.num_items,
                class_names=hybrid.class_names(),
                pull_scheduler=hybrid.pull_scheduler,
                push_scheduler=hybrid.push_scheduler,
                seed=config.seed,
                time_scale=config.time_scale,
                warmup=0.0,
            )

    @property
    def now(self) -> float:
        """The kernel's ``env.now``: seconds on the service clock."""
        return self.clock.now()

    @property
    def cutoff(self) -> int:
        """The current push/pull split."""
        return self.kernel.cutoff

    # -- life-cycle -------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the service loops and report READY."""
        self._wakeup = asyncio.Event()
        self._tasks = [
            asyncio.create_task(self._run(), name="scheduler-loop"),
            asyncio.create_task(self._monitor(), name="monitor-loop"),
        ]
        self.health.transition(HealthState.READY, self.clock.now())

    async def drain(self) -> None:
        """Graceful shutdown: serve what is queued/in flight, then stop.

        Flips the health machine to DRAINING (readiness goes 503) first,
        keeps the scheduler running until the ledger's live terms hit
        zero or ``drain_timeout`` elapses, force-fails any leftovers
        (ledger outcome ``failed`` — never silently dropped), and lands
        in STOPPED.
        """
        if self._draining:
            return
        self._draining = True
        self.health.transition(HealthState.DRAINING, self.clock.now())
        self._wake()
        bound = self.clock.now() + self.config.drain_timeout
        while (self.ledger.queued or self.ledger.in_flight) and self.clock.now() < bound:
            await asyncio.sleep(min(0.02, self.config.drain_timeout / 10))
        for pending in list(self._pending.values()):
            self._force_fail(pending)
        # Take ownership of the task list before the first await: a task
        # registered while we await one of these would be wiped from
        # tracking (never cancelled, never awaited) by a post-await
        # `self._tasks = []`.
        stopping, self._tasks = self._tasks, []
        for task in stopping:
            task.cancel()
        for task in stopping:
            try:
                await task
            except asyncio.CancelledError:
                pass
        now = self.clock.now()
        self.health.transition(HealthState.STOPPED, now)
        if self.tracer is not None:
            self.tracer.meta["horizon"] = now

    def _force_fail(self, pending: _Pending) -> None:
        """Drain bound hit: terminate one leftover request as ``failed``."""
        if pending.future.done():
            return
        request = pending.request
        # Not queued and not parked: riding a transmission the drain abandoned.
        on_air = not self.kernel.store.withdraw(request, True)
        if self.tracer is not None:
            self.kernel._emit_lifecycle(RequestReneged, request, self.clock.now())
        self._settle(request, RequestOutcome(status="failed", http=503), from_flight=on_air)

    # -- submission -------------------------------------------------------------
    async def submit(
        self,
        item_id: int,
        class_rank: int,
        priority: Optional[float] = None,
        client_id: int = 0,
    ) -> RequestOutcome:
        """Accept one client request and await its terminal outcome.

        Raises ``ValueError`` for out-of-range items/classes and for a
        priority that is not finite and > 0 (the front maps that to HTTP
        400); every valid submission is booked in the ledger under
        exactly one outcome.
        """
        if not 0 <= item_id < len(self.catalog):
            raise ValueError(
                f"item_id {item_id} outside catalog [0, {len(self.catalog)})"
            )
        if not 0 <= class_rank < self.config.num_classes:
            raise ValueError(
                f"class_rank {class_rank} outside [0, {self.config.num_classes})"
            )
        if priority is None:
            priority = float(self.config.hybrid.class_specs[class_rank].priority)
        elif not 0 < priority < math.inf:
            raise ValueError(f"priority must be finite and > 0, got {priority}")
        if not self.health.accepting:
            return RequestOutcome(status="draining", http=503)
        now = self.clock.now()
        request = Request(
            time=now,
            item_id=item_id,
            client_id=client_id,
            class_rank=class_rank,
            priority=priority,
        )
        self.ledger.submit(class_rank)
        if item_id >= self.cutoff:
            refusal = self._admission_refusal(request)
            if refusal is not None:
                return refusal
        loop = asyncio.get_running_loop()
        pending = _Pending(request=request, future=loop.create_future())
        self._pending[id(request)] = pending
        self.ledger.enqueue()
        self.kernel._arrive(request, now)
        deadline = self.config.deadline_for(class_rank)
        if deadline is not None:
            pending.timer = loop.call_later(deadline, self._expire, pending)
        self._wake()
        return await pending.future

    def _admission_refusal(self, request: Request) -> Optional[RequestOutcome]:
        """Backpressure/brownout gate for requests opening a new entry.

        Requests folding into an existing entry always pass — they cost
        no queue slot and one broadcast satisfies them all.  Returns the
        refusal outcome, or ``None`` when admitted.
        """
        if self.queue.peek(request.item_id) is not None:
            return None
        occupancy = len(self.queue)
        # Capacity first: a full queue is backpressure (429) for *every*
        # class.  Brownout/trunk-reservation shedding (503) only ever
        # fires below capacity, so a Class A refusal can never be
        # mislabelled as a brownout shed (its trunk limit is the full
        # capacity by construction).
        if occupancy >= self.config.ingress_capacity:
            self.ledger.finish("rejected", request.class_rank)
            self._emit_refused(request)
            return RequestOutcome(
                status="rejected", http=429, retry_after=self._retry_after()
            )
        if not self.brownout.admits(request.class_rank, occupancy):
            self.ledger.finish("shed", request.class_rank)
            self._emit_refused(request)
            return RequestOutcome(
                status="shed", http=503, retry_after=self._retry_after()
            )
        return None

    def _retry_after(self) -> float:
        """Client wait hint: the current queue's estimated drain time.

        One alternating service cycle transmits one push slot and one
        pull entry, so draining ``n`` queued entries takes about
        ``n · 2 · mean_length · time_scale`` seconds.
        """
        estimate = max(1, len(self.queue)) * self._retry_cycle
        return round(max(0.05, estimate), 3)

    def _emit_refused(self, request: Request) -> None:
        """Trace one pre-admission refusal (brownout or backpressure)."""
        if self.tracer is None:
            return
        now = self.clock.now()
        self.tracer.emit(
            RequestArrived(
                time=now,
                req=self.tracer.rid(request),
                item_id=request.item_id,
                client_id=request.client_id,
                class_rank=request.class_rank,
                priority=request.priority,
                gen_time=request.time,
            )
        )
        self.kernel._emit_lifecycle(RequestShed, request, now)

    # -- deadline enforcement -----------------------------------------------------
    def _expire(self, pending: _Pending) -> None:
        """Class deadline fired: time the request out if it still waits.

        A request on air is past reneging: a successful transmission
        still serves it, a corrupted one times it out at transfer end.
        """
        if not pending.future.done() and not self.kernel.renege(pending.request):
            pending.expired = True

    # -- settlement (called from the kernel's store) -------------------------------
    def _settle(
        self, request: Request, outcome: RequestOutcome, from_flight: bool = False
    ) -> bool:
        """Book an admitted request's terminal outcome and answer its client.

        Returns ``False`` for a request the core never admitted.
        """
        pending = self._pending.pop(id(request), None)
        if pending is None:
            return False
        self.ledger.finish(outcome.status, request.class_rank, from_flight=from_flight)
        if pending.timer is not None:
            pending.timer.cancel()
        if not pending.future.done():
            pending.future.set_result(outcome)
        return True

    def _served(self, requests: list[Request], now: float, via_push: bool) -> None:
        for request in requests:
            delay = now - request.time
            outcome = RequestOutcome(status="served", http=200, delay=delay, via_push=via_push)
            settled = self._settle(request, outcome, from_flight=not via_push)
            if settled and self.control is not None:
                self.control.note_delay(request.class_rank, delay)

    # -- service loops ------------------------------------------------------------
    def _wake(self) -> None:
        """Resume the service loop if it sleeps idle (also the kernel's hook)."""
        if self._wakeup is not None and not self._wakeup.is_set():
            self._wakeup.set()

    async def _run(self) -> None:
        """Figure 1 on the service clock: push one slot, serve one pull entry."""
        while True:
            try:
                pushed = await self._broadcast_next_push()
                served = await self._serve_next_pull()
                self.health.record_success()
            except asyncio.CancelledError:
                raise
            except Exception:
                if self.health.record_failure(self.clock.now()):
                    raise
                continue
            if self._draining and not self.ledger.queued and not self.ledger.in_flight:
                # Nothing left to drain; the drain loop will reap us.
                await asyncio.sleep(self.config.time_scale)
                continue
            if not pushed and not served:
                self._wakeup.clear()
                if len(self.queue) or self.kernel.store.waiters:
                    continue
                await self._wakeup.wait()

    async def _broadcast_next_push(self) -> bool:
        """Broadcast one push slot; True if air time was spent (idle slots skipped)."""
        kernel = self.kernel
        if not kernel.store.waiters:
            return False
        started = self.clock.now()
        item_id = kernel._start_push(started)
        if item_id is None:
            return False
        await asyncio.sleep(self.catalog[item_id].length * self.config.time_scale)
        kernel._decode_push(item_id, started, self.clock.now())
        return True

    async def _serve_next_pull(self) -> bool:
        """Serve (or drop) the max-importance entry; True if one was taken."""
        kernel = self.kernel
        grant = kernel._take_pull(self.clock.now())
        if grant is None:
            return False
        if grant is not DROPPED:
            entry = grant[0]
            self.ledger.start_flight(entry.num_requests)
            kernel._start_pull()
            started = self.clock.now()
            await asyncio.sleep(entry.length * self.config.time_scale)
            kernel._complete_pull(*grant, started, self.clock.now())
        return True

    # -- monitor / timelines --------------------------------------------------------
    async def _monitor(self) -> None:
        """Feed the brownout controller one occupancy window at a time."""
        while True:
            await asyncio.sleep(self.config.brownout_window)
            now = self.clock.now()
            occupancy = len(self.queue) / self.config.ingress_capacity
            level = self.brownout.observe(occupancy)
            if self.tracer is not None:
                self.kernel._emit_queue_length(now)
            if self.health.state is HealthState.READY and level > 0:
                self.health.transition(HealthState.BROWNOUT, now)
            elif self.health.state is HealthState.BROWNOUT and level == 0:
                self.health.transition(HealthState.READY, now)
            if self.control is not None:
                # Precedence: brownout > SLO controller (the bridge
                # freezes itself while the level is above zero).
                self.control.tick(now, brownout_level=level)
            totals = (
                self.ledger.served,
                self.ledger.shed,
                self.ledger.rejected,
                self.ledger.timed_out,
            )
            deltas = tuple(t - p for t, p in zip(totals, self._last_totals))
            self._last_totals = totals
            window = _Window(
                time=now,
                queue_entries=len(self.queue),
                occupancy=round(occupancy, 4),
                brownout_level=level,
                health=self.health.state.value,
                served=deltas[0],
                shed=deltas[1],
                rejected=deltas[2],
                timed_out=deltas[3],
            )
            self.windows.append(window)
            if len(self.windows) > 512:
                del self.windows[: len(self.windows) - 512]
            payload = asdict(window)
            for queue in self._subscribers:
                if not queue.full():
                    queue.put_nowait(payload)

    def subscribe(self) -> asyncio.Queue:
        """Register one live-timeline subscriber (``/stream`` clients)."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=64)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Drop one subscriber."""
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    # -- introspection ---------------------------------------------------------------
    def metrics(self) -> dict[str, object]:
        """The ``/metrics`` JSON payload."""
        pool = {
            name: {
                "capacity": self.kernel.pool.capacity(rank),
                "in_use": self.kernel.pool.in_use(rank),
            }
            for rank, name in enumerate(self.config.hybrid.class_names())
        }
        return {
            "time": self.clock.now(),
            "health": {
                "state": self.health.state.value,
                "history": self.health.history_dicts(),
            },
            "ledger": self.ledger.to_dict(),
            "brownout": self.brownout.to_dict(),
            "queue_entries": len(self.queue),
            "queue_requests": self.queue.total_requests,
            "ingress_capacity": self.config.ingress_capacity,
            "pool": pool,
            "control": self.control.status() if self.control is not None else None,
            "windows": [asdict(w) for w in self.windows[-32:]],
        }
