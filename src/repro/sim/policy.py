"""The paper's server policy, written once for every engine and the service.

:class:`PolicyKernel` is the Figure-1 server without a clock of its own:
request admission (the overload gate and capacity shedding), push
decode, Eq. 1 pull service with per-class bandwidth admission, pull
completion with downlink ARQ, the §3 ``reconfigure_*`` hooks with
pending-work migration, the conservation counters and the reference
engine's trace emission.  Every decision takes the time it happens at
(``now``) and first admits the store's buffered arrivals up to it, as
their per-event delivery would have; only the public surface, which
uplinks, client fronts and the control plane call without a time, reads
it from the driver's ``env``.

The drivers are subclasses that only move time — generator processes
(:class:`~repro.sim.server.HybridServer`), callback records
(:class:`~repro.sim.fastpath.FastHybridServer`) or asyncio sleeps on the
live service's clock (:class:`~repro.service.core.SchedulerCore`) — and
supply three hooks: ``_start`` (set up the service loop), ``_wake``
(resume an idle one) and ``_next_demand`` (the next bandwidth demand).

The one real difference between the engines is how pending requests are
held — a *pending store* chosen by the driver's ``store_cls``:
:class:`RequestStore` keeps request lists (reference and fast engines),
:class:`~repro.scale.folded.FoldedStore` keeps per-class
:class:`~repro.scale.folded.FoldedEntry` counters (the population
engine, :class:`~repro.scale.server.PopulationHybridServer`).  Each
store also drains its own buffered arrival format: :class:`RequestStore`
in an inlined per-request loop, ``FoldedStore`` in a vectorised fold.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Optional

from ..core.config import HybridConfig
from ..des import RandomStreams
from ..obs.events import (
    CutoffChanged,
    GammaSnapshot,
    PullDropped,
    PullServed,
    PushBroadcast,
    QueueSampled,
    RequestArrived,
    RequestBlocked,
    RequestReneged,
    RequestSatisfied,
    RequestShed,
)
from ..schedulers.base import PendingEntry, PullQueue, PullScheduler, PushScheduler
from ..workload.arrivals import Request
from ..workload.batched import BatchedArrivals
from ..workload.items import ItemCatalog
from .bandwidth_pool import BandwidthPool
from .faults import select_shed_victim
from .metrics import MetricsCollector
from .overload import OverloadController

__all__ = ["DROPPED", "PolicyKernel", "RequestStore"]

#: What :meth:`PolicyKernel._take_pull` returns when bandwidth admission
#: failed: the entry and all its requests are lost, no air time is spent.
DROPPED = ()

#: Trace event recording each terminal outcome a store can apply.
_LOSS_EVENTS = {
    "shed": RequestShed,
    "overload_rejected": RequestShed,
    "blocked": RequestBlocked,
    "reneged": RequestReneged,
}


class RequestStore:
    """Per-request pending store of the reference and fast engines.

    Push waiters are request lists per item; pull entries are
    :class:`~repro.schedulers.base.PendingEntry` objects carrying their
    requests.  A group admitted to the pull queue is one request.
    """

    def __init__(self, kernel: "PolicyKernel") -> None:
        self.kernel = kernel
        self.metrics = kernel.metrics
        self.queue = kernel.pull_queue
        #: Requests waiting for a push item's next broadcast, per item.
        self.waiters: dict[int, list[Request]] = defaultdict(list)
        self.record_arrival = kernel.metrics.record_arrival
        self.enqueue = kernel.pull_queue.add
        # Buffered arrival chunks (see attach); ``next_arrival`` is the
        # timestamp of the next undrained one, ``inf`` when none.
        self._source: Optional[BatchedArrivals] = None
        self._chunk: list[Request] = []
        self._index = 0
        self.next_arrival = math.inf
        self._draining = False

    # -- arrivals ----------------------------------------------------------------
    def attach(self, arrivals: BatchedArrivals) -> None:
        """Feed arrivals by draining pre-generated chunks in-line.

        Only valid when requests reach the server directly (ideal uplink,
        no client-recovery front): instead of one calendar record per
        arrival, :meth:`drain` admits every buffered arrival with
        timestamp ``<= now`` just before the kernel reads or mutates
        queue state (push start and decode, select, pull completion,
        reneging, reconfiguration).  Admission order and timestamps match
        per-arrival delivery exactly; only the *event count* changes.
        The system drains up to the horizon once after the run, so
        arrivals after the last service event are still admitted.
        """
        self._source = arrivals
        self._chunk = arrivals.next_chunk()
        self._index = 0
        self.next_arrival = self._chunk[0].time

    def drain(self, now: float) -> None:
        """Admit every buffered arrival with timestamp ``<= now``."""
        if self._draining:
            # Re-entrant call (an arrival observer touched the server);
            # the outer drain finishes the job.
            return
        nxt = self.next_arrival
        if nxt > now:
            return
        kernel = self.kernel
        self._draining = True
        try:
            chunk = self._chunk
            i = self._index
            src = self._source
            if not kernel._gated and not kernel.observers:
                # Tight loop: no observer can mutate server state
                # mid-drain, so the queue-length signal and the arrival
                # counters accumulate in locals — the same float/int
                # operation sequences TimeWeighted.set / Counter would
                # run, written back once.  ``PullQueue.add`` is inlined
                # too: the queue's dicts and its ``mark_changed`` are
                # hoisted once per drain instead of re-derived per call,
                # and the request-count total is written back at the end
                # (integer adds commute).
                chunk_len = len(chunk)
                cutoff = kernel.cutoff
                push_waiters = self.waiters
                queue = self.queue
                metrics = self.metrics
                entries = queue._entries
                catalog = queue._catalog
                mark_changed = queue.mark_changed
                added = 0
                warmup = metrics.warmup
                tw = metrics.queue_length
                area = tw._area
                last_t = tw._last_time
                level = tw._level
                peak = tw._max
                drained = 0
                by_rank = [0] * len(metrics._arrivals_by_rank)
                while nxt <= now:
                    request = chunk[i]
                    i += 1
                    if i == chunk_len:
                        chunk = src.next_chunk()
                        chunk_len = len(chunk)
                        i = 0
                    drained += 1
                    if nxt >= warmup:
                        by_rank[request.class_rank] += 1
                    item_id = request.item_id
                    if item_id < cutoff:
                        push_waiters[item_id].append(request)
                    else:
                        entry = entries.get(item_id)
                        if entry is None:
                            item = catalog[item_id]
                            entry = PendingEntry(
                                item_id=item.item_id,
                                length=item.length,
                                probability=item.probability,
                                first_arrival=nxt,
                            )
                            entries[item_id] = entry
                        entry.num_requests += 1
                        entry.total_priority += request.priority
                        if nxt < entry.first_arrival:
                            entry.first_arrival = nxt
                        entry.requests.append(request)
                        added += 1
                        mark_changed(item_id)
                        if nxt < last_t:
                            raise ValueError(f"time ran backwards: {nxt} < {last_t}")
                        area += level * (nxt - last_t)
                        last_t = nxt
                        level = float(len(entries))
                        if level > peak:
                            peak = level
                    nxt = chunk[i].time
                tw._area = area
                tw._last_time = last_t
                tw._level = level
                tw._max = peak
                queue._total_requests += added
                metrics.raw_arrivals += drained
                for rank, count in enumerate(by_rank):
                    if count:
                        metrics._arrivals_by_rank[rank].increment(count)
            else:
                while nxt <= now:
                    request = chunk[i]
                    i += 1
                    if i == len(chunk):
                        chunk = src.next_chunk()
                        i = 0
                    kernel._arrive(request, nxt)
                    nxt = chunk[i].time
            self._chunk = chunk
            self._index = i
            self.next_arrival = nxt
        finally:
            self._draining = False

    # -- push waiters ------------------------------------------------------------
    def park(self, request: Request) -> None:
        """Park a push-item request until the item's broadcast."""
        self.waiters[request.item_id].append(request)

    def start_push(self, item_id: int, now: float) -> None:
        """A slot for ``item_id`` went on air (waiters are filtered at decode)."""

    def decode(
        self, item_id: int, started: float, now: float, corrupted: bool
    ) -> list[Request]:
        """Satisfy the waiters a finished slot reached; returns them.

        Only requests generated by the time the broadcast began can
        decode the item (they need its first byte); later ones wait for
        the next occurrence in the cycle.
        """
        waiters = self.waiters.get(item_id)
        if corrupted or not waiters:
            return []
        satisfied = [r for r in waiters if r.time <= started]
        if satisfied:
            still_waiting = [r for r in waiters if r.time > started]
            if still_waiting:
                self.waiters[item_id] = still_waiting
            else:
                del self.waiters[item_id]
            self.metrics.record_satisfied_many(satisfied, now, via_push=True)
        return satisfied

    def park_entry(self, entry: PendingEntry) -> None:
        """Dissolve a pull entry whose item moved into the push set."""
        self.waiters[entry.item_id].extend(entry.requests)

    def unpark_from(self, cutoff: int) -> list[Request]:
        """Remove and return the waiters of every item ``>= cutoff``."""
        moved: list[Request] = []
        for item_id in [i for i in self.waiters if i >= cutoff]:
            moved.extend(self.waiters.pop(item_id))
        return moved

    @property
    def parked(self) -> int:
        """Requests parked for a push broadcast."""
        return sum(len(waiters) for waiters in self.waiters.values())

    def withdraw(self, request: Request, pulled: bool) -> bool:
        """Remove a still-pending request (renege); ``False`` if it is gone."""
        if pulled:
            return self.queue.remove_request(request)
        waiters = self.waiters.get(request.item_id, [])
        for index, waiting in enumerate(waiters):
            if waiting is request:
                del waiters[index]
                if not waiters:
                    del self.waiters[request.item_id]
                return True
        return False

    # -- pull groups -------------------------------------------------------------
    @staticmethod
    def group(request: Request) -> Request:
        """The unit a submitted pull request is admitted as: itself."""
        return request

    def candidate(self, request: Request) -> PendingEntry:
        """The entry ``request`` would open, for shedding policies to score."""
        return self.queue.make_entry(request)

    def satisfy(self, entry: PendingEntry, now: float) -> None:
        """Record a completed pull transmission's requests as satisfied."""
        self.metrics.record_satisfied_many(entry.requests, now, via_push=False)

    def readmit(self, entry: PendingEntry, now: float) -> bool:
        """Re-queue a corrupted transmission's requests (server-side ARQ).

        A request whose client's deadline expired while the transmission
        was on air reneges instead.  Returns ``True`` if any was queued.
        """
        deadline_for = self.kernel._fault_cfg.deadline_for
        queued = False
        for request in entry.requests:
            if now >= request.time + deadline_for(request.class_rank):
                self.lose(request, "reneged", now)
            elif self.kernel._admit_pull(request, now):
                queued = True
        return queued

    def lose(self, request: Request, outcome: str, now: float) -> None:
        """Record a terminal ``outcome`` (shed, blocked, ...) for one request."""
        getattr(self.metrics, f"record_{outcome}")(request)
        if self.kernel.tracer is not None:
            self.kernel._emit_lifecycle(_LOSS_EVENTS[outcome], request, now)

    def lose_entry(self, entry: PendingEntry, outcome: str, now: float) -> None:
        """Record a terminal ``outcome`` for every request of a queue entry."""
        for request in entry.requests:
            self.lose(request, outcome, now)


class PolicyKernel:
    """Server-side state machine of the hybrid scheduling algorithm.

    Parameters
    ----------
    env:
        The driver's simulation environment; the kernel only reads
        ``env.now`` at its public entry points.
    catalog:
        Item database.
    config:
        System configuration (cutoff, bandwidth, demand law...).
    push_scheduler, pull_scheduler:
        Policy objects.
    pool:
        Per-class bandwidth pools.
    metrics:
        Metrics sink.
    streams:
        Named random streams ("bandwidth" is drawn by the driver).
    pull_mode:
        ``"serial"`` (analysis-faithful, default) or ``"concurrent"``.
    faults:
        Optional :class:`~repro.sim.faults.FaultInjector` corrupting push
        slots and pull transmissions.  Degradation policy (queue capacity,
        shedding, deadlines) is read from ``config.faults`` regardless.
    tracer:
        Optional :class:`~repro.obs.TraceRecorder`.  When ``None`` (the
        default) no event objects are built; when installed, every
        scheduling decision is emitted as a typed trace event.  Tracing
        never consumes randomness, so results are bit-identical either way.
    profiler:
        Optional :class:`~repro.obs.PhaseProfiler` timing the
        scheduler-decision hot spots (``push.select``, ``pull.select``).
    """

    #: Pending store class; the population engine swaps in the folded one.
    store_cls: Any = RequestStore

    def __init__(
        self,
        env: Any,
        catalog: ItemCatalog,
        config: HybridConfig,
        push_scheduler: PushScheduler,
        pull_scheduler: PullScheduler,
        pool: BandwidthPool,
        metrics: MetricsCollector,
        streams: RandomStreams,
        pull_mode: str = "serial",
        faults: Any = None,
        tracer: Any = None,
        profiler: Any = None,
    ) -> None:
        if pull_mode not in ("serial", "concurrent"):
            raise ValueError(f"unknown pull mode {pull_mode!r}")
        if pull_mode == "concurrent" and config.cutoff == 0:
            raise ValueError(
                "concurrent pull mode needs a non-empty push set to pace the "
                "service loop; use serial mode for pure-pull systems"
            )
        self.env = env
        self.catalog = catalog
        self.config = config
        self.push_scheduler = push_scheduler
        self.pull_scheduler = pull_scheduler
        self.pool = pool
        self.metrics = metrics
        self.streams = streams
        self.pull_mode = pull_mode
        self.faults = faults
        self.tracer = tracer
        self.profiler = profiler
        self._fault_cfg = config.faults
        #: Current cut-off point; mutable to support the §3 periodic
        #: re-optimisation (see :meth:`reconfigure_cutoff`).
        self.cutoff = config.cutoff
        #: Class-aware admission controller; ``None`` (inert default
        #: config) keeps the exact pre-overload admission path.
        self.overload: OverloadController | None = None
        if config.overload.active:
            self.overload = OverloadController(
                config.overload,
                capacity=config.faults.queue_capacity,
                num_classes=len(config.class_specs),
            )
        #: Whether a new pull entry must pass the overload gate or the
        #: capacity check (folding into a queued entry never does).
        self._gated = self.overload is not None or config.faults.queue_capacity is not None
        self.pull_queue = PullQueue(catalog)
        if pull_scheduler.incremental:
            # Mutation-invariant scores: serve selections from the queue's
            # lazy max-heap instead of rescanning every entry.
            self.pull_queue.attach_scorer(pull_scheduler)
        #: Callbacks invoked with every submitted request (demand
        #: estimators, adaptive controllers, loggers).
        self.observers: list[Any] = []
        self._in_flight_requests = 0
        #: Pull-transmission accounting audited by the conservation
        #: watchdog's no-preemption check.
        self.pull_tx_started = 0
        self.pull_tx_completed = 0
        self.pull_tx_corrupted = 0
        self.active_pull_transmissions = 0
        self.store = self.store_cls(self)
        self._start()

    # -- driver hooks ------------------------------------------------------------
    def _start(self) -> None:
        """Set up the driver's side once the kernel is built (the service loop)."""
        raise NotImplementedError

    def _wake(self) -> None:
        """Resume the service loop if it sleeps on an empty pure-pull queue."""
        raise NotImplementedError

    def _next_demand(self) -> float:
        """The next Poisson bandwidth demand of a pull service."""
        raise NotImplementedError

    # -- client-facing interface -------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept one client request (uplink message).

        Push-item requests park until the item's broadcast; pull-item
        requests join the pull queue (folding into an existing entry for
        the same item if present).  A bounded pull queue at capacity
        sheds an entry per the configured class-aware policy.
        """
        if self._arrive(request, self.env.now):
            self._wake()

    def _arrive(self, request: Request, now: float) -> bool:
        """Admit one request delivered at ``now``; ``True`` if it was queued."""
        store = self.store
        store.record_arrival(request)
        if self.tracer is not None:
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
        for observer in self.observers:
            observer(request)
        if request.item_id < self.cutoff:
            store.park(request)
            return False
        return self._admit_pull(store.group(request), now)

    def renege(self, request: Request) -> bool:
        """Withdraw an unserved request whose client gave up (deadline).

        Returns ``True`` and records the abandonment if the request was
        still parked for a push broadcast or waiting in the pull queue;
        ``False`` if it is no longer pending (served, in flight on a
        transmission, blocked or shed) — too late to renege.
        """
        now = self.env.now
        self.store.drain(now)
        pulled = request.item_id >= self.cutoff
        if not self.store.withdraw(request, pulled):
            return False
        if pulled:
            self.metrics.record_queue_length(now, len(self.pull_queue))
        self.store.lose(request, "reneged", now)
        if pulled and self.tracer is not None:
            self._emit_queue_length(now)
        return True

    # -- pull admission ----------------------------------------------------------
    def _admit_pull(self, group: Any, now: float) -> bool:
        """Admit one arrival group to the pull queue; ``True`` if it was queued.

        ``group`` is whatever the store folds as a unit: a request, or a
        folded group.  Only a group that would open a *new* entry passes
        the gates: an armed overload controller refuses it above its
        class-specific occupancy limit (lowest classes first), and a
        queue at capacity sheds per the configured policy — either a
        queued entry (all its pending requests) or the group itself.
        """
        queue = self.pull_queue
        store = self.store
        if self._gated and queue.peek(group.item_id) is None:
            candidate = store.candidate(group)
            if self.overload is not None and not self.overload.admits(
                candidate.lead_rank, len(queue)
            ):
                store.lose(group, "overload_rejected", now)
                return False
            capacity = self._fault_cfg.queue_capacity
            if capacity is not None and len(queue) >= capacity:
                victim = select_shed_victim(
                    self._fault_cfg.shedding_policy,
                    queue,
                    candidate,
                    self.pull_scheduler,
                    now,
                )
                if victim is None:
                    store.lose(group, "shed", now)
                    return False
                store.lose_entry(queue.pop(victim), "shed", now)
        store.enqueue(group)
        self.metrics.record_queue_length(now, len(queue))
        if self.tracer is not None:
            self._emit_queue_length(now)
        return True

    # -- push slots --------------------------------------------------------------
    def _start_push(self, now: float) -> Optional[int]:
        """The item whose broadcast starts at ``now``, or ``None`` (no push set)."""
        if not self.cutoff:
            return None
        if self.profiler is None:
            item_id = self.push_scheduler.next_item()
        else:
            with self.profiler.phase("push.select"):
                item_id = self.push_scheduler.next_item()
        if item_id is not None:
            self.store.start_push(item_id, now)
        return item_id

    def _decode_push(self, item_id: int, started: float, now: float) -> None:
        """A push slot left the air: satisfy its waiters, unless corrupted.

        A corrupted slot spends its air time but nobody decodes the item;
        the waiters stay parked for the item's next cycle occurrence.
        """
        if self.store.next_arrival <= now:
            self.store.drain(now)
        corrupted = self.faults is not None and self.faults.downlink_lost()
        if corrupted:
            self.metrics.record_corrupted_push()
        else:
            self.metrics.record_push_broadcast()
        satisfied = self.store.decode(item_id, started, now, corrupted)
        if self.tracer is not None:
            rids = tuple(self.tracer.rid(request) for request in satisfied)
            self.tracer.emit(
                PushBroadcast(
                    time=started,
                    end=now,
                    item_id=item_id,
                    satisfied=rids,
                    corrupted=corrupted,
                )
            )
            self._emit_satisfied(satisfied, now, via_push=True)

    # -- pull service ------------------------------------------------------------
    def _take_pull(self, now: float) -> Any:
        """Select, pop and admit the max-importance pull entry.

        Returns ``None`` when the queue is empty, :data:`DROPPED` when the
        entry's class could not cover its bandwidth demand (the entry and
        all its pending requests are lost), else the ``(entry, rank,
        demand)`` grant of a transmission the driver puts on air.
        """
        if self.store.next_arrival <= now:
            self.store.drain(now)
        queue = self.pull_queue
        if self.profiler is None:
            entry = self.pull_scheduler.select(queue, now)
        else:
            with self.profiler.phase("pull.select"):
                entry = self.pull_scheduler.select(queue, now)
        if entry is None:
            return None
        tracer = self.tracer
        if tracer is not None:
            # Score the whole queue *before* popping the winner, with the
            # same scheduler state the selection just used, so the trace
            # carries a provable max-γ/tie-break record.
            tracer.note_gamma(entry, self.pull_scheduler.score(entry, now))
            if tracer.gamma_snapshots:
                tracer.emit(
                    GammaSnapshot(
                        time=now,
                        served_item=entry.item_id,
                        scores=tuple(
                            (e.item_id, self.pull_scheduler.score(e, now)) for e in queue
                        ),
                    )
                )
        # PullQueue.pop + TimeWeighted.set, inlined (keep in sync with
        # monitor.py): one entry leaves per service, so the method
        # dispatch overhead is pure per-service tax.
        del queue._entries[entry.item_id]
        queue._total_requests -= entry.num_requests
        tw = self.metrics.queue_length
        if now < tw._last_time:
            raise ValueError(f"time ran backwards: {now} < {tw._last_time}")
        tw._area += tw._level * (now - tw._last_time)
        tw._last_time = now
        level = float(len(queue._entries))
        tw._level = level
        if level > tw._max:
            tw._max = level
        if tracer is not None:
            self._emit_queue_length(now)

        demand = self._next_demand()
        rank = entry.lead_rank
        if not self.pool.try_acquire(rank, demand):
            self.metrics.record_pull_drop()
            if tracer is not None:
                tracer.emit(
                    PullDropped(
                        time=now,
                        item_id=entry.item_id,
                        class_rank=rank,
                        demand=demand,
                        requests=tuple(tracer.rid(r) for r in entry.requests),
                    )
                )
            self.store.lose_entry(entry, "blocked", now)
            return DROPPED
        self._in_flight_requests += entry.num_requests
        return entry, rank, demand

    def _complete_pull(
        self, entry: PendingEntry, rank: int, demand: float, started: float, now: float
    ) -> None:
        """A pull transmission left the air: satisfy, or corrupt and re-queue.

        Under a lossy downlink the whole transmission may be corrupted:
        the air time and bandwidth are spent, nobody is satisfied, and the
        pending requests re-enter the pull queue (server-side ARQ) unless
        their clients' deadlines have meanwhile expired.
        """
        if self.store.next_arrival <= now:
            self.store.drain(now)
        self._in_flight_requests -= entry.num_requests
        self.active_pull_transmissions -= 1
        corrupted = self.faults is not None and self.faults.downlink_lost()
        if self.tracer is not None:
            self.tracer.emit(
                PullServed(
                    time=started,
                    end=now,
                    item_id=entry.item_id,
                    gamma=self.tracer.take_gamma(entry),
                    class_rank=rank,
                    demand=demand,
                    requests=tuple(self.tracer.rid(r) for r in entry.requests),
                    corrupted=corrupted,
                )
            )
        self.pool.release(rank, demand)
        if corrupted:
            self.pull_tx_corrupted += 1
            self.metrics.record_corrupted_pull()
            if self.store.readmit(entry, now):
                self._wake()
            return
        self.store.satisfy(entry, now)
        if self.tracer is not None:
            self._emit_satisfied(entry.requests, now, via_push=False)
        self.pull_scheduler.observe_service(entry, now)
        self.metrics.record_pull_service()
        self.pull_tx_completed += 1

    # -- reconfiguration ---------------------------------------------------------
    def reconfigure_cutoff(self, new_cutoff: int, push_scheduler: PushScheduler) -> None:
        """Switch to a new cut-off point at runtime (§3 re-optimisation).

        Buffered arrivals settle under the *old* cutoff first.  Pending
        work then migrates with the split:

        * pull-queue entries whose item is now pushed dissolve into push
          waiters (the broadcast cycle will satisfy them);
        * push waiters whose item is now pulled — including those of a
          slot on air — are re-admitted to the pull queue through the
          bounded admission path, keeping their original arrival times.

        ``push_scheduler`` must already be built for ``new_cutoff``.
        """
        if not 0 <= new_cutoff <= len(self.catalog):
            raise ValueError(f"cutoff {new_cutoff} outside [0, {len(self.catalog)}]")
        if new_cutoff == 0 and self.pull_mode == "concurrent":
            raise ValueError("concurrent pull mode needs a non-empty push set")
        if push_scheduler.cutoff != new_cutoff:
            raise ValueError(
                f"push scheduler built for cutoff {push_scheduler.cutoff}, "
                f"expected {new_cutoff}"
            )
        now = self.env.now
        self.store.drain(now)
        if self.tracer is not None:
            self.tracer.emit(
                CutoffChanged(time=now, old_cutoff=self.cutoff, new_cutoff=new_cutoff)
            )
        self.cutoff = new_cutoff
        self.push_scheduler = push_scheduler
        queue = self.pull_queue
        for item_id in [e.item_id for e in queue if e.item_id < new_cutoff]:
            self.store.park_entry(queue.pop(item_id))
        for group in self.store.unpark_from(new_cutoff):
            self._admit_pull(group, now)
        self.metrics.record_queue_length(now, len(queue))
        if self.tracer is not None:
            self._emit_queue_length(now)
        if queue:
            self._wake()

    def reconfigure_alpha(self, new_alpha: float) -> None:
        """Retune the Eq. 1 importance weight α at runtime (control plane).

        Only pull schedulers exposing a ``set_alpha`` knob support this
        (the importance-factor family).  Buffered arrivals settle under
        the *old* α first; when the queue keeps a heap index over the
        scheduler's scores, the index is rebuilt so no record priced
        under the old α survives — selections after this call are exactly
        what a fresh scheduler would pick.
        """
        setter = getattr(self.pull_scheduler, "set_alpha", None)
        if setter is None:
            raise ValueError(
                f"pull scheduler {self.pull_scheduler.name!r} has no alpha knob"
            )
        self.store.drain(self.env.now)
        setter(new_alpha)
        if self.pull_queue.indexed_for(self.pull_scheduler):
            self.pull_queue.attach_scorer(self.pull_scheduler)

    def reconfigure_bandwidth(self, capacities: list[float]) -> None:
        """Install new per-class bandwidth reservations (control plane).

        Delegates to :meth:`~repro.sim.bandwidth_pool.BandwidthPool.reconfigure`:
        in-flight transmissions keep their held bandwidth, so the change
        is atomic with respect to conservation and non-preemption.
        """
        self.pool.reconfigure(capacities)

    # -- diagnostics -------------------------------------------------------------
    @property
    def pending_push_requests(self) -> int:
        """Requests currently parked waiting for a push broadcast."""
        return self.store.parked

    @property
    def pending_pull_requests(self) -> int:
        """Requests currently queued in the pull system."""
        return self.pull_queue.total_requests

    @property
    def in_flight_pull_requests(self) -> int:
        """Requests riding on pull transmissions currently on air."""
        return self._in_flight_requests

    # -- trace emission (tracer must be installed) -------------------------------
    def _emit_lifecycle(self, event_cls: Any, request: Request, now: float) -> None:
        """Emit one request life-cycle event."""
        self.tracer.emit(
            event_cls(
                time=now,
                req=self.tracer.rid(request),
                item_id=request.item_id,
                class_rank=request.class_rank,
            )
        )

    def _emit_queue_length(self, now: float) -> None:
        """Emit the current pull-queue length."""
        self.tracer.emit(QueueSampled(time=now, length=len(self.pull_queue)))

    def _emit_satisfied(self, requests: Any, now: float, via_push: bool) -> None:
        """Emit one satisfaction event per request of a decoded transmission."""
        for request in requests:
            self.tracer.emit(
                RequestSatisfied(
                    time=now,
                    req=self.tracer.rid(request),
                    item_id=request.item_id,
                    class_rank=request.class_rank,
                    via_push=via_push,
                    delay=now - request.time,
                )
            )
