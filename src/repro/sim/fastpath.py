"""Fast-engine hot path: callback server state machine + batched arrivals.

:class:`FastHybridServer` re-implements :class:`~repro.sim.server.HybridServer`'s
Figure-1 loop as a kind-dispatched state machine over
:meth:`~repro.des.fastengine.FastEnvironment.schedule_call` records — no
generator frames, no Event/Timeout objects on the per-cycle path.  It
reuses the exact policy and bookkeeping objects of the reference server
(:class:`~repro.schedulers.base.PullQueue`, the scheduler registry,
:class:`~repro.sim.bandwidth_pool.BandwidthPool`,
:class:`~repro.sim.metrics.MetricsCollector`,
:class:`~repro.sim.overload.OverloadController`,
:class:`~repro.sim.faults.FaultInjector`) and exposes the same public
surface (``submit``/``renege``/``reconfigure_cutoff``/``observers``/
pending & transmission counters), so the uplink channel, fault-aware
client front, conservation watchdog and adaptive controllers work
unchanged against either server.

Differences from the reference server, by design:

* Bandwidth demands are pre-drawn in blocks from the same ``"bandwidth"``
  stream (statistically identical, different stream consumption order).
* Satisfied requests are recorded through the batched
  :meth:`~repro.sim.metrics.MetricsCollector.record_satisfied_many` path
  (bit-identical to sequential recording for the same request sequence).
* Tracing and profiling are **not** supported — they instrument the
  reference server's internals; use ``engine="reference"`` to record
  traces.

:class:`FastArrivalDriver` replaces the ``drive_arrivals`` generator with
one flat calendar record per arrival, fed by pre-generated chunks from
:class:`~repro.workload.batched.BatchedArrivals`.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from ..core.config import HybridConfig
from ..des import URGENT, RandomStreams
from ..des.fastengine import FastEnvironment
from ..schedulers.base import PendingEntry, PullQueue, PullScheduler, PushScheduler
from ..workload.arrivals import Request
from ..workload.batched import BatchedArrivals
from ..workload.items import ItemCatalog
from .bandwidth_pool import BandwidthPool
from .faults import select_shed_victim
from .metrics import MetricsCollector
from .overload import OverloadController
from .server import PullMode

__all__ = ["FastHybridServer", "FastArrivalDriver"]

#: Bandwidth demands pre-drawn per block; amortises numpy scalar-dispatch
#: overhead (~1 µs per draw) over the pull-service hot loop.
_DEMAND_BLOCK = 512


class FastHybridServer:
    """Callback-driven hybrid server for :class:`FastEnvironment`.

    Semantics match :class:`~repro.sim.server.HybridServer` cycle for
    cycle: broadcast the next push item, then serve (or drop) the
    max-importance pull entry; a pure-pull server with an empty queue
    sleeps until the next admission wakes it.  Control flow is expressed
    as scheduled callbacks instead of one generator process:

    ``_advance`` starts cycles until the server blocks on a timed
    transmission (or idles); ``_on_push_done`` / ``_on_pull_done`` are
    the transmission-completion continuations.  Drops and concurrent
    spawns loop in place (the ``while`` in ``_advance``), so consecutive
    zero-air-time decisions never recurse.
    """

    # Engine-parity contract (reprolint RL016): must match the reference
    # and population engines exactly; the checker diffs the declarations
    # and the implementing methods' parameter names project-wide.
    __parity_group__ = "hybrid-engine"
    __parity_surface__ = (
        "submit",
        "renege",
        "reconfigure_cutoff",
        "reconfigure_alpha",
        "reconfigure_bandwidth",
        "pending_push_requests",
        "pending_pull_requests",
        "in_flight_pull_requests",
    )

    def __init__(
        self,
        env: FastEnvironment,
        catalog: ItemCatalog,
        config: HybridConfig,
        push_scheduler: PushScheduler,
        pull_scheduler: PullScheduler,
        pool: BandwidthPool,
        metrics: MetricsCollector,
        streams: RandomStreams,
        pull_mode: PullMode = "serial",
        faults=None,
        tracer=None,
        profiler=None,
    ) -> None:
        if pull_mode not in ("serial", "concurrent"):
            raise ValueError(f"unknown pull mode {pull_mode!r}")
        if pull_mode == "concurrent" and config.cutoff == 0:
            raise ValueError(
                "concurrent pull mode needs a non-empty push set to pace the "
                "service loop; use serial mode for pure-pull systems"
            )
        if tracer is not None:
            raise ValueError(
                "the fast engine does not support tracing (it instruments "
                "HybridServer internals); run with engine='reference'"
            )
        if profiler is not None:
            raise ValueError(
                "the fast engine does not support phase profiling; run with "
                "engine='reference'"
            )
        self.env = env
        self.catalog = catalog
        self.config = config
        self.push_scheduler = push_scheduler
        self.pull_scheduler = pull_scheduler
        self.pool = pool
        self.metrics = metrics
        self.streams = streams
        self.pull_mode: PullMode = pull_mode
        self.faults = faults
        self.tracer = None
        self.profiler = None
        self._fault_cfg = config.faults
        self.cutoff = config.cutoff
        self.overload: OverloadController | None = None
        if config.overload.active:
            self.overload = OverloadController(
                config.overload,
                capacity=config.faults.queue_capacity,
                num_classes=len(config.class_specs),
            )
        self.pull_queue = PullQueue(catalog)
        if pull_scheduler.incremental:
            self.pull_queue.attach_scorer(pull_scheduler)
        self._push_waiters: dict[int, list[Request]] = defaultdict(list)
        self.observers: list = []
        self._in_flight_requests = 0
        self.pull_tx_started = 0
        self.pull_tx_completed = 0
        self.pull_tx_corrupted = 0
        self.active_pull_transmissions = 0

        # Block-drawn Poisson bandwidth demands (same "bandwidth" stream
        # as the reference server, consumed in blocks instead of per
        # service — statistically identical, not bit-identical).
        self._demand_rng = streams.stream("bandwidth")
        self._demand_mean = float(config.bandwidth_demand_mean)
        self._demand_buf: np.ndarray | None = None
        self._demand_idx = 0

        # Buffered arrival source (see attach_arrivals): when set, the
        # server drains time-ordered pre-generated arrivals itself at
        # every point it touches queue state — no per-arrival calendar
        # records at all.
        self._arr_src: BatchedArrivals | None = None
        self._arr_chunk: list[Request] = []
        self._arr_idx = 0
        self._arr_next = math.inf
        self._draining = False

        #: True while the cycle loop is suspended with no continuation on
        #: the calendar (pure-pull, empty queue).  Set before the initial
        #: wake so the start-up record passes the guard; any stale wake
        #: arriving while the loop runs is a no-op.
        self._sleeping = True
        # Mirror the reference server's process start: the loop's first
        # cycle runs at t=0 ahead of NORMAL-priority records.
        env.schedule_call(0.0, self._on_wake, priority=URGENT)

    # -- buffered arrivals ----------------------------------------------------
    def attach_arrivals(self, arrivals: BatchedArrivals) -> None:
        """Feed arrivals by draining ``arrivals`` chunks in-line.

        Only valid when requests reach the server directly (ideal uplink,
        no client-recovery front): instead of one calendar record per
        arrival, the server admits every buffered arrival with timestamp
        ``<= now`` just before it reads or mutates queue state (select,
        push decode, pull completion, reconfiguration).  Admission order
        and timestamps match the reference exactly; only the *event
        count* changes.  Call :meth:`finalize` after the run so arrivals
        between the last service event and the horizon are still
        admitted and counted.
        """
        self._arr_src = arrivals
        self._arr_chunk = arrivals.next_chunk()
        self._arr_idx = 0
        self._arr_next = self._arr_chunk[0].time

    def _drain_arrivals(self, now: float) -> None:
        """Admit every buffered arrival with timestamp ``<= now``."""
        if self._draining:
            # Re-entrant call (an arrival observer touched the server);
            # the outer drain finishes the job.
            return
        nxt = self._arr_next
        if nxt > now:
            return
        self._draining = True
        try:
            chunk = self._arr_chunk
            i = self._arr_idx
            src = self._arr_src
            queue = self.pull_queue
            qadd = queue.add
            metrics = self.metrics
            simple = self.overload is None and self._fault_cfg.queue_capacity is None
            if simple and not self.observers:
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
                cutoff = self.cutoff
                push_waiters = self._push_waiters
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
                            raise ValueError(
                                f"time ran backwards: {nxt} < {last_t}"
                            )
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
                record_arrival = metrics.record_arrival
                qlen_set = metrics.queue_length.set
                while nxt <= now:
                    request = chunk[i]
                    i += 1
                    if i == len(chunk):
                        chunk = src.next_chunk()
                        i = 0
                    record_arrival(request)
                    for observer in self.observers:
                        observer(request)
                    if request.item_id < self.cutoff:
                        self._push_waiters[request.item_id].append(request)
                    elif simple:
                        qadd(request)
                        qlen_set(nxt, len(queue))
                    else:
                        self._admit_pull_at(request, nxt, wake=False)
                    nxt = chunk[i].time
            self._arr_chunk = chunk
            self._arr_idx = i
            self._arr_next = nxt
        finally:
            self._draining = False

    def finalize(self, horizon: float) -> None:
        """Admit buffered arrivals up to ``horizon`` after the run stops.

        The reference engine processes every arrival event up to (and
        including) the horizon before stopping; the drain-on-touch
        scheme only reaches arrivals up to the last service event.  The
        system runner calls this once after ``env.run`` so end-of-run
        queue state, arrival counts and the conservation audit match the
        reference accounting.
        """
        if self._arr_next <= horizon:
            self._drain_arrivals(horizon)

    # -- client-facing interface ---------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept one client request (uplink message)."""
        self.metrics.record_arrival(request)
        for observer in self.observers:
            observer(request)
        if request.item_id < self.cutoff:
            self._push_waiters[request.item_id].append(request)
        else:
            self._admit_pull(request)

    def renege(self, request: Request) -> bool:
        """Withdraw an unserved request whose client gave up (deadline)."""
        if self._arr_next <= self.env.now:
            self._drain_arrivals(self.env.now)
        if request.item_id < self.cutoff:
            waiters = self._push_waiters.get(request.item_id)
            if waiters:
                for index, waiting in enumerate(waiters):
                    if waiting is request:
                        del waiters[index]
                        if not waiters:
                            del self._push_waiters[request.item_id]
                        self.metrics.record_reneged(request)
                        return True
            return False
        if self.pull_queue.remove_request(request):
            self.metrics.record_queue_length(self.env.now, len(self.pull_queue))
            self.metrics.record_reneged(request)
            return True
        return False

    def _admit_pull(self, request: Request) -> None:
        self._admit_pull_at(request, self.env.now, wake=True)

    def _admit_pull_at(self, request: Request, now: float, wake: bool) -> None:
        """Insert one request into the (possibly bounded) pull queue.

        Same admission pipeline as the reference server: overload
        controller first, then capacity shedding, then the queue proper.
        ``now`` is the admission timestamp (the arrival's own time when
        called from the drain loop); ``wake`` is false while draining —
        the loop is already running.
        """
        capacity = self._fault_cfg.queue_capacity
        if (
            self.overload is not None
            and self.pull_queue.peek(request.item_id) is None
            and not self.overload.admits(request.class_rank, len(self.pull_queue))
        ):
            self.metrics.record_overload_rejected(request)
            return
        if (
            capacity is not None
            and self.pull_queue.peek(request.item_id) is None
            and len(self.pull_queue) >= capacity
        ):
            candidate = self.pull_queue.make_entry(request)
            victim = select_shed_victim(
                self._fault_cfg.shedding_policy,
                self.pull_queue,
                candidate,
                self.pull_scheduler,
                now,
            )
            if victim is None:
                self.metrics.record_shed(request)
                return
            evicted = self.pull_queue.pop(victim)
            for shed in evicted.requests:
                self.metrics.record_shed(shed)
        self.pull_queue.add(request)
        self.metrics.record_queue_length(now, len(self.pull_queue))
        if wake and self._sleeping:
            # Wake the sleeping pure-pull loop; the zero-delay record
            # mirrors the reference server's wakeup event (the cycle
            # resumes at the same time, after the current record).
            # ``_sleeping`` is cleared by the wake itself, so racing
            # wakes (e.g. a buffered-arrival wake already scheduled)
            # collapse into no-ops.
            self.env.schedule_call(0.0, self._on_wake)

    # -- server cycle --------------------------------------------------------
    def _on_wake(self, _arg=None) -> None:
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
            item_id = self.push_scheduler.next_item() if self.cutoff else None
            if item_id is not None:
                self.env.schedule_call(
                    self.catalog[item_id].length,
                    self._on_push_done,
                    (item_id, self.env.now),
                )
                return
            if not self._pull_step(pushed=False):
                return

    def _on_push_done(self, payload) -> None:
        """One push slot's air time elapsed: decode (or corrupt), continue."""
        item_id, started = payload
        if self._arr_next <= self.env.now:
            # Buffered arrivals during the slot's air time join the
            # waiters/queue before the decode check, exactly as their
            # per-event admissions would have under the reference engine.
            self._drain_arrivals(self.env.now)
        if self.faults is not None and self.faults.downlink_lost():
            # Corrupted slot: air time spent, nobody decodes; waiters stay
            # parked for the next cycle occurrence.
            self.metrics.record_corrupted_push()
        else:
            self.metrics.record_push_broadcast()
            waiters = self._push_waiters.get(item_id)
            if waiters:
                # Only clients already waiting when the broadcast began
                # can decode the item (they need its first byte).
                satisfied = [r for r in waiters if r.time <= started]
                if satisfied:
                    still_waiting = [r for r in waiters if r.time > started]
                    if still_waiting:
                        self._push_waiters[item_id] = still_waiting
                    else:
                        del self._push_waiters[item_id]
                    self.metrics.record_satisfied_many(
                        satisfied, self.env.now, via_push=True
                    )
        if self._pull_step(pushed=True):
            self._advance()

    def _pull_step(self, pushed: bool) -> bool:
        """Serve or drop one pull entry; ``True`` → caller continues the cycle.

        Returns ``False`` when control is suspended — a serial
        transmission went on air (``_on_pull_done`` resumes the cycle) or
        the pure-pull queue drained (``_admit_pull`` wakes the loop).
        """
        env = self.env
        now = env.now
        if self._arr_next <= now:
            self._drain_arrivals(now)
        entry = self.pull_scheduler.select(self.pull_queue, now)
        if entry is None:
            if pushed:
                return True
            self._sleeping = True
            if self._arr_next < math.inf:
                # Pure-pull with buffered arrivals: nothing external will
                # wake the loop, so sleep until the next arrival (the
                # drain above guarantees it is strictly in the future).
                env.schedule_call(self._arr_next - now, self._on_wake)
            return False
        # PullQueue.pop + TimeWeighted.set, inlined (keep in sync with
        # monitor.py): one entry leaves per service, so the method
        # dispatch overhead is pure per-service tax.
        queue = self.pull_queue
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

        demand = self._next_demand()
        requests = entry.requests
        rank = requests[0].class_rank
        for request in requests:
            if request.class_rank < rank:
                rank = request.class_rank
        if not self.pool.try_acquire(rank, demand):
            # Admission failed: the item and all its pending requests are lost.
            self.metrics.record_pull_drop()
            for request in entry.requests:
                self.metrics.record_blocked(request)
            return True
        self._in_flight_requests += entry.num_requests
        self.pull_tx_started += 1
        self.active_pull_transmissions += 1
        if self.pull_mode == "serial":
            env.schedule_call(
                entry.length, self._on_pull_done_serial, (entry, rank, demand)
            )
            return False
        env.schedule_call(entry.length, self._on_pull_done, (entry, rank, demand))
        return True

    def _on_pull_done_serial(self, payload) -> None:
        self._complete_pull(*payload)
        self._advance()

    def _on_pull_done(self, payload) -> None:
        self._complete_pull(*payload)

    def _complete_pull(self, entry: PendingEntry, rank: int, demand: float) -> None:
        """A pull transmission left the air: satisfy, or corrupt and re-queue."""
        self._in_flight_requests -= entry.num_requests
        if self._arr_next <= self.env.now:
            # Arrivals during the air time enter the queue (at their own
            # timestamps) before completion bookkeeping, matching the
            # reference event order.
            self._drain_arrivals(self.env.now)
        if self.faults is not None and self.faults.downlink_lost():
            # Server-side ARQ: air time and bandwidth are spent, pending
            # requests re-enter the queue unless their deadline passed.
            self.pull_tx_corrupted += 1
            self.active_pull_transmissions -= 1
            self.pool.release(rank, demand)
            self.metrics.record_corrupted_pull()
            now = self.env.now
            deadline_for = self._fault_cfg.deadline_for
            for request in entry.requests:
                if now >= request.time + deadline_for(request.class_rank):
                    self.metrics.record_reneged(request)
                else:
                    self._admit_pull(request)
            return
        now = self.env.now
        self.metrics.record_satisfied_many(entry.requests, now, via_push=False)
        self.pull_scheduler.observe_service(entry, now)
        self.pool.release(rank, demand)
        self.metrics.record_pull_service()
        self.pull_tx_completed += 1
        self.active_pull_transmissions -= 1

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

    # -- reconfiguration -----------------------------------------------------
    def reconfigure_cutoff(self, new_cutoff: int, push_scheduler: PushScheduler) -> None:
        """Switch to a new cut-off point at runtime (§3 re-optimisation)."""
        if not 0 <= new_cutoff <= len(self.catalog):
            raise ValueError(f"cutoff {new_cutoff} outside [0, {len(self.catalog)}]")
        if new_cutoff == 0 and self.pull_mode == "concurrent":
            raise ValueError("concurrent pull mode needs a non-empty push set")
        if push_scheduler.cutoff != new_cutoff:
            raise ValueError(
                f"push scheduler built for cutoff {push_scheduler.cutoff}, "
                f"expected {new_cutoff}"
            )
        if self._arr_next <= self.env.now:
            # Settle buffered arrivals under the *old* cutoff before the
            # push/pull split moves.
            self._drain_arrivals(self.env.now)
        self.cutoff = new_cutoff
        self.push_scheduler = push_scheduler
        # Pull entries for items that moved into the push set.
        for item_id in [e.item_id for e in self.pull_queue if e.item_id < new_cutoff]:
            entry = self.pull_queue.pop(item_id)
            self._push_waiters[item_id].extend(entry.requests)
        # Push waiters for items that moved into the pull set (through the
        # bounded admission path, so a capacity limit still holds).
        for item_id in [i for i in self._push_waiters if i >= new_cutoff]:
            for request in self._push_waiters.pop(item_id):
                self._admit_pull(request)
        self.metrics.record_queue_length(self.env.now, len(self.pull_queue))

    def reconfigure_alpha(self, new_alpha: float) -> None:
        """Retune the Eq. 1 importance weight α at runtime (control plane).

        Buffered arrivals settle under the *old* α first (mirroring
        :meth:`reconfigure_cutoff`), then the scheduler is retuned and
        the queue's heap index rebuilt so no stale score survives.
        """
        setter = getattr(self.pull_scheduler, "set_alpha", None)
        if setter is None:
            raise ValueError(
                f"pull scheduler {self.pull_scheduler.name!r} has no alpha knob"
            )
        if self._arr_next <= self.env.now:
            self._drain_arrivals(self.env.now)
        setter(new_alpha)
        if self.pull_queue.indexed_for(self.pull_scheduler):
            self.pull_queue.attach_scorer(self.pull_scheduler)

    def reconfigure_bandwidth(self, capacities: list[float]) -> None:
        """Install new per-class bandwidth reservations (control plane).

        In-flight transmissions keep their held bandwidth (see
        :meth:`~repro.sim.bandwidth_pool.BandwidthPool.reconfigure`), so
        the change never breaks conservation or non-preemption.
        """
        self.pool.reconfigure(capacities)

    # -- diagnostics -----------------------------------------------------------
    @property
    def pending_push_requests(self) -> int:
        """Requests currently parked waiting for a push broadcast."""
        return sum(len(waiters) for waiters in self._push_waiters.values())

    @property
    def pending_pull_requests(self) -> int:
        """Requests currently queued in the pull system."""
        return self.pull_queue.total_requests

    @property
    def in_flight_pull_requests(self) -> int:
        """Requests riding on pull transmissions currently on air."""
        return self._in_flight_requests


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
