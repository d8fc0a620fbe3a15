"""Population-aggregated hybrid server: the ``engine="population"`` hot path.

:class:`PopulationHybridServer` mirrors the fast engine's callback state
machine (:class:`~repro.sim.fastpath.FastHybridServer`) cycle for cycle,
but folds requests into :class:`~repro.scale.folded.FoldedEntry` counters
instead of carrying request objects: a pending entry stores per-class
waiting counts and arrival-time moments, push waiters fold into per-item
groups, and satisfied/blocked/shed outcomes are recorded through the
metrics collector's folded intake.  Per-event cost is therefore
independent of the population size ``N``; only the arrival drain is
O(total arrivals).

Exactness boundary (see ``docs/scale.md``):

* Arrivals come from :class:`~repro.workload.population.PopulationArrivals`
  — distributionally identical to the per-client generators.
* Folded delay statistics merge exact ``(n, Σt, Σt², min, max)`` moments:
  the same count/mean/variance/min/max in exact arithmetic, different
  float summation order — *statistically exact, not bit-identical*.
* Downlink faults, bounded queues and overload control are supported.
  Admission checks that the reference applies to the *first request* of a
  new entry apply here to the folded group's lead class; under the default
  ``drop-newest`` shedding the decisions coincide exactly, under scored
  policies a re-queued group is scored with its full count (the reference
  scores the first request alone).
* Client-recovery faults (uplink loss, per-class deadlines) need
  per-request identity to retry/renege and are rejected up front.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from ..core.config import HybridConfig
from ..des import URGENT, RandomStreams
from ..des.fastengine import FastEnvironment
from ..schedulers.base import PullQueue, PullScheduler, PushScheduler
from ..sim.bandwidth_pool import BandwidthPool
from ..sim.faults import FaultInjector, select_shed_victim
from ..sim.metrics import MetricsCollector
from ..sim.overload import OverloadController
from ..sim.server import PullMode
from ..workload.arrivals import Request
from ..workload.items import ItemCatalog
from ..workload.population import PopulationArrivals
from .folded import FoldedEntry

__all__ = ["PopulationHybridServer"]

#: Bandwidth demands pre-drawn per block (same scheme as the fast engine).
_DEMAND_BLOCK = 512


class PopulationHybridServer:
    """Counter-folded hybrid server for :class:`FastEnvironment`.

    Drop-in for :class:`~repro.sim.fastpath.FastHybridServer` behind
    :class:`~repro.sim.system.HybridSystem` (same constructor surface,
    same diagnostics for the conservation watchdog), with pending state
    carried as :class:`FoldedEntry` per-class counters.
    """

    # Engine-parity contract (reprolint RL016): must match the reference
    # and fast-path engines exactly; population-only surfaces
    # (attach_arrivals/finalize) stay outside the shared contract.
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
        faults: Optional[FaultInjector] = None,
        tracer: Optional[object] = None,
        profiler: Optional[object] = None,
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
                "the population engine does not support tracing; run with "
                "engine='reference'"
            )
        if profiler is not None:
            raise ValueError(
                "the population engine does not support phase profiling; run "
                "with engine='reference'"
            )
        if config.faults.client_recovery:
            raise ValueError(
                "the population engine folds requests into counters and cannot "
                "track per-request retries or deadlines; client-recovery faults "
                "(uplink_loss > 0 or class_deadlines) need engine='reference' "
                "or engine='fast'"
            )
        if metrics.qos_recorder is not None:
            raise ValueError(
                "the population engine cannot record per-request QoS samples; "
                "run with record_qos=False or another engine"
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
        self._class_priority = [float(q) for q in metrics.class_priorities]
        self._num_classes = len(self._class_priority)
        self.overload: OverloadController | None = None
        if config.overload.active:
            self.overload = OverloadController(
                config.overload,
                capacity=config.faults.queue_capacity,
                num_classes=self._num_classes,
            )
        self.pull_queue = PullQueue(catalog)
        if pull_scheduler.incremental:
            self.pull_queue.attach_scorer(pull_scheduler)
        #: Folded push waiters per item, still accepting arrivals.
        self._push_open: dict[int, FoldedEntry] = {}
        #: Group sealed at push start (decodable waiters) while its slot
        #: is on air; at most one exists because pushes are serial.
        self._push_sealed: FoldedEntry | None = None
        self.observers: list[object] = []
        self._in_flight_requests = 0
        self.pull_tx_started = 0
        self.pull_tx_completed = 0
        self.pull_tx_corrupted = 0
        self.active_pull_transmissions = 0

        self._demand_rng = streams.stream("bandwidth")
        self._demand_mean = float(config.bandwidth_demand_mean)
        self._demand_buf: np.ndarray | None = None
        self._demand_idx = 0

        # Buffered aggregated arrivals (struct-of-arrays blocks).
        self._arr_src: PopulationArrivals | None = None
        self._arr_times: list[float] = []
        self._arr_items: list[int] = []
        self._arr_ranks: list[int] = []
        self._arr_idx = 0
        self._arr_next = math.inf
        self._draining = False

        self._sleeping = True
        env.schedule_call(0.0, self._on_wake, priority=URGENT)

    # -- buffered arrivals ----------------------------------------------------
    def attach_arrivals(self, arrivals: PopulationArrivals) -> None:
        """Feed aggregated arrivals by draining blocks in-line.

        Same drain-on-touch scheme as the fast engine, but over the
        struct-of-arrays blocks of :meth:`PopulationArrivals.next_block`
        — no ``Request`` objects exist at any point.  Call
        :meth:`finalize` after the run.
        """
        self._arr_src = arrivals
        times, items, ranks = arrivals.next_block()
        self._arr_times, self._arr_items, self._arr_ranks = times, items, ranks
        self._arr_idx = 0
        self._arr_next = times[0]

    def _drain_arrivals(self, now: float) -> None:
        """Fold every buffered arrival with timestamp ``<= now``."""
        if self._draining:
            return
        nxt = self._arr_next
        if nxt > now:
            return
        if self.observers:
            raise RuntimeError(
                "the population engine folds arrivals and cannot notify "
                "per-request observers"
            )
        self._draining = True
        try:
            times = self._arr_times
            items = self._arr_items
            ranks = self._arr_ranks
            i = self._arr_idx
            src = self._arr_src
            metrics = self.metrics
            warmup = metrics.warmup
            queue = self.pull_queue
            cutoff = self.cutoff
            priorities = self._class_priority
            num_classes = self._num_classes
            by_rank_measured = [0] * num_classes
            by_rank_total = [0] * num_classes
            block_len = len(times)
            simple = self.overload is None and self._fault_cfg.queue_capacity is None
            if simple:
                # Tight loop, mirroring the fast engine's inlined drain
                # (keep in sync with fastpath.py / monitor.py): queue
                # dicts, ``mark_changed`` and the queue-length
                # integrator are hoisted into locals; arrival counters
                # accumulate per rank and write back once.  Folding is
                # inlined too — one method call per arrival would be the
                # dominant cost at 1e6 clients.
                entries = queue._entries
                catalog = queue._catalog
                mark_changed = queue.mark_changed
                push_open = self._push_open
                added = 0
                tw = metrics.queue_length
                area = tw._area
                last_t = tw._last_time
                level = tw._level
                peak = tw._max
                while nxt <= now:
                    item_id = items[i]
                    rank = ranks[i]
                    i += 1
                    if i == block_len:
                        times, items, ranks = src.next_block()
                        block_len = len(times)
                        i = 0
                    by_rank_total[rank] += 1
                    measured = nxt >= warmup
                    if measured:
                        by_rank_measured[rank] += 1
                    if item_id < cutoff:
                        group = push_open.get(item_id)
                        if group is None:
                            group = FoldedEntry.create(
                                catalog[item_id], num_classes, nxt
                            )
                            push_open[item_id] = group
                        group.num_requests += 1
                        group.total_priority += priorities[rank]
                        if measured:
                            group.counts[rank] += 1
                            group.sum_t[rank] += nxt
                            group.sum_t2[rank] += nxt * nxt
                            if nxt < group.min_t[rank]:
                                group.min_t[rank] = nxt
                            if nxt > group.max_t[rank]:
                                group.max_t[rank] = nxt
                        else:
                            group.unmeasured[rank] += 1
                    else:
                        entry = entries.get(item_id)
                        if entry is None:
                            entry = FoldedEntry.create(
                                catalog[item_id], num_classes, nxt
                            )
                            entries[item_id] = entry
                        entry.num_requests += 1
                        entry.total_priority += priorities[rank]
                        if measured:
                            entry.counts[rank] += 1
                            entry.sum_t[rank] += nxt
                            entry.sum_t2[rank] += nxt * nxt
                            if nxt < entry.min_t[rank]:
                                entry.min_t[rank] = nxt
                            if nxt > entry.max_t[rank]:
                                entry.max_t[rank] = nxt
                        else:
                            entry.unmeasured[rank] += 1
                        added += 1
                        mark_changed(item_id)
                        if nxt < last_t:
                            raise ValueError(f"time ran backwards: {nxt} < {last_t}")
                        area += level * (nxt - last_t)
                        last_t = nxt
                        level = float(len(entries))
                        if level > peak:
                            peak = level
                    nxt = times[i]
                tw._area = area
                tw._last_time = last_t
                tw._level = level
                tw._max = peak
                queue._total_requests += added
            else:
                while nxt <= now:
                    item_id = items[i]
                    rank = ranks[i]
                    i += 1
                    if i == block_len:
                        times, items, ranks = src.next_block()
                        block_len = len(times)
                        i = 0
                    by_rank_total[rank] += 1
                    measured = nxt >= warmup
                    if measured:
                        by_rank_measured[rank] += 1
                    if item_id < cutoff:
                        self._fold_push(item_id, rank, nxt, measured)
                    else:
                        self._admit_pull_folded(item_id, rank, nxt, measured, wake=False)
                    nxt = times[i]
            self._arr_times, self._arr_items, self._arr_ranks = times, items, ranks
            self._arr_idx = i
            self._arr_next = nxt
            for rank in range(num_classes):
                total = by_rank_total[rank]
                if total:
                    metrics.record_arrivals_folded(rank, by_rank_measured[rank], total)
        finally:
            self._draining = False

    def finalize(self, horizon: float) -> None:
        """Fold buffered arrivals up to ``horizon`` after the run stops."""
        if self._arr_next <= horizon:
            self._drain_arrivals(horizon)

    # -- client-facing interface ---------------------------------------------
    def submit(self, request: Request) -> None:
        """Fold one externally submitted request (testing/uplink surface)."""
        measured = request.time >= self.metrics.warmup
        rank = request.class_rank
        self.metrics.record_arrivals_folded(rank, int(measured), 1)
        if request.item_id < self.cutoff:
            self._fold_push(request.item_id, rank, request.time, measured)
        else:
            self._admit_pull_folded(
                request.item_id, rank, request.time, measured, wake=True
            )

    def renege(self, request: Request) -> bool:
        """Per-request withdrawal is impossible on folded state."""
        raise RuntimeError(
            "the population engine folds requests into counters; per-request "
            "renege needs engine='reference' or engine='fast'"
        )

    # -- folded admission ------------------------------------------------------
    def _fold_push(self, item_id: int, rank: int, t: float, measured: bool) -> None:
        group = self._push_open.get(item_id)
        if group is None:
            group = FoldedEntry.create(self.catalog[item_id], self._num_classes, t)
            self._push_open[item_id] = group
        group.fold(rank, t, self._class_priority[rank], measured)

    def _admit_pull_folded(
        self, item_id: int, rank: int, t: float, measured: bool, wake: bool
    ) -> None:
        """Fold one pull arrival through overload/capacity admission.

        Same pipeline as the reference server's ``_admit_pull``: the
        admission checks run only when the arrival would open a *new*
        entry; folding into an existing entry is always free.
        """
        queue = self.pull_queue
        entry = queue._entries.get(item_id)
        if entry is None:
            if self.overload is not None and not self.overload.admits(
                rank, len(queue)
            ):
                self.metrics.record_overload_rejected_folded(rank, int(measured), 1)
                return
            capacity = self._fault_cfg.queue_capacity
            if capacity is not None and len(queue) >= capacity:
                candidate = FoldedEntry.create(
                    self.catalog[item_id], self._num_classes, t
                )
                candidate.fold(rank, t, self._class_priority[rank], measured)
                victim = select_shed_victim(
                    self._fault_cfg.shedding_policy,
                    queue,
                    candidate,
                    self.pull_scheduler,
                    t,
                )
                if victim is None:
                    self.metrics.record_shed_folded(rank, int(measured), 1)
                    return
                self._record_shed_group(queue.pop(victim))
                self._insert_folded(candidate)
                self.metrics.record_queue_length(t, len(queue))
                if wake and self._sleeping:
                    self.env.schedule_call(0.0, self._on_wake)
                return
            entry = FoldedEntry.create(self.catalog[item_id], self._num_classes, t)
            queue._entries[item_id] = entry
        entry.fold(rank, t, self._class_priority[rank], measured)
        queue._total_requests += 1
        queue.mark_changed(item_id)
        self.metrics.record_queue_length(t, len(queue))
        if wake and self._sleeping:
            self.env.schedule_call(0.0, self._on_wake)

    def _insert_folded(self, entry: FoldedEntry) -> None:
        """Insert a whole folded group as the queue entry for its item."""
        queue = self.pull_queue
        queue._entries[entry.item_id] = entry
        queue._total_requests += entry.num_requests
        queue.mark_changed(entry.item_id)

    def _readmit_folded(self, group: FoldedEntry) -> None:
        """Re-queue a corrupted transmission's folded group (server ARQ)."""
        now = self.env.now
        queue = self.pull_queue
        existing = queue._entries.get(group.item_id)
        if existing is not None:
            existing.absorb(group)
            queue._total_requests += group.num_requests
            queue.mark_changed(group.item_id)
        else:
            if self.overload is not None and not self.overload.admits(
                group.lead_rank, len(queue)
            ):
                self._record_overload_group(group)
                return
            capacity = self._fault_cfg.queue_capacity
            if capacity is not None and len(queue) >= capacity:
                victim = select_shed_victim(
                    self._fault_cfg.shedding_policy,
                    queue,
                    group,
                    self.pull_scheduler,
                    now,
                )
                if victim is None:
                    self._record_shed_group(group)
                    return
                self._record_shed_group(queue.pop(victim))
            self._insert_folded(group)
        self.metrics.record_queue_length(now, len(queue))
        if self._sleeping:
            self.env.schedule_call(0.0, self._on_wake)

    def _record_shed_group(self, group: FoldedEntry) -> None:
        metrics = self.metrics
        for rank in range(self._num_classes):
            n = group.counts[rank]
            u = group.unmeasured[rank]
            if n or u:
                metrics.record_shed_folded(rank, n, n + u)

    def _record_overload_group(self, group: FoldedEntry) -> None:
        metrics = self.metrics
        for rank in range(self._num_classes):
            n = group.counts[rank]
            u = group.unmeasured[rank]
            if n or u:
                metrics.record_overload_rejected_folded(rank, n, n + u)

    def _record_blocked_group(self, group: FoldedEntry) -> None:
        metrics = self.metrics
        for rank in range(self._num_classes):
            n = group.counts[rank]
            u = group.unmeasured[rank]
            if n or u:
                metrics.record_blocked_folded(rank, n, n + u)

    # -- server cycle --------------------------------------------------------
    def _on_wake(self, _arg: object = None) -> None:
        if not self._sleeping:
            return
        self._sleeping = False
        self._advance()

    def _advance(self) -> None:
        """Run cycles until a timed transmission blocks or the queue drains."""
        while True:
            item_id = self.push_scheduler.next_item() if self.cutoff else None
            if item_id is not None:
                env = self.env
                now = env.now
                if self._arr_next <= now:
                    # Settle arrivals up to the broadcast start *before*
                    # sealing: only clients already waiting when the slot
                    # begins can decode it (they need its first byte), so
                    # the open group is split exactly at ``now`` — the
                    # folded equivalent of the reference's
                    # ``r.time <= started`` filter at decode time.
                    self._drain_arrivals(now)
                self._push_sealed = self._push_open.pop(item_id, None)
                env.schedule_call(
                    self.catalog[item_id].length,
                    self._on_push_done,
                    (item_id, now),
                )
                return
            if not self._pull_step(pushed=False):
                return

    def _on_push_done(self, payload: Any) -> None:
        """One push slot's air time elapsed: decode (or corrupt), continue."""
        item_id, _started = payload
        env = self.env
        if self._arr_next <= env.now:
            # Air-time arrivals fold into the fresh open group and wait
            # for the item's next cycle occurrence.
            self._drain_arrivals(env.now)
        sealed = self._push_sealed
        self._push_sealed = None
        if self.faults is not None and self.faults.downlink_lost():
            # Corrupted slot: air time spent, nobody decodes; the sealed
            # group returns to the open waiters for the next occurrence.
            self.metrics.record_corrupted_push()
            if sealed is not None:
                open_group = self._push_open.get(item_id)
                if open_group is None:
                    self._push_open[item_id] = sealed
                else:
                    open_group.absorb(sealed)
        else:
            self.metrics.record_push_broadcast()
            if sealed is not None:
                self.metrics.record_satisfied_folded(
                    env.now,
                    True,
                    sealed.counts,
                    sealed.sum_t,
                    sealed.sum_t2,
                    sealed.min_t,
                    sealed.max_t,
                    sealed.total_unmeasured,
                )
        if self._pull_step(pushed=True):
            self._advance()

    def _pull_step(self, pushed: bool) -> bool:
        """Serve or drop one pull entry; ``True`` → caller continues the cycle."""
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
                env.schedule_call(self._arr_next - now, self._on_wake)
            return False
        # PullQueue.pop + TimeWeighted.set, inlined (keep in sync with
        # monitor.py) — same per-service fast path as fastpath.py.
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
        rank = entry.lead_rank
        if not self.pool.try_acquire(rank, demand):
            # Admission failed: the item and its whole folded group are lost.
            self.metrics.record_pull_drop()
            self._record_blocked_group(entry)
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

    def _on_pull_done_serial(self, payload: Any) -> None:
        self._complete_pull(*payload)
        self._advance()

    def _on_pull_done(self, payload: Any) -> None:
        self._complete_pull(*payload)

    def _complete_pull(self, entry: FoldedEntry, rank: int, demand: float) -> None:
        """A pull transmission left the air: satisfy, or corrupt and re-queue."""
        self._in_flight_requests -= entry.num_requests
        env = self.env
        if self._arr_next <= env.now:
            self._drain_arrivals(env.now)
        if self.faults is not None and self.faults.downlink_lost():
            # Server-side ARQ: air time and bandwidth spent; the folded
            # group re-enters the queue (no deadlines in this engine).
            self.pull_tx_corrupted += 1
            self.active_pull_transmissions -= 1
            self.pool.release(rank, demand)
            self.metrics.record_corrupted_pull()
            self._readmit_folded(entry)
            return
        now = env.now
        self.metrics.record_satisfied_folded(
            now,
            False,
            entry.counts,
            entry.sum_t,
            entry.sum_t2,
            entry.min_t,
            entry.max_t,
            entry.total_unmeasured,
        )
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
        if self._push_sealed is not None:
            raise RuntimeError(
                "cannot move the push/pull split while a push slot is on air"
            )
        if self._arr_next <= self.env.now:
            self._drain_arrivals(self.env.now)
        self.cutoff = new_cutoff
        self.push_scheduler = push_scheduler
        for item_id in [e.item_id for e in self.pull_queue if e.item_id < new_cutoff]:
            entry = self.pull_queue.pop(item_id)
            open_group = self._push_open.get(item_id)
            if open_group is None:
                self._push_open[item_id] = entry
            else:
                open_group.absorb(entry)
        for item_id in [i for i in self._push_open if i >= new_cutoff]:
            self._readmit_folded(self._push_open.pop(item_id))
        self.metrics.record_queue_length(self.env.now, len(self.pull_queue))

    def reconfigure_alpha(self, new_alpha: float) -> None:
        """Retune the Eq. 1 importance weight α at runtime (control plane).

        Buffered folded arrivals settle under the *old* α first
        (mirroring :meth:`reconfigure_cutoff`), then the scheduler is
        retuned and the queue's heap index rebuilt so no stale score
        survives.
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
        """Requests currently parked waiting for a push broadcast.

        Includes the sealed group of an on-air slot — its waiters are
        still parked until the slot decodes.
        """
        parked = sum(g.num_requests for g in self._push_open.values())
        if self._push_sealed is not None:
            parked += self._push_sealed.num_requests
        return parked

    @property
    def pending_pull_requests(self) -> int:
        """Requests currently queued in the pull system."""
        return self.pull_queue.total_requests

    @property
    def in_flight_pull_requests(self) -> int:
        """Requests riding on pull transmissions currently on air."""
        return self._in_flight_requests
