"""Counter-folded pending state for the population-aggregated engine.

A :class:`FoldedEntry` is a drop-in :class:`~repro.schedulers.base.PendingEntry`
whose pending requests are *summarised* instead of stored: per service
class it carries the waiting count and the arrival-time moments
``(Σt, Σt², min t, max t)`` — exactly the state needed to reconstruct the
delay statistics of the whole group at service time ``now``:

    Σ delay  = n·now − Σt
    Σ delay² = n·now² − 2·now·Σt + Σt²
    min delay = now − max t,   max delay = now − min t

``num_requests``, ``total_priority`` and ``first_arrival`` are maintained
identically to the reference entry, so every registered pull scheduler
(Eq. 1 importance, stretch, RxW, FCFS, ...) scores a folded entry exactly
as it would the unfolded one.  ``requests`` stays empty by construction —
the population engine never touches it.

Warm-up requests fold into a separate per-class count (``unmeasured``):
they advance queue state and the conservation ledger but contribute no
moments, mirroring the reference collector's warm-up window.

:class:`FoldedStore` is the population engine's pending store behind
:class:`~repro.sim.policy.PolicyKernel`: pull entries, push waiters and
every admitted group are folded entries, and its drain loop folds the
struct-of-arrays blocks of
:class:`~repro.workload.population.PopulationArrivals` without creating
a ``Request`` (unless a bounded queue, overload control or an observer
needs one per arrival).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..schedulers.base import PendingEntry
from ..workload.arrivals import Request
from ..workload.items import Item
from ..workload.population import AGGREGATE_CLIENT, PopulationArrivals

if TYPE_CHECKING:
    from ..sim.policy import PolicyKernel

__all__ = ["FoldedEntry", "FoldedStore"]


@dataclass(slots=True)
class FoldedEntry(PendingEntry):
    """Pending entry carrying per-class counts and moments, not requests.

    All list attributes are rank-indexed (index 0 = most important
    class).  ``counts`` holds measured (post-warm-up) requests only;
    ``unmeasured`` holds warm-up requests, which have no moments.
    """

    counts: list[int] = field(default_factory=list)
    sum_t: list[float] = field(default_factory=list)
    sum_t2: list[float] = field(default_factory=list)
    min_t: list[float] = field(default_factory=list)
    max_t: list[float] = field(default_factory=list)
    unmeasured: list[int] = field(default_factory=list)

    @classmethod
    def create(cls, item: Item, num_classes: int, first_arrival: float) -> "FoldedEntry":
        """An empty folded entry for ``item`` (fold arrivals in afterwards)."""
        return cls(
            item_id=item.item_id,
            length=item.length,
            probability=item.probability,
            first_arrival=first_arrival,
            counts=[0] * num_classes,
            sum_t=[0.0] * num_classes,
            sum_t2=[0.0] * num_classes,
            min_t=[math.inf] * num_classes,
            max_t=[-math.inf] * num_classes,
            unmeasured=[0] * num_classes,
        )

    def fold(self, rank: int, t: float, priority: float, measured: bool) -> None:
        """Fold one class-``rank`` arrival at time ``t`` into the group."""
        self.num_requests += 1
        self.total_priority += priority
        if t < self.first_arrival:
            self.first_arrival = t
        if measured:
            self.counts[rank] += 1
            self.sum_t[rank] += t
            self.sum_t2[rank] += t * t
            if t < self.min_t[rank]:
                self.min_t[rank] = t
            if t > self.max_t[rank]:
                self.max_t[rank] = t
        else:
            self.unmeasured[rank] += 1

    def absorb(self, other: "FoldedEntry") -> None:
        """Merge another folded group (same item) into this one.

        Used when a corrupted pull transmission re-queues its group while
        newer arrivals already opened a fresh entry, and when a corrupted
        push slot returns its sealed group to the open waiters.
        """
        self.num_requests += other.num_requests
        self.total_priority += other.total_priority
        if other.first_arrival < self.first_arrival:
            self.first_arrival = other.first_arrival
        counts, sum_t, sum_t2 = self.counts, self.sum_t, self.sum_t2
        min_t, max_t, unmeasured = self.min_t, self.max_t, self.unmeasured
        for rank in range(len(counts)):
            counts[rank] += other.counts[rank]
            sum_t[rank] += other.sum_t[rank]
            sum_t2[rank] += other.sum_t2[rank]
            if other.min_t[rank] < min_t[rank]:
                min_t[rank] = other.min_t[rank]
            if other.max_t[rank] > max_t[rank]:
                max_t[rank] = other.max_t[rank]
            unmeasured[rank] += other.unmeasured[rank]

    @property
    def lead_rank(self) -> int:
        """Most important class with a waiting request (pool charging rank).

        Matches the reference server's ``min(class_rank over requests)``.
        """
        for rank in range(len(self.counts)):
            if self.counts[rank] or self.unmeasured[rank]:
                return rank
        raise ValueError(f"folded entry for item {self.item_id} is empty")

    @property
    def total_unmeasured(self) -> int:
        """Warm-up requests folded into the group (conservation only)."""
        return sum(self.unmeasured)


class FoldedStore:
    """Pending store of folded groups: the population engine's seam.

    A submitted request folds into a one-request group; a corrupted
    transmission or a migration re-admits its whole group, which the
    admission gates charge to its lead class.  Push waiters fold into
    one open group per item.  When an item's slot goes on air its open
    group is *sealed*: it holds every waiter whose request was generated
    by the slot's start — including late-delivered ones that arrive
    during the slot — and is satisfied when the slot decodes.  (A group
    that moved to the pull set and back during one slot reopens and
    waits for the next occurrence.)
    """

    def __init__(self, kernel: "PolicyKernel") -> None:
        config = kernel.config
        if config.faults.client_recovery:
            raise ValueError(
                "the population engine folds requests into counters and cannot "
                "track per-request retries or deadlines; client-recovery faults "
                "(uplink_loss > 0 or class_deadlines) need engine='reference' "
                "or engine='fast'"
            )
        metrics = kernel.metrics
        if metrics.qos_recorder is not None:
            raise ValueError(
                "the population engine cannot record per-request QoS samples; "
                "run with record_qos=False or another engine"
            )
        self.kernel = kernel
        self.metrics = metrics
        self.queue = kernel.pull_queue
        self.catalog = kernel.catalog
        self.priorities = [float(q) for q in metrics.class_priorities]
        self.num_classes = len(self.priorities)
        #: Folded push waiters per item, still accepting arrivals.
        self.open: dict[int, FoldedEntry] = {}
        #: The waiters the slot on air will reach: at most the group of
        #: item ``on_air`` (``-1``: none), whose slot began at
        #: ``on_air_started`` — pushes are serial.
        self.sealed: dict[int, FoldedEntry] = {}
        self.on_air = -1
        self.on_air_started = 0.0
        # Buffered aggregated arrivals (struct-of-arrays blocks).
        self._source: Optional[PopulationArrivals] = None
        self._times: list[float] = []
        self._items: list[int] = []
        self._ranks: list[int] = []
        self._index = 0
        self.next_arrival = math.inf
        self._draining = False

    # -- arrivals ----------------------------------------------------------------
    def attach(self, arrivals: PopulationArrivals) -> None:
        """Drain ``arrivals`` blocks in-line, as ``RequestStore.attach`` does."""
        self._source = arrivals
        self._times, self._items, self._ranks = arrivals.next_block()
        self._index = 0
        self.next_arrival = self._times[0]

    def drain(self, now: float) -> None:
        """Fold every buffered arrival with timestamp ``<= now``."""
        if self._draining:
            return
        nxt = self.next_arrival
        if nxt > now:
            return
        kernel = self.kernel
        self._draining = True
        try:
            times = self._times
            items = self._items
            ranks = self._ranks
            i = self._index
            src = self._source
            block_len = len(times)
            if not kernel._gated and not kernel.observers:
                # Tight loop, mirroring the per-request store's inlined
                # drain (keep in sync with policy.py / monitor.py): queue
                # dicts, ``mark_changed`` and the queue-length integrator
                # are hoisted into locals; arrival counters accumulate per
                # rank and write back once.  Folding is inlined too — one
                # method call per arrival would be the dominant cost at
                # 1e6 clients.
                metrics = self.metrics
                warmup = metrics.warmup
                catalog = self.catalog
                cutoff = kernel.cutoff
                priorities = self.priorities
                num_classes = self.num_classes
                push_open = self.open
                by_rank_measured = [0] * num_classes
                by_rank_total = [0] * num_classes
                queue = self.queue
                entries = queue._entries
                mark_changed = queue.mark_changed
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
                            group = FoldedEntry.create(catalog[item_id], num_classes, nxt)
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
                            entry = FoldedEntry.create(catalog[item_id], num_classes, nxt)
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
                for rank in range(num_classes):
                    total = by_rank_total[rank]
                    if total:
                        metrics.record_arrivals_folded(rank, by_rank_measured[rank], total)
            else:
                priorities = self.priorities
                while nxt <= now:
                    rank = ranks[i]
                    request = Request(
                        time=nxt,
                        item_id=items[i],
                        client_id=AGGREGATE_CLIENT,
                        class_rank=rank,
                        priority=priorities[rank],
                    )
                    i += 1
                    if i == block_len:
                        times, items, ranks = src.next_block()
                        block_len = len(times)
                        i = 0
                    kernel._arrive(request, nxt)
                    nxt = times[i]
            self._times, self._items, self._ranks = times, items, ranks
            self._index = i
            self.next_arrival = nxt
        finally:
            self._draining = False

    def record_arrival(self, request: Request) -> None:
        """Count one submitted request."""
        self.metrics.record_arrivals_folded(
            request.class_rank, int(request.time >= self.metrics.warmup), 1
        )

    def group(self, request: Request) -> FoldedEntry:
        """A one-request group holding ``request`` (folded at its own time)."""
        return self._fold({}, request)

    def _fold(self, groups: dict[int, FoldedEntry], request: Request) -> FoldedEntry:
        """Fold ``request`` into its item's group in ``groups`` (created if absent)."""
        item_id = request.item_id
        t = request.time
        group = groups.get(item_id)
        if group is None:
            group = groups[item_id] = FoldedEntry.create(
                self.catalog[item_id], self.num_classes, t
            )
        rank = request.class_rank
        group.fold(rank, t, self.priorities[rank], t >= self.metrics.warmup)
        return group

    # -- push waiters ------------------------------------------------------------
    def park(self, request: Request) -> None:
        """Fold a push-item request into its item's waiters.

        A request generated by the start of its item's slot on air joins
        the sealed group (the slot reaches it); any other joins the open
        group for the next occurrence.
        """
        reached = request.item_id == self.on_air and request.time <= self.on_air_started
        self._fold(self.sealed if reached else self.open, request)

    def start_push(self, item_id: int, now: float) -> None:
        """Seal the waiters a slot starting at ``now`` will reach.

        Arrivals up to ``now`` settle first, so the open group splits
        exactly at the slot start — the folded form of the per-request
        store's ``time <= started`` filter at decode.
        """
        if self.next_arrival <= now:
            self.drain(now)
        group = self.open.pop(item_id, None)
        self.sealed = {} if group is None else {item_id: group}
        self.on_air = item_id
        self.on_air_started = now

    def decode(self, item_id: int, started: float, now: float, corrupted: bool) -> tuple:
        """Satisfy the sealed group, or return it to the open waiters."""
        sealed = self.sealed.pop(item_id, None)
        self.on_air = -1
        if sealed is not None:
            if corrupted:
                self.park_entry(sealed)
            else:
                self.satisfy(sealed, now, via_push=True)
        return ()

    def park_entry(self, entry: FoldedEntry) -> None:
        """Fold a whole group into its item's open waiters."""
        open_group = self.open.get(entry.item_id)
        if open_group is None:
            self.open[entry.item_id] = entry
        else:
            open_group.absorb(entry)

    def unpark_from(self, cutoff: int) -> list[FoldedEntry]:
        """Remove and return the waiter groups of every item ``>= cutoff``.

        The sealed group of a slot on air goes too: its item is no longer
        pushed, so the slot satisfies nobody when it decodes.
        """
        if self.on_air >= cutoff:
            self.on_air = -1
        return [
            groups.pop(item_id)
            for groups in (self.sealed, self.open)
            for item_id in [i for i in groups if i >= cutoff]
        ]

    @property
    def parked(self) -> int:
        """Requests parked for a push broadcast, the sealed group included."""
        return sum(
            g.num_requests for groups in (self.sealed, self.open) for g in groups.values()
        )

    def withdraw(self, request: Request, pulled: bool) -> bool:
        """Per-request withdrawal is impossible on folded state."""
        raise RuntimeError(
            "the population engine folds requests into counters; per-request "
            "renege needs engine='reference' or engine='fast'"
        )

    # -- pull groups -------------------------------------------------------------
    @staticmethod
    def candidate(group: FoldedEntry) -> FoldedEntry:
        """The entry ``group`` would open: itself."""
        return group

    def enqueue(self, group: FoldedEntry) -> None:
        """Insert ``group`` as its item's entry, or merge it into the queued one."""
        queue = self.queue
        item_id = group.item_id
        existing = queue._entries.get(item_id)
        if existing is None:
            queue._entries[item_id] = group
        else:
            existing.absorb(group)
        queue._total_requests += group.num_requests
        queue.mark_changed(item_id)

    def satisfy(self, entry: FoldedEntry, now: float, via_push: bool = False) -> None:
        """Record a transmission's whole group as satisfied at ``now``."""
        self.metrics.record_satisfied_folded(
            now,
            via_push,
            entry.counts,
            entry.sum_t,
            entry.sum_t2,
            entry.min_t,
            entry.max_t,
            entry.total_unmeasured,
        )

    def readmit(self, entry: FoldedEntry, now: float) -> bool:
        """Re-queue a corrupted transmission's group (no deadlines here)."""
        return self.kernel._admit_pull(entry, now)

    def lose(self, group: FoldedEntry, outcome: str, now: float) -> None:
        """Record a terminal ``outcome`` (shed, blocked, ...) for a whole group."""
        record = getattr(self.metrics, f"record_{outcome}_folded")
        for rank in range(self.num_classes):
            n = group.counts[rank]
            u = group.unmeasured[rank]
            if n or u:
                record(rank, n, n + u)

    lose_entry = lose
