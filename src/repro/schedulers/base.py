"""Scheduler interfaces shared by the paper's policy and all baselines.

Two independent axes, mirroring the hybrid architecture:

* :class:`PushScheduler` — decides the next item to *broadcast* from the
  push set, with no knowledge of pending requests.
* :class:`PullScheduler` — decides which entry of the pull queue to serve
  next, given full queue state.

The pull queue itself (:class:`PullQueue`) is a small aggregation
structure: one :class:`PendingEntry` per distinct requested item, carrying
the statistics every policy in the literature needs (``R_i``, ``Q_i``,
oldest arrival, item length).

For schedulers whose scores depend only on entry state (not on the clock
and not on cross-entry normalisation — flagged ``incremental = True``),
the queue additionally maintains a *lazy max-heap index* keyed on
``(score, -item_id)``: a mutation only records its item id as changed,
and each selection re-scores every changed entry once and pushes one
record for it.  Superseded records are skipped when they surface, and
the heap is compacted to its live records whenever stale ones outnumber
them, so it stays O(live entries).  :meth:`PullScheduler.select` then
answers without rescanning the whole queue.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..workload.arrivals import Request
from ..workload.items import ItemCatalog

__all__ = ["PendingEntry", "PullQueue", "PullScheduler", "PushScheduler"]

#: Stale heap records tolerated beyond the live ones before a selection
#: compacts the heap: it holds at most ``2·len(queue) + HEAP_SLACK``
#: records after every :meth:`PullQueue.peek_best`.
HEAP_SLACK = 16


@dataclass(slots=True)
class PendingEntry:
    """Aggregated pull-queue state for one distinct item.

    Attributes
    ----------
    item_id:
        The requested item.
    length:
        Item length ``L_i`` (broadcast units).
    probability:
        Item access probability ``P_i``.
    first_arrival:
        Arrival time of the oldest pending request (for FCFS / RxW).
    num_requests:
        ``R_i`` — number of pending requests for this item.
    total_priority:
        ``Q_i = Σ_j q_j`` over all pending requesters.
    requests:
        The pending request objects (needed for per-class delay metrics).
    """

    item_id: int
    length: float
    probability: float
    first_arrival: float
    num_requests: int = 0
    total_priority: float = 0.0
    requests: list[Request] = field(default_factory=list)

    def add(self, request: Request) -> None:
        """Fold one more pending request into the entry."""
        if request.item_id != self.item_id:
            raise ValueError(
                f"request for item {request.item_id} added to entry of item {self.item_id}"
            )
        self.num_requests += 1
        self.total_priority += request.priority
        if request.time < self.first_arrival:
            self.first_arrival = request.time
        self.requests.append(request)

    def remove(self, request: Request) -> None:
        """Withdraw one pending request (client reneged).

        Matches by object identity so equal-valued requests (e.g. a
        retried request object) cannot evict each other.
        """
        for index, pending in enumerate(self.requests):
            if pending is request:
                del self.requests[index]
                break
        else:
            raise ValueError(
                f"request for item {request.item_id} not pending in this entry"
            )
        self.num_requests -= 1
        self.total_priority -= request.priority
        if self.requests:
            self.first_arrival = min(r.time for r in self.requests)

    @property
    def lead_rank(self) -> int:
        """Most important class rank among the requesters (the pool charged)."""
        requests = self.requests
        rank = requests[0].class_rank
        for request in requests:
            if request.class_rank < rank:
                rank = request.class_rank
        return rank

    @property
    def stretch(self) -> float:
        """The paper's stretch value ``S_i = R_i / L_i²`` (§4.2).

        The max-request min-service-time criterion: many pending requests
        and a short item both increase urgency.
        """
        return self.num_requests / (self.length * self.length)

    def waiting_time(self, now: float) -> float:
        """Age of the oldest pending request (the ``W`` of RxW)."""
        return now - self.first_arrival


class PullQueue:
    """The server's pull queue: one :class:`PendingEntry` per distinct item.

    Requests for an item already queued fold into the existing entry (the
    eventual single broadcast satisfies all of them).

    An incremental scheduler (see :class:`PullScheduler.incremental`) can
    be attached via :meth:`attach_scorer`; the queue then keeps a lazy
    max-heap over ``(score, -item_id)`` so :meth:`peek_best` answers
    without a full scan, re-scored once per selection and compacted to
    O(live entries).  Every mutation records its item id through
    :attr:`mark_changed`, which code changing an entry in place (an
    engine folding arrivals without :meth:`add`) must call too; removing
    an entry needs no index work.
    """

    def __init__(self, catalog: ItemCatalog) -> None:
        self._catalog = catalog
        self._entries: dict[int, PendingEntry] = {}
        self._total_requests = 0
        # Lazy max-heap index; populated only once a scorer is attached.
        self._scheduler: Optional["PullScheduler"] = None
        self._score: Optional[Callable[[PendingEntry, float], float]] = None
        # (-score, item_id) records, and each item's newest record: a
        # record is live while its item is queued and it is the newest.
        self._heap: list[tuple[float, int]] = []
        self._newest: dict[int, tuple[float, int]] = {}
        # Items mutated since the last selection.  The set lives as long
        # as the queue, so hot loops may hoist the bound ``add``.
        self._changed: set[int] = set()
        self.mark_changed: Callable[[int], None] = self._changed.add

    # -- heap index --------------------------------------------------------------
    def attach_scorer(self, scheduler: "PullScheduler") -> None:
        """Maintain a max-score heap for ``scheduler`` from now on.

        Only valid for schedulers whose score is a pure function of entry
        state (``scheduler.incremental``); time-dependent policies would
        read stale scores from the heap.  Every queued entry counts as
        changed, so the next selection scores each one once.
        """
        if not scheduler.incremental:
            raise ValueError(
                f"scheduler {scheduler.name!r} is not incremental; its scores "
                "change outside queue mutations and cannot be heap-indexed"
            )
        self._scheduler = scheduler
        self._score = scheduler.score
        self._heap = []
        self._newest = {}
        self._changed.update(self._entries)

    def detach_scorer(self) -> None:
        """Drop the heap index; selection falls back to the linear scan."""
        self._scheduler = None
        self._score = None
        self._heap = []
        self._newest = {}
        self._changed.clear()

    def indexed_for(self, scheduler: "PullScheduler") -> bool:
        """Whether the heap index is maintained for exactly ``scheduler``."""
        return self._scheduler is scheduler

    def peek_best(self) -> Optional[PendingEntry]:
        """The max-score entry per the attached scorer, or ``None`` if empty.

        Re-scores each entry changed since the last call once and pushes
        one record for it, rebuilds the heap from the queued entries'
        newest records when it holds more than ``2·len(queue) +
        HEAP_SLACK``, then pops stale records until a live one surfaces.
        That record stays on the heap so repeated peeks are O(1).
        """
        score = self._score
        if score is None:
            raise RuntimeError("peek_best needs a scorer; see attach_scorer")
        entries = self._entries
        newest = self._newest
        heap = self._heap
        changed = self._changed
        for item_id in changed:
            entry = entries.get(item_id)
            if entry is not None:
                # min-heap on (-score, item_id): max score first, smaller
                # item id winning ties — the same key order as the scan.
                record = newest[item_id] = (-score(entry, 0.0), item_id)
                heapq.heappush(heap, record)
        changed.clear()
        if len(heap) > 2 * len(entries) + HEAP_SLACK:
            heap = self._heap = [newest[item_id] for item_id in entries]
            heapq.heapify(heap)
        while heap:
            record = heap[0]
            entry = entries.get(record[1])
            if entry is not None and newest[record[1]] is record:
                return entry
            heapq.heappop(heap)
        return None

    # -- mutations ---------------------------------------------------------------
    def add(self, request: Request) -> PendingEntry:
        """Insert ``request``, creating or updating its item's entry.

        The body of :meth:`PendingEntry.add` is inlined — this runs once
        per arrival on the hot path, and the entry lookup by
        ``request.item_id`` already guarantees the cross-item guard that
        method carries cannot fire here.
        """
        item_id = request.item_id
        entry = self._entries.get(item_id)
        if entry is None:
            item = self._catalog[item_id]
            entry = PendingEntry(
                item_id=item.item_id,
                length=item.length,
                probability=item.probability,
                first_arrival=request.time,
            )
            self._entries[item_id] = entry
        entry.num_requests += 1
        entry.total_priority += request.priority
        if request.time < entry.first_arrival:
            entry.first_arrival = request.time
        entry.requests.append(request)
        self._total_requests += 1
        self.mark_changed(item_id)
        return entry

    def pop(self, item_id: int) -> PendingEntry:
        """Remove and return the entry for ``item_id`` (service completed)."""
        entry = self._entries.pop(item_id)
        self._total_requests -= entry.num_requests
        return entry

    def reinsert(self, entry: PendingEntry) -> PendingEntry:
        """Return a previously popped entry to the queue (preemptive resume).

        If newer requests opened a fresh entry for the same item while
        ``entry`` was in service, the pending requests merge into it and
        the shorter remaining length wins (the receivers keep the bytes
        already transmitted).  Returns the entry now queued for the item.
        """
        existing = self._entries.get(entry.item_id)
        if existing is None:
            self._entries[entry.item_id] = entry
            queued = entry
        else:
            for request in entry.requests:
                existing.add(request)
            existing.length = min(existing.length, entry.length)
            queued = existing
        self._total_requests += entry.num_requests
        self.mark_changed(entry.item_id)
        return queued

    def remove_request(self, request: Request) -> bool:
        """Withdraw one queued request (client reneged).

        Returns ``True`` when the request was found (its entry dissolves
        if it was the last pending requester), ``False`` when the item is
        not queued or the request is not among its requesters (already
        served, in flight, or never queued).
        """
        entry = self._entries.get(request.item_id)
        if entry is None or not any(pending is request for pending in entry.requests):
            return False
        entry.remove(request)
        self._total_requests -= 1
        if entry.num_requests == 0:
            del self._entries[request.item_id]
        self.mark_changed(request.item_id)
        return True

    def make_entry(self, request: Request) -> PendingEntry:
        """Build a transient (un-inserted) entry for ``request``.

        Used by shedding policies to score an incoming request against
        queued entries without mutating the queue.
        """
        item = self._catalog[request.item_id]
        entry = PendingEntry(
            item_id=item.item_id,
            length=item.length,
            probability=item.probability,
            first_arrival=request.time,
        )
        entry.add(request)
        return entry

    def peek(self, item_id: int) -> Optional[PendingEntry]:
        """The entry for ``item_id`` or ``None``."""
        return self._entries.get(item_id)

    def __len__(self) -> int:
        """Number of *distinct items* queued."""
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[PendingEntry]:
        return iter(self._entries.values())

    @property
    def total_requests(self) -> int:
        """Total pending requests across all entries (``Σ R_i``), O(1)."""
        return self._total_requests


class PullScheduler(abc.ABC):
    """Strategy deciding which pull-queue entry to serve next."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: ``True`` when :meth:`score` is a pure function of entry state —
    #: independent of ``now`` and of the other queued entries — so the
    #: score of an entry only changes when the queue mutates it.  Such
    #: schedulers can be served from the queue's lazy max-heap index
    #: (:meth:`PullQueue.attach_scorer`) instead of a full scan.
    incremental: bool = False

    @abc.abstractmethod
    def score(self, entry: PendingEntry, now: float) -> float:
        """Urgency score of ``entry`` at time ``now`` — larger wins."""

    def select(self, queue: PullQueue, now: float) -> Optional[PendingEntry]:
        """The queue entry with the maximal score, or ``None`` if empty.

        Ties break deterministically toward the smaller item id.  When the
        queue maintains a heap index for this scheduler the answer comes
        from the index (:meth:`PullQueue.peek_best`); otherwise a linear
        scan.
        """
        if queue.indexed_for(self):
            return queue.peek_best()
        best: Optional[PendingEntry] = None
        best_key: tuple[float, int] | None = None
        for entry in queue:
            key = (self.score(entry, now), -entry.item_id)
            if best_key is None or key > best_key:
                best, best_key = entry, key
        return best

    def observe_service(self, entry: PendingEntry, now: float) -> None:
        """Hook called after ``entry`` is served (for adaptive policies)."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<{type(self).__name__} ({self.name})>"


class PushScheduler(abc.ABC):
    """Strategy producing the broadcast order of the push set.

    A push scheduler is created for a specific ``(catalog, cutoff)`` pair
    and then queried item-by-item via :meth:`next_item`.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, catalog: ItemCatalog, cutoff: int) -> None:
        if not 0 <= cutoff <= len(catalog):
            raise ValueError(f"cutoff {cutoff} outside [0, {len(catalog)}]")
        self.catalog = catalog
        self.cutoff = cutoff

    @abc.abstractmethod
    def next_item(self) -> Optional[int]:
        """Id of the next item to broadcast, or ``None`` if the push set is empty."""

    def schedule_prefix(self, n: int) -> list[int]:
        """The first ``n`` broadcast slots (diagnostic/testing helper)."""
        return [item for item in (self.next_item() for _ in range(n)) if item is not None]
