"""Heap-indexed vs linear-scan selection equivalence.

Two mirrored queues receive an identical operation sequence; one is
heap-indexed (when the policy allows it), the other always scans.  The
sequence interleaves mutations (adds, reneges, pops, preemptive
reinserts with a shortened length, re-attaching the scorer) with
selections, so several mutations — including pop-then-re-add of one item
— can land between two selections.  At every selection both schedulers
must pick the identical entry — including the smaller-item-id tie-break
— for every registered pull scheduler, and the heap must hold at most
``2·len(queue) + HEAP_SLACK`` records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers import PullQueue, make_pull_scheduler, pull_scheduler_names
from repro.schedulers.base import HEAP_SLACK, PendingEntry
from repro.workload import ItemCatalog, Request

NUM_ITEMS = 10

#: Relative frequency of each op-code.  Re-attaching the scorer rebuilds
#: the heap, so it stays rare enough for stale records to pile up.
OP_WEIGHTS = {"add": 40, "remove": 10, "pop": 10, "reinsert": 10, "select": 20, "attach": 2}

#: (op-code, item selector, priority) triples; the selector is reduced
#: modulo the applicable population at replay time.  The minimum length
#: keeps sequences long enough to outgrow the heap's slack.
mutation_sequences = st.lists(
    st.tuples(
        st.sampled_from([op for op, weight in OP_WEIGHTS.items() for _ in range(weight)]),
        st.integers(min_value=0, max_value=NUM_ITEMS - 1),
        st.sampled_from([1.0, 2.0, 3.0]),
    ),
    min_size=40,
    max_size=150,
)


def _catalog(constant_length: bool = False) -> ItemCatalog:
    if constant_length:
        return ItemCatalog(
            lengths=[2.0] * NUM_ITEMS, probabilities=[1.0 / NUM_ITEMS] * NUM_ITEMS
        )
    return ItemCatalog.generate(num_items=NUM_ITEMS, theta=0.6)


class _MirroredQueues:
    """Two queues kept identical; one may carry the heap index."""

    def __init__(self, scheduler_name: str, alpha: float, constant_length: bool = False):
        catalog = _catalog(constant_length)
        self.indexed = PullQueue(catalog)
        self.scanned = PullQueue(catalog)
        # Independent scheduler instances so stateful policies (EMA in
        # importance-expected) evolve identically on both sides.
        self.indexed_sched = make_pull_scheduler(scheduler_name, alpha=alpha)
        self.scanned_sched = make_pull_scheduler(scheduler_name, alpha=alpha)
        if self.indexed_sched.incremental:
            self.indexed.attach_scorer(self.indexed_sched)
        self.live: list[tuple[Request, Request]] = []
        # Popped entry pairs "in service", which ``reinsert`` may return.
        self.held: list[tuple[PendingEntry, PendingEntry]] = []
        self.clock = 0.0

    def apply(self, op: str, selector: int, priority: float) -> None:
        self.clock += 1.0
        if op == "add":
            item_id = selector
            pair = tuple(
                Request(
                    time=self.clock,
                    item_id=item_id,
                    client_id=0,
                    class_rank=0,
                    priority=priority,
                )
                for _ in range(2)
            )
            self.indexed.add(pair[0])
            self.scanned.add(pair[1])
            self.live.append(pair)
        elif op == "remove" and self.live:
            a, b = self.live.pop(selector % len(self.live))
            assert self.indexed.remove_request(a) == self.scanned.remove_request(b)
        elif op == "pop" and self.indexed:
            items = sorted(e.item_id for e in self.indexed)
            victim = items[selector % len(items)]
            popped_a = self.indexed.pop(victim)
            popped_b = self.scanned.pop(victim)
            assert popped_a.num_requests == popped_b.num_requests
            self.held.append((popped_a, popped_b))
            gone = {id(r) for r in popped_a.requests} | {
                id(r) for r in popped_b.requests
            }
            self.live = [
                (a, b) for a, b in self.live if id(a) not in gone and id(b) not in gone
            ]
        elif op == "reinsert" and self.held:
            # Preemptive resume: part of the item was transmitted, and
            # newer requests may have opened a fresh entry meanwhile.
            popped_a, popped_b = self.held.pop(selector % len(self.held))
            for entry, queue in ((popped_a, self.indexed), (popped_b, self.scanned)):
                entry.length *= 0.5
                queue.reinsert(entry)
            self.live.extend(zip(popped_a.requests, popped_b.requests))
        elif op == "attach" and self.indexed_sched.incremental:
            self.indexed.attach_scorer(self.indexed_sched)
        elif op == "select":
            self.assert_selections_agree()

    def assert_selections_agree(self) -> None:
        now = self.clock + 1.0
        chosen_a = self.indexed_sched.select(self.indexed, now)
        chosen_b = self.scanned_sched.select(self.scanned, now)
        if chosen_a is None or chosen_b is None:
            assert chosen_a is None and chosen_b is None
            assert len(self.indexed) == 0
        else:
            assert chosen_a.item_id == chosen_b.item_id
        assert len(self.indexed._heap) <= 2 * len(self.indexed) + HEAP_SLACK
        assert self.indexed.total_requests == self.scanned.total_requests
        assert self.indexed.total_requests == sum(
            e.num_requests for e in self.indexed
        )


class TestHeapScanEquivalence:
    @given(ops=mutation_sequences, name=st.sampled_from(pull_scheduler_names()))
    @settings(max_examples=80)
    def test_every_scheduler_agrees_under_mutation(self, ops, name):
        queues = _MirroredQueues(name, alpha=0.5)
        for op, selector, priority in ops:
            queues.apply(op, selector, priority)
        queues.assert_selections_agree()

    @given(ops=mutation_sequences)
    @settings(max_examples=40)
    def test_tie_break_prefers_smaller_item_id(self, ops):
        # Constant lengths and equal priorities force wide score ties; the
        # heap must resolve them exactly like the scan: smaller id wins.
        queues = _MirroredQueues("stretch", alpha=1.0, constant_length=True)
        sched = queues.indexed_sched
        for op, selector, _ in [*ops, ("select", 0, 1.0)]:
            queues.apply(op, selector, 1.0)
            if op != "select":
                continue
            chosen = sched.select(queues.indexed, queues.clock)
            if chosen is not None:
                best = sched.score(chosen, queues.clock)
                tied = [
                    e.item_id
                    for e in queues.indexed
                    if sched.score(e, queues.clock) == best
                ]
                assert chosen.item_id == min(tied)

    @pytest.mark.parametrize("name", pull_scheduler_names())
    def test_incremental_flags_match_issue_contract(self, name):
        sched = make_pull_scheduler(name, alpha=0.5)
        expected = name in ("importance", "priority", "fcfs", "stretch")
        assert sched.incremental is expected

    def test_attach_rejects_non_incremental(self):
        queue = PullQueue(_catalog())
        with pytest.raises(ValueError, match="not incremental"):
            queue.attach_scorer(make_pull_scheduler("rxw"))

    def test_reindex_after_reinsert(self):
        # A reinserted (preempted) entry with shortened length must be
        # re-scored, or the heap would serve a stale stretch value.
        queue = PullQueue(_catalog(constant_length=True))
        sched = make_pull_scheduler("stretch")
        queue.attach_scorer(sched)
        rng = np.random.default_rng(3)
        for item in (1, 4, 7):
            for _ in range(int(rng.integers(1, 4))):
                queue.add(
                    Request(time=0.0, item_id=item, client_id=0, class_rank=0, priority=1.0)
                )
        entry = queue.pop(4)
        entry.length = 0.25  # preemptive resume: mostly transmitted
        queue.reinsert(entry)
        chosen = sched.select(queue, now=1.0)
        assert chosen.item_id == 4  # tiny remaining length dominates stretch
