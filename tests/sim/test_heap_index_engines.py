"""The pull queue's heap index, pinned on whole engine runs.

A short run of the fast and of the population engine must produce a
result bit-identical to the same run on the linear scan
(``detach_scorer``), score each entry at most once per selection, and
leave the heap O(live entries).
"""

import pytest

from repro.experiments.n_ladder import ladder_config
from repro.perf.benches import single_run_config
from repro.schedulers import ImportanceFactorScheduler
from repro.schedulers.base import HEAP_SLACK
from repro.sim import HybridSystem

from .test_golden_equivalence import _fingerprint

SEED = 3

RUNS = {
    "population": (ladder_config(10_000), 20.0),
    "fast": (single_run_config(quick=True)[0], 2_000.0),
}


@pytest.mark.parametrize("engine", sorted(RUNS))
def test_indexed_run_matches_scan_with_bounded_heap_and_scoring(monkeypatch, engine):
    config, horizon = RUNS[engine]
    counts = {"score": 0, "select": 0, "peak": 0}
    score = ImportanceFactorScheduler.score
    select = ImportanceFactorScheduler.select

    def counted_score(scheduler, entry, now):
        counts["score"] += 1
        return score(scheduler, entry, now)

    def counted_select(scheduler, queue, now):
        counts["select"] += 1
        counts["peak"] = max(counts["peak"], len(queue))
        return select(scheduler, queue, now)

    # Installed before the system is built: attach_scorer binds score.
    monkeypatch.setattr(ImportanceFactorScheduler, "score", counted_score)
    monkeypatch.setattr(ImportanceFactorScheduler, "select", counted_select)
    indexed = HybridSystem(config, seed=SEED, warmup=0.1 * horizon, engine=engine)
    queue = indexed.server.pull_queue
    assert queue.indexed_for(indexed.pull_scheduler)
    result = indexed.run(horizon)

    assert counts["select"] > 0
    assert counts["score"] <= counts["select"] * counts["peak"]
    # The last selection's winner left the queue after it was selected.
    assert len(queue._heap) <= 2 * (len(queue) + 1) + HEAP_SLACK

    scanned = HybridSystem(config, seed=SEED, warmup=0.1 * horizon, engine=engine)
    scanned.server.pull_queue.detach_scorer()
    assert _fingerprint(scanned.run(horizon)) == _fingerprint(result)
