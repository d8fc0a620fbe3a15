"""Chaos tests for the sweep executor under a resilience policy (PR 4).

Workers that crash, hang, or fail transiently must never lose a run
silently: either the run completes after a bounded retry or it lands on
the quarantine list of the outcome.
"""

import os
import time

import pytest

from repro.core import HybridConfig
from repro.resilience import QuarantinedRun, ResilienceConfig, SweepOutcome
from repro.sim import ParallelExecutor
from repro.sim.runner import ReplicatedResult, run_replications, run_single


# -- module-level payloads (must be picklable for the process pool) ------------
def _double(x):
    return 2 * x


def _crash_once(payload):
    """Kill the whole worker process on the first attempt, succeed after.

    The sentinel file is created *before* dying so the retry sees it.
    """
    sentinel, value = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(1)
    return 2 * value


def _fail_once_in_process(payload):
    """Raise (an ordinary exception) on the first attempt only."""
    sentinel, value = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("transient failure")
    return 2 * value


def _always_fail(_payload):
    raise RuntimeError("permanent failure")


def _hang_or_return(payload):
    hang, value = payload
    if hang:
        time.sleep(600.0)
    return 2 * value


class TestResilienceConfigValidation:
    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_bad_timeouts(self, bad):
        with pytest.raises(ValueError, match="timeout"):
            ResilienceConfig(timeout=bad)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            ResilienceConfig(max_retries=-1)

    def test_defaults_are_valid(self):
        config = ResilienceConfig()
        assert config.timeout is None
        assert config.attempts_allowed == 2


class TestSerialExecution:
    def test_plain_map(self):
        outcome = ParallelExecutor(1, ResilienceConfig()).run(_double, [1, 2, 3])
        assert outcome.results == (2, 4, 6)
        assert outcome.quarantined == ()

    def test_retry_then_succeed(self, tmp_path):
        sentinel = str(tmp_path / "seen")
        outcome = ParallelExecutor(1, ResilienceConfig()).run(
            _fail_once_in_process, [(sentinel, 5)]
        )
        assert outcome.results == (10,)
        assert outcome.quarantined == ()

    def test_quarantine_after_budget(self):
        executor = ParallelExecutor(1, ResilienceConfig(max_retries=2))
        outcome = executor.run(_always_fail, ["x"], keys=[77])
        assert outcome.results == (None,)
        (entry,) = outcome.quarantined
        assert entry.seed == 77
        assert entry.attempts == 3
        assert "permanent failure" in entry.error

    def test_on_result_called_per_completion(self):
        seen = []
        ParallelExecutor(1, ResilienceConfig()).run(
            _double, [1, 2], keys=[10, 20], on_result=lambda k, v: seen.append((k, v))
        )
        assert seen == [(10, 2), (20, 4)]

    def test_keys_must_align(self):
        with pytest.raises(ValueError, match="align"):
            ParallelExecutor(1, ResilienceConfig()).run(_double, [1, 2], keys=[1])


class TestParallelChaos:
    def test_worker_crash_is_retried(self, tmp_path):
        sentinels = [str(tmp_path / f"s{i}") for i in range(3)]
        with ParallelExecutor(2, ResilienceConfig(max_retries=2)) as executor:
            outcome = executor.run(_crash_once, list(zip(sentinels, [1, 2, 3])))
        assert outcome.results == (2, 4, 6)
        assert outcome.quarantined == ()

    def test_crash_without_retry_budget_quarantines(self, tmp_path):
        # max_retries=0: the first crash exhausts every run's budget
        # (innocent in-flight runs are charged too — the pool's death is
        # unattributable), so nothing completes and all runs surface.
        # A single payload would take the serial path (where _crash_once's
        # os._exit would kill the test runner itself); force the pool path.
        with ParallelExecutor(2, ResilienceConfig(max_retries=0)) as executor:
            outcome = executor._run_parallel(
                _crash_once, [(str(tmp_path / "t"), 1)], [5], None
            )
        assert outcome.results == (None,)
        (entry,) = outcome.quarantined
        assert entry.seed == 5
        assert entry.attempts == 1

    def test_hung_worker_times_out_and_others_survive(self, tmp_path):
        payloads = [(True, 0), (False, 1), (False, 2), (False, 3)]
        with ParallelExecutor(2, ResilienceConfig(timeout=2.0, max_retries=0)) as executor:
            outcome = executor.run(
                _hang_or_return, payloads, keys=[100, 101, 102, 103]
            )
        assert outcome.results[1:] == (2, 4, 6)
        assert outcome.results[0] is None
        (entry,) = outcome.quarantined
        assert entry.seed == 100
        assert "timeout" in entry.error

    def test_order_preserved_under_load(self):
        with ParallelExecutor(2, ResilienceConfig()) as executor:
            outcome = executor.run(_double, list(range(12)))
        assert outcome.results == tuple(2 * x for x in range(12))


class TestSweepOutcome:
    def test_completed_filters_holes(self):
        outcome = SweepOutcome(
            results=(1, None, 3),
            quarantined=(QuarantinedRun(seed=2, attempts=2, error="boom"),),
        )
        assert outcome.completed == (1, 3)


class TestRunnerIntegration:
    CONFIG = HybridConfig(num_items=20, cutoff=6, arrival_rate=1.0, num_clients=20)

    def test_quarantined_runs_always_in_summary(self):
        from repro.resilience.checkpoint import results_identical

        run = run_single(self.CONFIG, seed=1, horizon=100, warmup=10)
        aggregate = ReplicatedResult(
            runs=(run,),
            quarantine=(QuarantinedRun(seed=42, attempts=3, error="crashed"),),
        )
        summary = aggregate.summary()
        assert "quarantined" in summary
        assert "seed 42" in summary
        assert "crashed" in summary

    def test_all_quarantined_raises(self):
        # warmup beyond the horizon makes every replication fail fast.
        with pytest.raises(RuntimeError, match="every replication was quarantined"):
            run_replications(
                self.CONFIG,
                num_runs=2,
                horizon=10.0,
                warmup=50.0,
                resilience=ResilienceConfig(max_retries=0),
            )

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_replications(self.CONFIG, num_runs=1, horizon=50.0, resume=True)

    def test_trace_dir_incompatible_with_checkpointing(self, tmp_path):
        with pytest.raises(ValueError, match="trace_dir"):
            run_replications(
                self.CONFIG,
                num_runs=1,
                horizon=50.0,
                trace_dir=tmp_path / "traces",
                checkpoint_dir=tmp_path / "ck",
            )
