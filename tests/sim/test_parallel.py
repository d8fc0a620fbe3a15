"""Unit tests for the parallel replication layer (PR 2)."""

import pytest

from repro.sim import ParallelExecutor, resolve_jobs, spawn_seeds
from repro.sim.runner import _replication_task  # noqa: PLC2701 - worker contract


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("worker exploded")
    return x * x


class TestResolveJobs:
    def test_identity_for_positive(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4

    def test_minus_one_uses_all_cores(self):
        import os

        assert resolve_jobs(-1) == max(os.cpu_count() or 1, 1)

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_jobs(bad)


class TestParallelExecutor:
    def test_serial_path_never_creates_pool(self):
        with ParallelExecutor(1) as executor:
            assert executor.run(_square, range(5)).results == (0, 1, 4, 9, 16)
            assert executor._pool is None

    def test_serial_path_accepts_closures(self):
        # n_jobs=1 stays fully in-process, so unpicklable callables work.
        offset = 3
        with ParallelExecutor(1) as executor:
            assert executor.run(lambda x: x + offset, [1, 2]).results == (4, 5)

    def test_parallel_map_preserves_order(self):
        with ParallelExecutor(2) as executor:
            assert executor.run(_square, range(8)).results == tuple(x * x for x in range(8))

    def test_pool_reused_across_batches(self):
        with ParallelExecutor(2) as executor:
            executor.run(_square, range(4))
            pool = executor._pool
            executor.run(_square, range(4))
            assert executor._pool is pool
        assert executor._pool is None

    def test_single_task_runs_in_process(self):
        with ParallelExecutor(4) as executor:
            assert executor.run(_square, [7]).results == (49,)
            assert executor._pool is None

    def test_aborted_map_reaps_the_pool(self):
        # Regression (PR 4): an exception escaping run() used to leave
        # the worker pool alive with queued tasks still running, leaking
        # processes when the caller was interrupted (e.g. Ctrl-C during
        # a sweep).  The finally block must drop and cancel the pool.
        executor = ParallelExecutor(2)
        with pytest.raises(RuntimeError):
            executor.run(_fail_on_three, range(8))
        assert executor._pool is None

    def test_map_after_abort_recovers(self):
        executor = ParallelExecutor(2)
        with pytest.raises(RuntimeError):
            executor.run(_fail_on_three, range(8))
        # A fresh pool is built transparently on the next call.
        assert executor.run(_square, range(4)).results == (0, 1, 4, 9)
        executor.close()


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        seeds = spawn_seeds(42, 16)
        assert seeds == spawn_seeds(42, 16)
        assert len(set(seeds)) == 16

    def test_prefix_stable(self):
        # The sequential-stopping driver relies on this: extending the run
        # budget never changes the seeds of runs already taken.
        assert spawn_seeds(7, 4) == spawn_seeds(7, 9)[:4]

    def test_differs_from_legacy_offset_scheme(self):
        base = 5
        assert spawn_seeds(base, 3) != [base, base + 1, base + 2]

    def test_adjacent_base_seeds_disjoint(self):
        a, b = set(spawn_seeds(0, 32)), set(spawn_seeds(1, 32))
        assert not a & b

    def test_validation(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
        assert spawn_seeds(0, 0) == []


class TestWorkerTask:
    def test_replication_task_round_trip(self):
        import pickle

        from repro.core import HybridConfig

        config = HybridConfig(num_items=20, cutoff=8, arrival_rate=1.0, num_clients=30)
        task = (config, 3, 200.0, 20.0, "serial", None, "reference", None)
        # The worker contract: payload and result must survive pickling.
        result = _replication_task(pickle.loads(pickle.dumps(task)))
        assert result.seed == 3
        assert pickle.loads(pickle.dumps(result)).overall_delay == result.overall_delay
