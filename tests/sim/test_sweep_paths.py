"""Every call form of the replication drivers returns the same runs.

``run_replications`` and ``run_until_precision`` run plain, traced,
checkpointed (fresh or resumed), or under a resilience policy, on one
worker or several.  All of them go through one executor, and every form
must return the same seeds with bit-identical (NaN-safe) results — and,
for the sequential stopping rule, the same run count and verdict.
"""

import pytest

from repro.core import HybridConfig
from repro.resilience import ResilienceConfig, results_identical
from repro.sim import run_replications, run_until_precision

CONFIG = HybridConfig(num_items=30, cutoff=10, arrival_rate=1.5, num_clients=30)
HORIZON = 200.0
WARMUP = 20.0
NUM_RUNS = 4
BASE_SEED = 9
#: A target the stopping rule reaches after the pilots but before the
#: budget, so the batches after the pilot batch matter.
PRECISION = dict(
    rel_halfwidth=0.05, min_runs=3, max_runs=12, horizon=HORIZON, warmup=WARMUP,
    base_seed=BASE_SEED,
)


def _assert_same_runs(left, right):
    assert [run.seed for run in left.runs] == [run.seed for run in right.runs]
    for a, b in zip(left.runs, right.runs):
        assert results_identical(a, b)


def _replications(**kwargs):
    return run_replications(
        CONFIG, num_runs=NUM_RUNS, horizon=HORIZON, warmup=WARMUP,
        base_seed=BASE_SEED, **kwargs,
    )


def _drop_every_other_run(directory):
    runs = sorted(directory.glob("run-*.json"))
    for path in runs[::2]:
        path.unlink()
    assert 0 < len(list(directory.glob("run-*.json"))) < len(runs)


@pytest.fixture(scope="module")
def plain():
    return _replications()


@pytest.fixture(scope="module")
def plain_precision():
    return run_until_precision(CONFIG, **PRECISION)


class TestRunReplicationsPaths:
    def test_plain_on_two_workers(self, plain):
        _assert_same_runs(plain, _replications(n_jobs=2))

    def test_checkpointed_fresh_and_resumed(self, plain, tmp_path):
        directory = tmp_path / "ck"
        _assert_same_runs(plain, _replications(checkpoint_dir=directory))
        _drop_every_other_run(directory)
        _assert_same_runs(plain, _replications(checkpoint_dir=directory, resume=True))

    def test_resilient(self, plain):
        _assert_same_runs(plain, _replications(resilience=ResilienceConfig()))

    def test_traced(self, plain, tmp_path):
        traced = _replications(trace_dir=tmp_path / "traces")
        _assert_same_runs(plain, traced)
        assert len(traced.trace_paths) == NUM_RUNS


class TestRunUntilPrecisionPaths:
    def test_target_met_between_pilots_and_budget(self, plain_precision):
        assert plain_precision.precision_met
        assert PRECISION["min_runs"] < plain_precision.num_runs < PRECISION["max_runs"]

    @pytest.mark.parametrize("n_jobs", [1, 3])
    @pytest.mark.parametrize("form", ["plain", "checkpointed", "resumed", "resilient"])
    def test_same_runs_count_and_verdict(self, plain_precision, tmp_path, form, n_jobs):
        kwargs = dict(PRECISION, n_jobs=n_jobs)
        if form == "resilient":
            kwargs["resilience"] = ResilienceConfig()
        elif form != "plain":
            kwargs["checkpoint_dir"] = tmp_path / "ck"
        if form == "resumed":
            run_until_precision(CONFIG, **kwargs)
            _drop_every_other_run(tmp_path / "ck")
            kwargs["resume"] = True
        result = run_until_precision(CONFIG, **kwargs)
        assert result.num_runs == plain_precision.num_runs
        assert result.precision_met == plain_precision.precision_met
        assert result.quarantine == ()
        _assert_same_runs(plain_precision, result)
