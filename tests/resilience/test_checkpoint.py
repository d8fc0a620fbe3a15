"""Unit tests for the sweep checkpoint store (PR 4).

The store's contract: every completed replication persists atomically,
round-trips bit-for-bit through JSON, and a resume against a different
sweep is refused instead of silently mixing experiments.
"""

import json
import math

import pytest

from repro.core import HybridConfig
from repro.des.monitor import Tally
from repro.resilience import (
    CheckpointMismatch,
    CheckpointStore,
    result_from_json,
    result_to_json,
    results_identical,
)
from repro.sim import run_single, spawn_seeds

CONFIG = HybridConfig(num_items=20, cutoff=6, arrival_rate=1.0, num_clients=20)
HORIZON = 120.0
WARMUP = 12.0


@pytest.fixture(scope="module")
def result():
    return run_single(CONFIG, seed=3, horizon=HORIZON, warmup=WARMUP)


class TestResultJsonRoundTrip:
    def test_round_trip_is_exact(self, result):
        decoded = result_from_json(
            json.loads(json.dumps(result_to_json(result), allow_nan=True))
        )
        assert results_identical(decoded, result)

    def test_tallies_survive(self, result):
        decoded = result_from_json(result_to_json(result))
        for name, tally in result.delay_tallies.items():
            other = decoded.delay_tallies[name]
            assert other.count == tally.count
            assert other.mean == tally.mean or (
                math.isnan(other.mean) and math.isnan(tally.mean)
            )

    def test_nan_fields_round_trip(self):
        # A class with zero measured requests reports NaN delays; the
        # JSON layer must carry them through (allow_nan tokens).
        tally = Tally()
        from repro.resilience.checkpoint import _tally_from_json, _tally_to_json

        again = _tally_from_json(json.loads(json.dumps(_tally_to_json(tally))))
        assert again.count == 0
        assert math.isnan(again.mean)

    def test_results_identical_detects_differences(self, result):
        other = run_single(CONFIG, seed=4, horizon=HORIZON, warmup=WARMUP)
        assert not results_identical(result, other)


class TestCheckpointStore:
    def _open(self, tmp_path, config=CONFIG, resume=False, base_seed=1):
        store = CheckpointStore(tmp_path / "ck")
        store.open(
            config,
            base_seed=base_seed,
            seeds=spawn_seeds(base_seed, 3),
            horizon=HORIZON,
            warmup=WARMUP,
            pull_mode="serial",
            resume=resume,
        )
        return store

    def test_save_load_round_trip(self, tmp_path, result):
        store = self._open(tmp_path)
        store.save(11, result)
        assert results_identical(store.load(11), result)
        assert store.completed_seeds() == {11}

    def test_load_missing_returns_none(self, tmp_path):
        store = self._open(tmp_path)
        assert store.load(999) is None

    def test_save_is_atomic(self, tmp_path, result):
        store = self._open(tmp_path)
        path = store.save(11, result)
        assert not path.with_name(path.name + ".tmp").exists()

    def test_fresh_open_clears_stale_runs(self, tmp_path, result):
        store = self._open(tmp_path)
        store.save(11, result)
        self._open(tmp_path)  # resume=False starts over
        assert store.completed_seeds() == set()

    def test_resume_requires_manifest(self, tmp_path):
        store = CheckpointStore(tmp_path / "absent")
        with pytest.raises(CheckpointMismatch, match="no checkpoint manifest"):
            store.open(
                CONFIG,
                base_seed=1,
                seeds=[1],
                horizon=HORIZON,
                warmup=WARMUP,
                pull_mode="serial",
                resume=True,
            )

    def test_resume_keeps_completed_runs(self, tmp_path, result):
        store = self._open(tmp_path)
        store.save(11, result)
        again = self._open(tmp_path, resume=True)
        assert again.completed_seeds() == {11}
        assert results_identical(again.load(11), result)

    @pytest.mark.parametrize(
        "change, fragment",
        [
            (dict(config=HybridConfig(num_items=21, cutoff=6, arrival_rate=1.0, num_clients=20)), "config_hash"),
            (dict(base_seed=2), "base_seed"),
        ],
    )
    def test_resume_refuses_different_sweep(self, tmp_path, change, fragment):
        self._open(tmp_path)
        with pytest.raises(CheckpointMismatch, match=fragment):
            self._open(tmp_path, resume=True, **change)

    def test_resume_refuses_different_horizon(self, tmp_path):
        self._open(tmp_path)
        store = CheckpointStore(tmp_path / "ck")
        with pytest.raises(CheckpointMismatch, match="horizon"):
            store.open(
                CONFIG,
                base_seed=1,
                seeds=spawn_seeds(1, 3),
                horizon=HORIZON * 2,
                warmup=WARMUP,
                pull_mode="serial",
                resume=True,
            )

    def test_load_rejects_foreign_config_hash(self, tmp_path, result):
        store = self._open(tmp_path)
        path = store.save(11, result)
        payload = json.loads(path.read_text())
        payload["config_hash"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointMismatch, match="produced under config"):
            store.load(11)

    def test_save_before_open_fails(self, tmp_path, result):
        store = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RuntimeError, match="open"):
            store.save(1, result)


class TestResumeLoadOrder:
    def test_resume_loads_checkpoints_in_sorted_seed_order(self, tmp_path, monkeypatch):
        """Resume must consult the store in sorted seed order.

        ``completed_seeds()`` returns a *set*; iterating it directly made
        the sequence of ``load()`` calls (checkpoint file I/O) follow
        hash order.  Results were unaffected — lookups are keyed — but
        the I/O schedule of a resumed sweep should be reproducible too.
        Regression for the reprolint no-unordered-iteration fix in
        repro.sim.runner.
        """
        from repro.sim import run_replications

        directory = tmp_path / "ck"
        run_replications(
            CONFIG, num_runs=4, horizon=HORIZON, warmup=WARMUP,
            base_seed=5, checkpoint_dir=directory,
        )
        loads: list[int] = []
        original = CheckpointStore.load

        def recording_load(self, seed):
            loads.append(seed)
            return original(self, seed)

        monkeypatch.setattr(CheckpointStore, "load", recording_load)
        resumed = run_replications(
            CONFIG, num_runs=4, horizon=HORIZON, warmup=WARMUP,
            base_seed=5, checkpoint_dir=directory, resume=True,
        )
        assert len(loads) == 4
        assert loads == sorted(loads)
        assert len(resumed.runs) == 4


class TestResumeRefusesOtherRunShapes:
    """The engine and the SLO spec shape every run, so a resume checks them.

    Without the check, a reference-engine checkpoint resumed as a fast
    sweep returned reference and fast runs mixed in one aggregate.
    """

    def _sweep(self, directory, warmup=WARMUP, **kwargs):
        from repro.sim import run_replications

        return run_replications(
            CONFIG, num_runs=2, horizon=HORIZON, warmup=warmup, base_seed=5,
            checkpoint_dir=directory, **kwargs,
        )

    def test_resume_refuses_different_engine(self, tmp_path):
        self._sweep(tmp_path / "ck", engine="reference")
        with pytest.raises(CheckpointMismatch, match="engine"):
            self._sweep(tmp_path / "ck", resume=True, engine="fast")

    def test_resume_refuses_different_slo(self, tmp_path):
        from repro.control import ClassSLO, SLOSpec

        self._sweep(tmp_path / "ck")
        spec = SLOSpec(targets=(("A", ClassSLO(delay_mean=50.0)),))
        with pytest.raises(CheckpointMismatch, match="slo"):
            self._sweep(tmp_path / "ck", resume=True, slo=spec)

    def test_resume_accepts_same_engine_and_slo(self, tmp_path):
        first = self._sweep(tmp_path / "ck", engine="fast")
        again = self._sweep(tmp_path / "ck", resume=True, engine="fast")
        assert all(results_identical(a, b) for a, b in zip(first.runs, again.runs))

    def test_resume_refuses_dropped_warmup(self, tmp_path):
        # ``warmup=None`` means 10 % of the horizon, not "whatever the
        # checkpoint used", so it must not resume a sweep warmed up by 5.
        self._sweep(tmp_path / "ck", warmup=5.0)
        with pytest.raises(CheckpointMismatch, match="warmup"):
            self._sweep(tmp_path / "ck", resume=True, warmup=None)

    def test_resume_accepts_no_warmup_twice(self, tmp_path):
        first = self._sweep(tmp_path / "ck", warmup=None)
        again = self._sweep(tmp_path / "ck", resume=True, warmup=None)
        assert all(results_identical(a, b) for a, b in zip(first.runs, again.runs))
