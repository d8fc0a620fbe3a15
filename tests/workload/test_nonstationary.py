"""Unit tests for phased (drifting) workloads."""

import math

import pytest

from repro.des import RandomStreams
from repro.workload import (
    ClientPopulation,
    ItemCatalog,
    PhasedArrivalProcess,
    WorkloadPhase,
)


@pytest.fixture()
def process():
    return PhasedArrivalProcess(
        catalog=ItemCatalog.generate(num_items=20),
        population=ClientPopulation.generate(num_clients=30),
        phases=[
            WorkloadPhase(duration=100.0, theta=0.0),
            WorkloadPhase(duration=100.0, theta=2.5, rate=10.0),
        ],
        default_rate=2.0,
        rng=RandomStreams(seed=3).stream("w"),
    )


class TestPhaseValidation:
    def test_phase_fields(self):
        with pytest.raises(ValueError):
            WorkloadPhase(duration=0, theta=0.5)
        with pytest.raises(ValueError):
            WorkloadPhase(duration=1, theta=-1)
        with pytest.raises(ValueError):
            WorkloadPhase(duration=1, theta=0.5, rate=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"duration": math.nan, "theta": 0.5},
            {"duration": math.inf, "theta": 0.5},
            {"duration": 1.0, "theta": math.nan},
            {"duration": 1.0, "theta": 0.5, "rate": math.nan},
        ],
        ids=["nan-duration", "inf-duration", "nan-theta", "nan-rate"],
    )
    def test_non_finite_fields_rejected(self, fields):
        with pytest.raises(ValueError):
            WorkloadPhase(**fields)

    def test_process_validation(self):
        with pytest.raises(ValueError):
            PhasedArrivalProcess(
                catalog=ItemCatalog.generate(num_items=5),
                population=ClientPopulation.generate(num_clients=5),
                phases=[],
                default_rate=1.0,
                rng=RandomStreams(0).stream("x"),
            )


class TestPhaseLookup:
    def test_phase_at_cycles(self, process):
        assert process.phase_at(50.0).theta == 0.0
        assert process.phase_at(150.0).theta == 2.5
        assert process.phase_at(250.0).theta == 0.0  # wrapped around

    def test_phase_probabilities_rotation(self, process):
        phase = WorkloadPhase(duration=1.0, theta=1.0, rotate=5)
        probs = process.phase_probabilities(phase)
        assert probs.argmax() == 5
        assert probs.sum() == pytest.approx(1.0)


class TestStream:
    def test_times_increase(self, process):
        stream = iter(process)
        times = [next(stream).time for _ in range(200)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_change_between_phases(self, process):
        stream = iter(process)
        requests = []
        while True:
            r = next(stream)
            if r.time > 200:
                break
            requests.append(r)
        phase1 = [r for r in requests if r.time < 100]
        phase2 = [r for r in requests if r.time >= 100]
        # Phase 2 runs at 10 req/unit vs 2 in phase 1.
        assert len(phase2) > 2 * len(phase1)

    def test_skew_change_between_phases(self, process):
        stream = iter(process)
        phase1_items, phase2_items = [], []
        while True:
            r = next(stream)
            if r.time > 200:
                break
            (phase1_items if r.time < 100 else phase2_items).append(r.item_id)
        # theta=0 spreads demand; theta=2.5 concentrates on item 0.
        top_share_1 = phase1_items.count(0) / len(phase1_items)
        top_share_2 = phase2_items.count(0) / len(phase2_items)
        assert top_share_2 > top_share_1 + 0.2

    def test_reproducible(self):
        def build():
            return PhasedArrivalProcess(
                catalog=ItemCatalog.generate(num_items=10),
                population=ClientPopulation.generate(num_clients=10),
                phases=[WorkloadPhase(duration=50.0, theta=1.0)],
                default_rate=2.0,
                rng=RandomStreams(seed=9).stream("w"),
            )

        a = [r.time for _, r in zip(range(50), iter(build()))]
        b = [r.time for _, r in zip(range(50), iter(build()))]
        assert a == b

    def test_client_fields_consistent(self, process):
        stream = iter(process)
        for _ in range(50):
            r = next(stream)
            client = process.population[r.client_id]
            assert r.priority == client.priority
            assert r.class_rank == client.service_class.rank
