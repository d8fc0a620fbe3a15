"""One policy kernel behind every engine: the same request, the same fate.

Each scenario drives the three engines through
:class:`~repro.sim.policy.PolicyKernel` and pins an exact outcome that
depends on how a pending store holds requests: a request delivered
through a finite uplink, a push request delivered while its item is on
air, and a cutoff move while a push slot is on air.
"""

import pytest

from repro.core import HybridConfig
from repro.schedulers.flat import FlatScheduler
from repro.sim import HybridSystem
from repro.sim.policy import PolicyKernel
from repro.workload import Request

ENGINES = ("reference", "fast", "population")

#: Constant length 2, items 0 and 1 pushed: item 0 is on air over
#: [0, 2), item 1 over [2, 4), ...; zero bandwidth demand never blocks.
MINI = HybridConfig(
    num_items=10, cutoff=2, length_law="constant", bandwidth_demand_mean=0.0
)


def _quiet_system(engine: str) -> HybridSystem:
    """A ``MINI`` system whose only requests are the ones a test submits."""
    never = Request(time=1e9, item_id=5, client_id=0, class_rank=0, priority=1.0)
    return HybridSystem(MINI, seed=0, engine=engine, arrivals=[never])


def _at(system: HybridSystem, time: float, action) -> None:
    env = system.env

    def process():
        yield env.timeout(time - env.now)
        action()

    env.process(process())


def _request(time: float, item_id: int) -> Request:
    return Request(time=time, item_id=item_id, client_id=0, class_rank=2, priority=1.0)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_finite_uplink_runs_to_the_end(engine, seed):
    config = HybridConfig(
        num_items=40, cutoff=15, arrival_rate=1.5, num_clients=50, uplink_rate=3.0
    )
    system = HybridSystem(config, seed=seed, warmup=20.0, engine=engine)
    result = system.run(400.0)
    assert result.satisfied_requests > 0
    assert result.uplink_delivered > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_late_delivered_push_request_is_served_by_the_slot_on_air(engine):
    # Generated at t=0 but delivered at t=1, mid-way through item 0's
    # slot: it needs only the slot's first byte, which it had by t=0.
    system = _quiet_system(engine)
    _at(system, 1.0, lambda: system.server.submit(_request(0.0, item_id=0)))
    result = system.run(3.0)
    assert result.satisfied_requests == 1
    assert result.push_delay == pytest.approx(2.0)


@pytest.mark.parametrize("engine", ENGINES)
def test_cutoff_move_while_the_slot_is_on_air_moves_its_waiters(engine):
    system = _quiet_system(engine)
    server = system.server
    server.submit(_request(0.0, item_id=0))

    def move_split():
        server.reconfigure_cutoff(0, FlatScheduler(system.catalog, 0))

    _at(system, 1.0, move_split)
    result = system.run(10.0)
    assert result.satisfied_requests == 1
    assert result.overall_delay == pytest.approx(4.0)
    assert result.pull_delay == pytest.approx(4.0)
    assert result.push_broadcasts == 1
    assert result.pull_services == 1
    assert server.pending_push_requests == 0


def test_every_engine_runs_the_one_kernel():
    for engine in ENGINES:
        server = _quiet_system(engine).server
        assert isinstance(server, PolicyKernel)
        for hook in ("submit", "renege", "reconfigure_cutoff", "reconfigure_alpha",
                     "reconfigure_bandwidth"):
            assert getattr(type(server), hook) is getattr(PolicyKernel, hook)
