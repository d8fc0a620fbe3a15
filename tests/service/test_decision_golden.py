"""Decision golden: the live scheduler's per-request verdicts, pinned.

Each scenario replays one seeded load-generator plan against an
in-process :class:`~repro.service.core.SchedulerCore` on a virtual-time
event loop (:mod:`tests.service.virtual_clock`), so every admission,
selection, corruption draw, deadline and drain decision happens at a
reproducible instant.  The settings are the soak's (30 items, K=8,
deadline/brownout/backpressure/downlink-loss faults armed, a 3x flash
crowd between 0.3 s and 0.9 s), swept over seeds, tight and loose class
deadlines, no SLO and the control-chaos drill's forcing SLO, and a
drain either right after the last submission or at t = 1.5 s while the
plan is still sending; four edge configurations ride along.

The digest covers every request's ``(status, http, delay, via_push,
retry_after)`` in plan order.  The committed digests in
``decision_golden.json`` were recorded once and are never re-recorded:
a change that moves one changed what the service decides.  A traced run
must decide identically and leave a trace the simulator's own
:class:`~repro.obs.TraceValidator` accepts.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.control import SLOSpec
from repro.core import HybridConfig
from repro.obs import TraceRecorder, TraceValidator
from repro.service import LoadGenConfig, SchedulerCore, ServiceConfig, SurgePhase
from repro.service.loadgen import build_plan, schedule_wall_times

from .virtual_clock import VirtualServiceClock, run_virtual

GOLDEN = Path(__file__).with_name("decision_golden.json")

#: The forcing targets of ``scripts/control_chaos.py``: unattainable A/B
#: delay ceilings keep every window violating, so the controller moves.
FORCING_SLO = {"classes": {"A": {"delay_mean": 0.001}, "B": {"delay_mean": 0.001}, "C": {}}}

SEEDS = (11, 12, 13)
DEADLINES = {"loose": (3.0, 2.0, 1.5), "tight": (0.3, 0.2, 0.15)}
#: ``None`` drains right after the last submission; a number drains at
#: that virtual time, cutting into the plan.
DRAINS = {"after-plan": None, "at-1.5": 1.5}
EDGES = {
    "k0": {"cutoff": 0},
    "k30": {"cutoff": 30},
    "rxw": {"pull_scheduler": "rxw"},
    "demand40": {"bandwidth_demand_mean": 40.0},
}

OUTCOMES = {"served", "blocked", "rejected", "shed", "timed_out", "failed", "draining"}


#: Scenario id -> (seed, class deadlines, forcing SLO?, drain time, hybrid overrides).
SCENARIOS: dict[str, tuple[int, tuple[float, ...], bool, Optional[float], dict[str, Any]]] = {
    f"s{seed}-{name}-{'slo' if slo else 'noslo'}-{drain}": (seed, deadlines, slo, drain_at, {})
    for seed in SEEDS
    for name, deadlines in DEADLINES.items()
    for slo in (False, True)
    for drain, drain_at in DRAINS.items()
}
SCENARIOS.update(
    (f"{edge}-{'slo' if slo else 'noslo'}", (11, DEADLINES["loose"], slo, None, overrides))
    for edge, overrides in EDGES.items()
    for slo in (False, True)
)


def _service_config(scenario: str) -> tuple[ServiceConfig, Optional[float]]:
    seed, deadlines, slo, drain_at, overrides = SCENARIOS[scenario]
    hybrid_args: dict[str, Any] = {"num_items": 30, "cutoff": 8, **overrides}
    config = ServiceConfig(
        hybrid=HybridConfig(**hybrid_args),
        time_scale=0.02,
        class_deadlines=deadlines,
        ingress_capacity=6,
        brownout_window=0.05,
        brownout_high=0.5,
        brownout_low=0.2,
        brownout_engage=2,
        brownout_release=2,
        downlink_loss=0.2,
        drain_timeout=0.3,
        slo=SLOSpec.from_dict(FORCING_SLO) if slo else None,
        seed=seed,
    )
    return config, drain_at


async def _replay(
    clock: VirtualServiceClock,
    config: ServiceConfig,
    drain_at: Optional[float],
    tracer: Optional[TraceRecorder],
) -> tuple[SchedulerCore, list[Any]]:
    """Submit the seeded plan at its wall offsets, drain, collect verdicts."""
    load = LoadGenConfig(
        rate=150.0, duration=3.0, seed=config.seed, surges=(SurgePhase(0.3, 0.9, 3.0),)
    )
    plan = build_plan(config.hybrid, load)
    offsets = schedule_wall_times(plan, config.hybrid.arrival_rate, load)
    core = SchedulerCore(config, clock=clock, tracer=tracer)
    await core.start()
    loop = asyncio.get_running_loop()

    async def drain_later(when: float) -> None:
        await asyncio.sleep(when - clock.now())
        await core.drain()

    drainer = loop.create_task(drain_later(drain_at)) if drain_at is not None else None
    submissions = []
    for request, offset in zip(plan, offsets):
        delay = offset - clock.now()
        if delay > 0:
            await asyncio.sleep(delay)
        submissions.append(
            loop.create_task(
                core.submit(
                    request.item_id, request.class_rank, request.priority, request.client_id
                )
            )
        )
    if drainer is None:
        await core.drain()
    else:
        await drainer
    return core, list(await asyncio.gather(*submissions))


def _digest(outcomes: list[Any]) -> str:
    rows = [(o.status, o.http, o.delay, o.via_push, o.retry_after) for o in outcomes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@functools.cache
def replay(scenario: str, traced: bool = False) -> tuple[str, frozenset[str], int, Any]:
    """``(digest, statuses seen, controller changes, trace)`` of one run."""
    config, drain_at = _service_config(scenario)
    tracer = TraceRecorder() if traced else None

    async def main(clock: VirtualServiceClock) -> tuple[SchedulerCore, list[Any]]:
        return await _replay(clock, config, drain_at, tracer)

    core, outcomes = run_virtual(main)
    core.ledger.check(drained=True)
    changes = core.control.seq if core.control is not None else 0
    trace = tracer.trace() if tracer is not None else None
    return _digest(outcomes), frozenset(o.status for o in outcomes), changes, trace


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden: dict[str, str]) -> None:
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_decisions_match_the_golden(scenario: str, golden: dict[str, str]) -> None:
    digest, _, _, _ = replay(scenario)
    assert digest == golden[scenario]


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_traced_run_decides_the_same_and_validates(
    scenario: str, golden: dict[str, str]
) -> None:
    digest, _, _, trace = replay(scenario, traced=True)
    assert digest == golden[scenario], "tracing changed a decision"
    report = TraceValidator(trace).validate(strict=False)
    assert report.ok, report.summary()


def test_the_grid_exercises_every_outcome_and_the_controller() -> None:
    grid = [s for s in SCENARIOS if s.startswith("s")]
    seen = frozenset().union(*(replay(s)[1] for s in grid))
    assert seen == OUTCOMES
    assert any(replay(s)[2] for s in grid if SCENARIOS[s][2]), "no SLO run reconfigured"
