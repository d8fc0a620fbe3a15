"""In-line arrival draining equals one calendar event per arrival, bit for bit.

With its default sampler and requests reaching the kernel directly, a
reference or fast system admits arrivals in-line through its pending
store (``RequestStore.attach``): no calendar record per arrival.  The
same system fed the same sampler on the same ``"arrivals"`` stream as a
custom ``arrivals=`` source delivers one event per arrival through
``drive_arrivals`` instead.  The two must agree exactly: the
``SimulationResult`` (value and type, NaN equal to NaN), the traced
event list, the control-window observations and the adaptive cut-off
decisions.  Code outside the kernel that reads its state drains the
store first; without that, windows, decisions and watchdog snapshots
would lag the arrivals.

Every engine runs one driver, so the reference engine fed the fast
engine's sampler one event per arrival equals the fast engine as well.
"""

import pytest

from repro.control import ClassSLO, SLOSpec, WindowRecorder, build_controlled_system
from repro.core import FaultConfig, HybridConfig
from repro.des import RandomStreams
from repro.obs import TraceRecorder
from repro.schedulers.flat import FlatScheduler
from repro.sim import HybridSystem, build_adaptive_system
from repro.sim.adaptive import AdaptiveCutoffController
from repro.workload.arrivals import ArrivalProcess, Request
from repro.workload.batched import BatchedArrivals
from repro.workload.population import PopulationArrivals

from .scenario_grid import BASE, GRID, _close, _same

SEEDS = (0, 1, 2)
HORIZON = 400.0
WARMUP = 40.0

#: name -> (config, pull mode).
SCENARIOS = {
    "serial": (BASE, "serial"),
    "concurrent": (BASE, "concurrent"),
    # The pure-pull loop sleeps on an empty queue between arrivals.
    "pure-pull-low-load": (HybridConfig(arrival_rate=0.3).with_cutoff(0), "serial"),
    "downlink-loss": (GRID["downlink-loss"], "serial"),
    "queue-capacity": (GRID["queue-capacity"], "serial"),
    "overload-gate": (GRID["overload-gate"], "serial"),
    "priority-weighted": (GRID["priority-weighted"], "serial"),
}

#: Every window violates, so the controller moves its knobs.
FORCING = SLOSpec(
    targets=(
        ("A", ClassSLO(delay_mean=1e-6)),
        ("B", ClassSLO(delay_mean=1e-6)),
        ("C", ClassSLO()),
    )
)


SAMPLERS = {
    "reference": ArrivalProcess,
    "fast": BatchedArrivals,
    "population": PopulationArrivals,
}


def _per_event(config: HybridConfig, seed: int, engine: str):
    """The engine's default sampler on the system's own stream, as a custom source."""
    return SAMPLERS[engine](
        catalog=config.build_catalog(),
        population=config.build_population(),
        rate=config.arrival_rate,
        rng=RandomStreams(seed).stream("arrivals"),
        priority_weighted=config.priority_weighted_demand,
    )


def _system(config, seed, per_event, engine="reference", **kwargs) -> HybridSystem:
    arrivals = _per_event(config, seed, engine) if per_event else None
    system = HybridSystem(
        config, seed=seed, warmup=WARMUP, engine=engine, arrivals=arrivals, **kwargs
    )
    # In-line draining has no driver process; per-event delivery has one.
    assert (system.driver is None) is not per_event
    return system


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_reference_inline_equals_per_event(name, seed):
    config, pull_mode = SCENARIOS[name]
    inline = _system(config, seed, per_event=False, pull_mode=pull_mode).run(HORIZON)
    per_event = _system(config, seed, per_event=True, pull_mode=pull_mode).run(HORIZON)
    assert inline.satisfied_requests > 0
    assert _same(inline, per_event)
    if name == "pure-pull-low-load":
        assert inline.mean_queue_length < 1.0  # the loop sleeps often
    if name == "overload-gate":
        assert inline.overload_rejections > 0
    if name == "queue-capacity":
        assert inline.shed_requests > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name",
    ["serial", "concurrent", "pure-pull-low-load", "downlink-loss", "queue-capacity",
     "overload-gate"],
)
def test_reference_inline_trace_equals_per_event_trace(name, seed):
    config, pull_mode = SCENARIOS[name]
    runs = []
    for per_event in (False, True):
        tracer = TraceRecorder()
        system = _system(config, seed, per_event, pull_mode=pull_mode, tracer=tracer)
        runs.append((system.run(HORIZON), tracer.trace().events))
    (inline, inline_events), (per_event, per_event_events) = runs
    assert inline_events
    assert _same(inline_events, per_event_events)
    assert _same(inline, per_event)
    plain = _system(config, seed, per_event=False, pull_mode=pull_mode).run(HORIZON)
    assert _same(inline, plain)


def _cutoff_moves(seed, engine):
    """In-line and per-event results of K 0 → 30 → 0 → 60 on a sleepy pure-pull loop."""
    config = HybridConfig(arrival_rate=0.3).with_cutoff(0)
    results = []
    for per_event in (False, True):
        system = _system(config, seed, per_event, engine=engine)
        server, env = system.server, system.env

        def moves():
            for when, cutoff in ((100.0, 30), (200.0, 0), (300.0, 60)):
                yield env.timeout(when - env.now)
                push = FlatScheduler(system.catalog, cutoff)
                server.reconfigure_cutoff(cutoff, push)

        env.process(moves())
        results.append(system.run(HORIZON))
    assert results[0].push_broadcasts > 0
    return results


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_cutoff_move_out_of_pure_pull_while_asleep(seed):
    # At K = 0 and low load the loop mostly sleeps on an empty queue.
    # Moving K above 0 does not wake it: a push-item arrival parks and
    # the loop sleeps on until a request joins the pull queue, whether
    # arrivals come in-line or one event each.
    inline, per_event = _cutoff_moves(seed, "reference")
    assert _same(inline, per_event)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("seed", SEEDS)
def test_external_submits_inline_equal_per_event(seed, engine):
    # A request submitted from outside the stream admits the buffered
    # arrivals before it and wakes the sleeping pure-pull loop, whose
    # timer for the next buffered arrival then goes stale.
    config = HybridConfig(arrival_rate=0.3).with_cutoff(0)
    priorities = config.class_priorities()
    results = []
    for per_event in (False, True):
        system = _system(config, seed, per_event, engine=engine)
        server, env = system.server, system.env

        def submits():
            for k in range(1, 40):
                yield env.timeout(10.0 * k - env.now)
                rank = k % len(priorities)
                server.submit(
                    Request(
                        time=env.now,
                        item_id=(7 * k) % config.num_items,
                        client_id=0,
                        class_rank=rank,
                        priority=float(priorities[rank]),
                    )
                )

        env.process(submits())
        results.append(system.run(HORIZON))
    assert _same(results[0], results[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_watchdog_snapshots_inline_equal_per_event(seed):
    # The periodic audit admits buffered arrivals before it reads the
    # ledger, so every snapshot counts what per-event delivery counts.
    config = BASE.with_faults(FaultConfig(downlink_loss=0.2, watchdog_interval=50.0))
    runs = []
    for per_event in (False, True):
        system = _system(config, seed, per_event)
        snapshots = []
        for until in range(60, int(HORIZON), 50):
            system.env.run(until=float(until))
            snapshots.append(system.watchdog.last_snapshot)
        runs.append((snapshots, system.run(HORIZON)))
    (inline, _), _ = runs
    assert [snap.time for snap in inline] == [50.0 * k for k in range(1, 8)]
    assert _same(runs[0], runs[1])


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("pull_mode", ["serial", "concurrent"])
@pytest.mark.parametrize("name", list(GRID))
def test_reference_fed_batched_arrivals_equals_fast(name, pull_mode, seed):
    # One driver on one calendar: the engines differ only in the sampler.
    config = GRID[name]
    kwargs = dict(seed=seed, warmup=WARMUP, pull_mode=pull_mode)
    fed = _per_event(config, seed, "fast")
    reference = HybridSystem(config, arrivals=fed, **kwargs).run(HORIZON)
    fast = HybridSystem(config, engine="fast", **kwargs).run(HORIZON)
    assert reference.satisfied_requests > 0
    assert _same(reference, fast)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("pull_mode", ["serial", "concurrent"])
@pytest.mark.parametrize("name", list(GRID))
def test_reference_fed_population_arrivals_matches_population(name, pull_mode, seed):
    # The folded store decides exactly as the per-request store; only its
    # merged delay moments round differently.
    config = GRID[name]
    kwargs = dict(seed=seed, warmup=WARMUP, pull_mode=pull_mode)
    if config.faults.client_recovery:
        with pytest.raises(ValueError, match="client-recovery"):
            HybridSystem(config, engine="population", **kwargs)
        return
    fed = _per_event(config, seed, "population")
    reference = HybridSystem(config, arrivals=fed, **kwargs).run(HORIZON)
    population = HybridSystem(config, engine="population", **kwargs).run(HORIZON)
    assert reference.satisfied_requests > 0
    assert _close(reference, population)


def _controlled(config, seed, per_event, engine):
    arrivals = _per_event(config, seed, engine) if per_event else None
    system, loop = build_controlled_system(
        config,
        FORCING,
        seed=seed,
        warmup=WARMUP,
        engine=engine,
        window=HORIZON / 40,
        arrivals=arrivals,
    )
    recorder = WindowRecorder(system, window=HORIZON / 40)
    result = system.run(HORIZON)
    assert loop.seq >= 1, "the controller never reconfigured"
    return result, recorder.observations, loop.controller.decisions


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "config",
    [BASE, HybridConfig(arrival_rate=0.3).with_cutoff(0)],
    ids=["default", "pure-pull-low-load"],
)
def test_reference_control_loop_inline_equals_per_event(config, seed):
    inline = _controlled(config, seed, per_event=False, engine="reference")
    per_event = _controlled(config, seed, per_event=True, engine="reference")
    assert len(inline[1]) == 40
    assert _same(inline, per_event)


def _adaptive(config, seed, per_event, engine):
    """An adaptive-K system; per-event arrivals on the engine's sampler."""
    kwargs = dict(period=100.0, candidates=[10, 30, 50, 70], window=500, hysteresis=0.0)
    if not per_event and engine == "reference":
        system, controller = build_adaptive_system(config, seed=seed, warmup=WARMUP, **kwargs)
    else:
        system = _system(config, seed, per_event, engine=engine)
        controller = AdaptiveCutoffController(system.env, system.server, config, **kwargs)
        system.server.observers.append(controller.observe)
    return system.run(HORIZON), controller.decisions


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_adaptive_cutoff_inline_equals_per_event(seed):
    config = BASE.with_cutoff(70)
    inline = _adaptive(config, seed, per_event=False, engine="reference")
    per_event = _adaptive(config, seed, per_event=True, engine="reference")
    assert len(inline[1]) == 4
    assert _same(inline, per_event)


# -- fast engine: the same drain, the same fix -----------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_windows_inline_equal_per_event(seed):
    observations = []
    for per_event in (False, True):
        system = _system(BASE, seed, per_event, engine="fast")
        recorder = WindowRecorder(system, window=HORIZON / 40)
        result = system.run(HORIZON)
        observations.append((result, recorder.observations))
    assert len(observations[0][1]) == 40
    assert _same(observations[0], observations[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_cutoff_move_out_of_pure_pull_while_asleep(seed):
    # A buffered arrival wakes the sleeping loop only to admit it; the
    # loop sleeps on unless the arrival joined the pull queue.
    inline, per_event = _cutoff_moves(seed, "fast")
    assert _same(inline, per_event)


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_adaptive_cutoff_inline_equals_per_event(seed):
    config = BASE.with_cutoff(70)
    inline = _adaptive(config, seed, per_event=False, engine="fast")
    per_event = _adaptive(config, seed, per_event=True, engine="fast")
    assert len(inline[1]) == 4
    assert _same(inline, per_event)

