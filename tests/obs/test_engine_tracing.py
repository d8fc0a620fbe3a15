"""Tracing and phase profiling on every engine that accepts them.

The reference and fast engines run the same policy kernel, which emits
the trace and times the profiler phases, so both accept ``tracer=`` and
``profiler=``.  Neither consumes randomness: a traced run, a profiled run
and a plain run of one seed give the same ``SimulationResult``, and a
fast-engine trace passes :class:`~repro.obs.validate.TraceValidator`.
The population engine folds arrivals into per-class counters and still
refuses both.
"""

import pytest

from repro.core import FaultConfig, HybridConfig
from repro.obs import PhaseProfiler, TraceRecorder, read_trace
from repro.obs.validate import TraceValidator
from repro.sim import HybridSystem, run_replications, run_single, run_traced

SEEDS = (0, 1, 2)
HORIZON = 400.0
WARMUP = 40.0

#: name -> (config, pull mode).
SCENARIOS = {
    "serial": (HybridConfig(num_items=60, cutoff=20, arrival_rate=2.0), "serial"),
    "concurrent": (HybridConfig(num_items=60, cutoff=20, arrival_rate=2.0), "concurrent"),
    "pure-pull": (HybridConfig(num_items=60, cutoff=0, arrival_rate=0.5), "serial"),
    "downlink-loss": (
        HybridConfig(num_items=60, cutoff=20, arrival_rate=2.0).with_faults(
            FaultConfig(downlink_loss=0.15, queue_capacity=15)
        ),
        "serial",
    ),
    "client-recovery": (
        HybridConfig(num_items=40, cutoff=15, arrival_rate=1.5, num_clients=50).with_faults(
            FaultConfig(
                downlink_loss=0.12,
                uplink_loss=0.08,
                max_retries=2,
                backoff_base=1.0,
                queue_capacity=25,
                class_deadlines=(80.0, 60.0, 40.0),
            )
        ),
        "serial",
    ),
}


def _run(name: str, seed: int, engine: str, **kwargs):
    config, pull_mode = SCENARIOS[name]
    system = HybridSystem(
        config, seed=seed, warmup=WARMUP, pull_mode=pull_mode, engine=engine, **kwargs
    )
    return system.run(HORIZON)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fast_traced_equals_plain_equals_profiled(name, seed):
    plain = _run(name, seed, "fast")
    tracer = TraceRecorder()
    traced = _run(name, seed, "fast", tracer=tracer)
    profiler = PhaseProfiler()
    profiled = _run(name, seed, "fast", profiler=profiler)
    assert plain.satisfied_requests > 0
    assert traced == plain
    assert profiled == plain
    trace = tracer.trace()
    assert trace.counts()["request_arrived"] > 0
    report = TraceValidator(trace).validate(strict=False)
    assert report.ok, report.violations
    assert profiler.calls("sim.run") == 1
    assert profiler.calls("pull.select") > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_profiled_equals_plain(engine, seed):
    for name in ("serial", "pure-pull"):
        profiler = PhaseProfiler()
        profiled = _run(name, seed, engine, profiler=profiler)
        assert profiled == _run(name, seed, engine)
        assert profiler.calls("metrics.result") == 1


@pytest.mark.parametrize("hook", ["tracer", "profiler"])
def test_population_engine_refuses_tracing_and_profiling(hook):
    instrument = TraceRecorder() if hook == "tracer" else PhaseProfiler()
    with pytest.raises(ValueError, match="population engine"):
        HybridSystem(HybridConfig(), engine="population", **{hook: instrument})


def test_fast_engine_through_the_trace_entry_points(tmp_path):
    config, _ = SCENARIOS["serial"]
    plain = run_single(config, seed=3, horizon=HORIZON, engine="fast")
    written = run_single(
        config, seed=3, horizon=HORIZON, engine="fast", trace_path=tmp_path / "run.jsonl"
    )
    traced, trace = run_traced(config, seed=3, horizon=HORIZON, engine="fast")
    assert written == plain
    assert traced == plain
    assert read_trace(tmp_path / "run.jsonl").events == trace.events
    sweep = run_replications(
        config, num_runs=2, horizon=HORIZON, engine="fast", trace_dir=tmp_path / "sweep"
    )
    assert sweep.trace_paths is not None
    assert all(read_trace(path).events for path in sweep.trace_paths)
    with pytest.raises(ValueError, match="trace_dir"):
        run_replications(
            config,
            num_runs=1,
            horizon=HORIZON,
            engine="population",
            trace_dir=tmp_path / "population",
        )
