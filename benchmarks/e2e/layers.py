"""Which functions of ``repro`` each benchmark layer wraps.

:func:`install_sim_layers` and :func:`install_service_layers` patch the
classes and modules in place, so they must run before the system or
service is built: ``PullQueue.attach_scorer`` binds ``scheduler.score``
at construction, and a later patch would miss every call made through
that binding.

Work the fast and population engines inline into their drivers (the
fast engine's ``PullQueue.add``, the population engine's fold loop,
``TimeWeighted.set``) has no function boundary to wrap, so it lands in
the engine driver's own self time (``sim`` or ``scale``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from spans import SpanLog, calibrate


class Observed:
    """Values the layer wrappers read off arguments and results."""

    def __init__(self) -> None:
        self.select_queue_len = 0
        self.acquires = 0
        self.admitted = 0
        self.heap_live = 0
        self.heap_records = 0
        self.recorders: list[Any] = []

    def on_select(self, args: tuple, _result: Any) -> None:
        self.select_queue_len += len(args[1])

    def on_acquire(self, _args: tuple, result: Any) -> None:
        self.acquires += 1
        if result:
            self.admitted += 1

    def on_run(self, args: tuple, _result: Any) -> None:
        """Live entries and heap records (stale ones included) after a run."""
        queue = args[0].server.pull_queue
        self.heap_live += len(queue)
        self.heap_records += len(queue._heap)

    def as_dict(self) -> dict[str, int]:
        return {
            "select_queue_len": self.select_queue_len,
            "acquires": self.acquires,
            "admitted": self.admitted,
            "heap_live": self.heap_live,
            "heap_records": self.heap_records,
            "retained_events": sum(len(recorder) for recorder in self.recorders),
        }


def report(log: SpanLog, observed: Observed, spans_out: Path) -> dict[str, Any]:
    """Per-layer calls and self times, corrected for the calibrated wrapper
    cost, plus the observed values; the raw spans go to ``spans_out``."""
    calibration = calibrate()
    self_s, covered_s = log.summary(calibration)
    log.write(spans_out)
    return {
        "calls": log.counts(),
        "self_s": self_s,
        "covered_s": covered_s,
        "overhead_s": log.overhead_s(calibration),
        "async_wall_s": log.async_wall_s,
        "calibration_ns": [1e9 * calibration.inside_s, 1e9 * calibration.outside_s],
        **observed.as_dict(),
    }


def _wrap_methods(log: SpanLog, cls: type, layer: str, names: list[str]) -> None:
    for name in names:
        setattr(cls, name, log.timed(layer, cls.__dict__[name]))


def _install_shared(log: SpanLog, observed: Observed) -> None:
    """Layers the simulator and the service have in common."""
    from repro.obs.recorder import TraceRecorder
    from repro.schedulers.base import PullQueue
    from repro.schedulers.importance_factor import ImportanceFactorScheduler
    from repro.sim.bandwidth_pool import BandwidthPool

    ImportanceFactorScheduler.select = log.timed(
        "schedulers.select", ImportanceFactorScheduler.select, observed.on_select
    )
    _wrap_methods(log, ImportanceFactorScheduler, "schedulers.score", ["score"])
    _wrap_methods(log, PullQueue, "schedulers.add", ["add"])
    BandwidthPool.try_acquire = log.timed(
        "bandwidth", BandwidthPool.try_acquire, observed.on_acquire
    )
    _wrap_methods(log, BandwidthPool, "bandwidth", ["release"])
    _wrap_methods(log, TraceRecorder, "obs.emit", ["emit"])
    recorder_init = TraceRecorder.__init__

    def keep_recorder(recorder: TraceRecorder, *args: Any, **kwargs: Any) -> None:
        recorder_init(recorder, *args, **kwargs)
        observed.recorders.append(recorder)

    TraceRecorder.__init__ = keep_recorder


def install_sim_layers(log: SpanLog) -> Observed:
    """Wrap the layers the three simulation engines call."""
    from repro.des.engine import Environment
    from repro.sim import runner
    from repro.sim.metrics import MetricsCollector
    from repro.sim.system import HybridSystem
    from repro.workload.arrivals import ArrivalProcess
    from repro.workload.batched import BatchedArrivals
    from repro.workload.population import PopulationArrivals

    observed = Observed()
    _install_shared(log, observed)
    _wrap_methods(log, Environment, "des", ["step"])
    _wrap_methods(log, BatchedArrivals, "workload", ["next_chunk"])
    _wrap_methods(log, PopulationArrivals, "workload", ["next_block"])
    _wrap_methods(
        log,
        MetricsCollector,
        "metrics",
        sorted(name for name in vars(MetricsCollector) if name.startswith("record_")),
    )

    stream_iter = ArrivalProcess.__iter__

    class TimedStream:
        """The lazy arrival generator, one ``workload`` span per draw."""

        def __init__(self, stream: Any) -> None:
            self._next = log.timed("workload", stream.__next__)

        def __iter__(self) -> TimedStream:
            return self

        def __next__(self) -> Any:
            return self._next()

    def timed_iter(process: ArrivalProcess) -> TimedStream:
        return TimedStream(stream_iter(process))

    ArrivalProcess.__iter__ = timed_iter

    _wrap_methods(log, HybridSystem, "build", ["__init__"])
    original_run = HybridSystem.run
    run_sim = log.timed("sim", original_run, observed.on_run)
    run_scale = log.timed("scale", original_run, observed.on_run)

    def run(self: HybridSystem, horizon: float) -> Any:
        driver = run_scale if self.engine == "population" else run_sim
        return driver(self, horizon)

    HybridSystem.run = run
    runner.run_replications = log.timed("runner", runner.run_replications)
    return observed


def install_service_layers(log: SpanLog) -> Observed:
    """Wrap the layers ``repro serve`` calls (plus the shared ones)."""
    from repro.core import HybridConfig
    from repro.schedulers.registry import make_push_scheduler
    from repro.service import app
    from repro.service.core import SchedulerCore
    from repro.service.http import HttpRequest, HttpResponse
    from repro.service.ledger import ServiceLedger

    observed = Observed()
    _install_shared(log, observed)
    app.read_request = log.timed_async("service.http", app.read_request)
    _wrap_methods(log, HttpRequest, "service.http", ["json"])
    _wrap_methods(log, HttpResponse, "service.http", ["encode"])
    SchedulerCore.submit = log.timed_async("service.submit", SchedulerCore.submit)
    _wrap_methods(
        log,
        ServiceLedger,
        "service.ledger",
        ["submit", "enqueue", "start_flight", "requeue", "finish", "snapshot", "check"],
    )
    defaults = HybridConfig()
    push_cls = type(
        make_push_scheduler(
            defaults.push_scheduler, defaults.build_catalog(), defaults.cutoff
        )
    )
    _wrap_methods(log, push_cls, "service.push", ["next_item"])
    return observed
