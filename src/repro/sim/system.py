"""Wiring of the full hybrid broadcast system and single-run entry point.

:class:`HybridSystem` assembles catalog, population, schedulers, bandwidth
pools, metrics and the server process from a :class:`HybridConfig`, and
:meth:`HybridSystem.run` executes one replication.  Runs are pure
functions of ``(config, seed)``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Literal, Optional

from ..core.config import HybridConfig
from ..des import Environment, RandomStreams
from ..schedulers.registry import make_pull_scheduler, make_push_scheduler
from ..workload.arrivals import ArrivalProcess
from ..workload.batched import BatchedArrivals
from ..workload.population import PopulationArrivals
from ..workload.trace import RequestTrace
from .bandwidth_pool import BandwidthPool
from .client import FaultAwareFront, drive_arrivals
from .faults import ConservationWatchdog, FaultInjector
from .metrics import MetricsCollector, SimulationResult
from .policy import PolicyKernel
from .server import HybridServer, PullMode
from .uplink import UplinkChannel

__all__ = ["HybridSystem", "Engine"]

Engine = Literal["reference", "fast", "population"]


class _UplinkFront:
    """Adapter giving the request drivers a ``submit`` that goes via uplink."""

    def __init__(self, uplink: UplinkChannel) -> None:
        self._uplink = uplink

    def submit(self, request) -> None:
        self._uplink.offer(request)


class HybridSystem:
    """One fully wired instance of the hybrid scheduling system.

    Parameters
    ----------
    config:
        The system description.
    seed:
        Root seed of all stochastic behaviour in this replication.
    warmup:
        Simulated time before which arriving requests are excluded from
        statistics (transient removal).
    pull_mode:
        Serial (analysis-faithful) or concurrent pull service; see
        :class:`~repro.sim.server.HybridServer`.
    trace:
        Optional pre-generated request trace to replay instead of live
        Poisson arrivals (for common-random-number comparisons).
    record_qos:
        Retain raw per-request delays for :meth:`qos_report`
        (percentiles, jitter, fairness).
    arrivals:
        Optional custom arrival source (any iterable of
        :class:`~repro.workload.arrivals.Request`, e.g. a
        :class:`~repro.workload.nonstationary.PhasedArrivalProcess`);
        mutually exclusive with ``trace``.
    server_cls, server_kwargs:
        Server implementation hook — e.g.
        :class:`~repro.sim.preemptive.PreemptiveHybridServer` with
        ``{"preemption_threshold": 0.1}``.
    tracer:
        Optional :class:`~repro.obs.TraceRecorder` capturing every
        scheduling decision as typed events.  Tracing consumes no
        randomness, so results are bit-identical with or without it.
        Only supported for the standard :class:`HybridServer` (custom
        server classes override the instrumented methods).
    profiler:
        Optional :class:`~repro.obs.PhaseProfiler` collecting per-phase
        wall-time counters (scheduler selections, metrics
        finalisation).
    engine:
        Every engine runs the same callback driver
        (:class:`~repro.sim.server.HybridServer` or a subclass) on one
        :class:`~repro.des.Environment` calendar; they differ in the
        arrival sampler and the pending store.  ``"reference"``
        (default) draws :class:`~repro.workload.arrivals.ArrivalProcess`
        arrivals one at a time; ``"fast"`` draws
        :class:`~repro.workload.batched.BatchedArrivals` in blocks:
        statistically equivalent, not bit-identical; see
        ``docs/performance.md``.  Without
        ``trace``/``arrivals``, a front or a server class overriding
        ``submit``, both admit their sampler's arrivals in-line
        (:meth:`~repro.sim.policy.RequestStore.attach`), with the same
        results as one calendar event per arrival.
        ``"population"`` runs the counter-folded
        :class:`~repro.scale.server.PopulationHybridServer` over exact
        aggregated per-(item, class) arrival streams — per-event cost
        independent of ``num_clients``, for million-client scenarios.
        Statistically exact but not bit-identical to the per-client
        engines; client-recovery faults, tracing, profiling, QoS
        recording and custom servers are unsupported.  See
        ``docs/scale.md``.
    """

    def __init__(
        self,
        config: HybridConfig,
        seed: int = 0,
        warmup: float = 0.0,
        pull_mode: PullMode = "serial",
        trace: Optional[RequestTrace] = None,
        record_qos: bool = False,
        arrivals: Optional[object] = None,
        server_cls: type[HybridServer] = HybridServer,
        server_kwargs: Optional[dict] = None,
        tracer=None,
        profiler=None,
        engine: Engine = "reference",
    ) -> None:
        if engine not in ("reference", "fast", "population"):
            raise ValueError(
                f"unknown engine {engine!r}; use 'reference', 'fast' or 'population'"
            )
        if tracer is not None and server_cls is not HybridServer:
            raise ValueError(
                "tracing instruments HybridServer's decision points; custom "
                f"server classes ({server_cls.__name__}) override them and "
                "would record an incomplete trace"
            )
        if engine == "population" and (server_cls is not HybridServer or server_kwargs):
            raise ValueError(
                "engine='population' uses its own server implementation; custom "
                "server classes/kwargs require engine='reference' or 'fast'"
            )
        if engine == "population" and trace is not None:
            raise ValueError(
                "the population engine folds arrivals and cannot replay "
                "per-request traces; use engine='reference' or 'fast'"
            )
        self.config = config
        self.seed = int(seed)
        self.warmup = float(warmup)
        self.tracer = tracer
        self.profiler = profiler
        self.engine: Engine = engine

        self.env = Environment()
        self.streams = RandomStreams(seed=seed)
        self.catalog = config.build_catalog()
        self.population = config.build_population()
        self.metrics = MetricsCollector(
            class_names=config.class_names(),
            class_priorities=list(config.class_priorities()),
            warmup=warmup,
            record_qos=record_qos,
        )
        self.pool = BandwidthPool(config.class_bandwidth())
        self.push_scheduler = make_push_scheduler(
            config.push_scheduler, self.catalog, config.cutoff
        )
        self.pull_scheduler = make_pull_scheduler(config.pull_scheduler, alpha=config.alpha)
        self.injector = (
            FaultInjector(config.faults, self.streams) if config.faults.channel_faults else None
        )
        if engine == "population":
            # Imported lazily: repro.scale imports repro.sim submodules,
            # so a top-level import here would cycle through the package
            # __init__ while it is still executing.
            from ..scale.server import PopulationHybridServer

            impl = PopulationHybridServer
        else:
            impl = server_cls
        self.server = impl(
            env=self.env,
            catalog=self.catalog,
            config=config,
            push_scheduler=self.push_scheduler,
            pull_scheduler=self.pull_scheduler,
            pool=self.pool,
            metrics=self.metrics,
            streams=self.streams,
            pull_mode=pull_mode,
            faults=self.injector,
            tracer=tracer,
            profiler=profiler,
            **(server_kwargs or {}),
        )
        from ..obs.manifest import config_hash

        #: Content hash of ``config`` — stamped on traces, checkpoints
        #: and watchdog violations so any artifact names its exact run.
        self.config_hash = config_hash(config)
        if tracer is not None:
            tracer.meta.update(
                seed=self.seed,
                warmup=self.warmup,
                pull_mode=pull_mode,
                cutoff=config.cutoff,
                num_items=config.num_items,
                class_names=config.class_names(),
                pull_scheduler=config.pull_scheduler,
                push_scheduler=config.push_scheduler,
                config_hash=self.config_hash,
            )
        self.uplink = UplinkChannel(
            env=self.env,
            deliver=self.server.submit,
            rate=config.uplink_rate,
            buffer=config.uplink_buffer,
            injector=self.injector,
        )
        self.front: Optional[FaultAwareFront] = None
        if config.faults.client_recovery:
            self.front = FaultAwareFront(
                env=self.env,
                server=self.server,
                uplink=self.uplink,
                faults=config.faults,
                metrics=self.metrics,
                streams=self.streams,
            )
            self.uplink.deliver = self.front.on_delivered
            self.front.tracer = tracer
            front = self.front
        else:
            front = self.server if self.uplink.ideal else _UplinkFront(self.uplink)
        self.watchdog = ConservationWatchdog(
            env=self.env,
            server=self.server,
            metrics=self.metrics,
            uplink=self.uplink,
            front=self.front,
            seed=self.seed,
            config_hash=self.config_hash,
            interval=config.faults.watchdog_interval if config.faults.active else None,
        )
        if trace is not None:
            if arrivals is not None:
                raise ValueError("pass either a trace or an arrivals source, not both")
            arrivals = trace.iter_requests()
        self.driver = None
        if arrivals is not None:
            # Traces and custom sources run unchanged on every engine, one
            # calendar event per arrival.
            self.driver = drive_arrivals(self.env, front, arrivals)
        else:
            samplers = {
                "reference": ArrivalProcess,
                "fast": BatchedArrivals,
                "population": PopulationArrivals,
            }
            sampler = samplers[engine](
                catalog=self.catalog,
                population=self.population,
                rate=config.arrival_rate,
                rng=self.streams.stream("arrivals"),
                priority_weighted=config.priority_weighted_demand,
            )
            if front is self.server and impl.submit is PolicyKernel.submit:
                # Requests reach the kernel's own admission directly: the
                # pending store drains the sampler at its queue-touch
                # points, with no calendar record per arrival.
                self.server.store.attach(sampler)
            else:
                self.driver = drive_arrivals(self.env, front, sampler)

    def run(self, horizon: float) -> SimulationResult:
        """Advance the simulation to ``horizon`` and summarise.

        Can be called once per system instance (state is not reset).
        A final conservation audit always runs at the horizon (the
        watchdog also checks periodically while faults are active); an
        imbalance raises
        :class:`~repro.sim.faults.InvariantViolation`.
        """
        if horizon <= self.warmup:
            raise ValueError(f"horizon {horizon} must exceed warmup {self.warmup}")
        if self.tracer is not None:
            self.tracer.meta["horizon"] = float(horizon)
        profiler = self.profiler
        with profiler.phase("sim.run") if profiler is not None else nullcontext():
            self.env.run(until=horizon)
        # Admit buffered arrivals between the last queue touch and the
        # horizon, as their per-event delivery would have been.
        self.server.store.drain(horizon)
        self.watchdog.check()
        with profiler.phase("metrics.result") if profiler is not None else nullcontext():
            result = self.metrics.result(horizon=horizon, seed=self.seed)
        return replace(
            result,
            uplink_delivered=self.uplink.delivered.count,
            uplink_dropped=self.uplink.dropped.count + self.uplink.corrupted.count,
        )

    def qos_report(self):
        """Tail/jitter/fairness report; requires ``record_qos=True``.

        Returns a :class:`~repro.sim.qos.QoSReport`.
        """
        if self.metrics.qos_recorder is None:
            raise RuntimeError("construct the system with record_qos=True")
        return self.metrics.qos_recorder.report()
