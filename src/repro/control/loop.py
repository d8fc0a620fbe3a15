"""DES-side control loop: windowed metrics in, engine reconfigurations out.

:class:`ControlLoop` runs as a simulation process on any of the three
engines (reference, fast, population): every ``window`` simulated time
units it differences the run's :class:`~repro.sim.metrics.MetricsCollector`
into a :class:`~repro.control.controller.WindowObservation`, feeds the
pure :class:`~repro.control.controller.SLOController` and applies whatever
knob state the decision asks for through the engines' reconfiguration
hooks (``reconfigure_cutoff`` / ``reconfigure_alpha`` /
``reconfigure_bandwidth``).

Windowed delay statistics come from exact moment deltas of the per-class
tallies (count/Σx/Σx² subtraction), so the observation path is identical
on all three engines; the windowed p95 is the Gaussian tail estimate
``mean + 1.645·σ`` of those moments.  The live service layer observes
*empirical* percentiles instead — see ``docs/control.md`` for the engine
support matrix.

Atomic apply: a knob state is installed between simulation events, with
no time passing, so a reconfiguration can never interleave with a
transmission.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..obs.events import ConfigChange, ControllerDegraded
from .controller import ClassWindow, ControlSettings, Decision, SLOController, WindowObservation
from .knobs import KnobBounds, KnobState
from .slo import SLOSpec

if TYPE_CHECKING:
    from ..sim.system import HybridSystem

__all__ = [
    "ControlLoop",
    "MetricsWindower",
    "WindowRecorder",
    "build_controlled_system",
    "default_bounds",
    "empirical_percentile",
    "install_knobs",
    "observations_from_trace",
]

#: One-sided Gaussian 95% quantile for the moment-based p95 estimate.
_Z95 = 1.6448536269514722


def _tally_moments(tally: Any) -> tuple[int, float, float]:
    """``(n, Σx, Σx²)`` of one :class:`~repro.des.monitor.Tally`."""
    n = int(tally.count)
    if n == 0:
        return 0, 0.0, 0.0
    mean = float(tally.mean)
    if n == 1:
        return 1, mean, mean * mean
    m2 = float(tally.variance) * (n - 1)
    total = mean * n
    return n, total, m2 + n * mean * mean


def _window_stats(
    before: tuple[int, float, float], after: tuple[int, float, float]
) -> tuple[int, float, float]:
    """``(n, mean, p95-estimate)`` of the observations between snapshots."""
    n = after[0] - before[0]
    if n <= 0:
        return 0, math.nan, math.nan
    total = after[1] - before[1]
    sq_total = after[2] - before[2]
    mean = total / n
    if n == 1:
        return 1, mean, mean
    variance = max(sq_total - total * mean, 0.0) / (n - 1)
    return n, mean, mean + _Z95 * math.sqrt(variance)


class MetricsWindower:
    """Windowed per-class QoS differenced from a system's metrics.

    The *measurement instrument* shared by :class:`ControlLoop` (which
    feeds a controller) and :class:`WindowRecorder` (which only records):
    each :meth:`observe` call differences the run's
    :class:`~repro.sim.metrics.MetricsCollector` moment tallies against
    the previous call and emits one
    :class:`~repro.control.controller.WindowObservation`.  Identical on
    all three engines — the per-window p95 is the Gaussian tail estimate
    of the moment deltas.
    """

    def __init__(self, system: "HybridSystem") -> None:
        self.system = system
        self._names = list(system.config.class_names())
        collector = system.metrics
        self._prev_delay = {
            name: _tally_moments(collector.delay_by_class[name]) for name in self._names
        }
        self._prev_counts = {
            name: (
                collector.arrivals_by_class[name].count,
                collector.blocked_by_class[name].count,
            )
            for name in self._names
        }
        self._windows_seen = 0

    def observe(self) -> WindowObservation:
        """One window (buffered arrivals admitted first): difference the tallies."""
        system = self.system
        system.server.store.drain(system.env.now)
        collector = system.metrics
        classes: list[tuple[str, ClassWindow]] = []
        for name in self._names:
            now_delay = _tally_moments(collector.delay_by_class[name])
            satisfied, mean, p95 = _window_stats(self._prev_delay[name], now_delay)
            arrivals_now = collector.arrivals_by_class[name].count
            blocked_now = collector.blocked_by_class[name].count
            arrivals_prev, blocked_prev = self._prev_counts[name]
            arrivals = arrivals_now - arrivals_prev
            blocked = blocked_now - blocked_prev
            blocking = blocked / arrivals if arrivals > 0 else math.nan
            classes.append(
                (
                    name,
                    ClassWindow(
                        arrivals=arrivals,
                        satisfied=satisfied,
                        blocked=blocked,
                        delay_mean=mean,
                        delay_p95=p95,
                        blocking=blocking,
                    ),
                )
            )
            self._prev_delay[name] = now_delay
            self._prev_counts[name] = (arrivals_now, blocked_now)
        obs = WindowObservation(
            window=self._windows_seen,
            time=float(system.env.now),
            classes=tuple(classes),
        )
        self._windows_seen += 1
        return obs


class WindowRecorder:
    """Passive windowed QoS observer — the controller-less twin.

    Attaches the same :class:`MetricsWindower` instrument to a system
    *without* a controller, recording one observation per window into
    :attr:`observations`.  Experiments use it to score static (and
    oracle) runs for SLO attainment with exactly the yardstick the
    closed-loop run is measured by
    (:func:`~repro.control.controller.find_violations` over the same
    windowing), so a comparison never mixes measurement methods.
    """

    def __init__(self, system: "HybridSystem", window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = float(window)
        self.observations: list[WindowObservation] = []
        self._windower = MetricsWindower(system)
        self._env = system.env
        self._process = system.env.process(self._run())

    def _run(self) -> Iterator[Any]:
        while True:
            yield self._env.timeout(self.window)
            self.observations.append(self._windower.observe())


class ControlLoop:
    """Closed-loop retuning of one :class:`~repro.sim.system.HybridSystem`.

    Parameters
    ----------
    system:
        The (not yet run) system to control; any engine.
    controller:
        The pure policy object; its baseline must match the system's
        static configuration.
    window:
        Control window in simulated time units.
    """

    def __init__(
        self,
        system: "HybridSystem",
        controller: SLOController,
        window: float,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        config = system.config
        baseline = controller.baseline
        shares = tuple(spec.bandwidth_share for spec in config.class_specs)
        if (
            baseline.cutoff != config.cutoff
            or baseline.alpha != config.alpha
            or any(abs(a - b) > 1e-9 for a, b in zip(baseline.shares, shares))
        ):
            raise ValueError(
                f"controller baseline {baseline} does not match the system "
                f"config (cutoff={config.cutoff}, alpha={config.alpha}, "
                f"shares={shares})"
            )
        self.system = system
        self.controller = controller
        self.window = float(window)
        self.applied = baseline
        self.seq = 0
        self._windower = MetricsWindower(system)
        self._process = system.env.process(self._run())

    # -- observation -----------------------------------------------------------
    def _observe(self) -> WindowObservation:
        return self._windower.observe()

    # -- the process -----------------------------------------------------------
    def _run(self) -> Iterator[Any]:
        while True:
            yield self.system.env.timeout(self.window)
            self._tick()

    def _tick(self) -> None:
        was_degraded = self.controller.degraded
        decision = self.controller.observe(self._observe())
        if decision.degraded and not was_degraded:
            self._emit_degraded(decision)
        if decision.applied is not None:
            source = "failsafe" if decision.degraded else "controller"
            self._apply(decision.applied, source, decision.reason)

    # -- application -----------------------------------------------------------
    def _emit_degraded(self, decision: Decision) -> None:
        fallback = decision.applied if decision.applied is not None else self.applied
        tracer = self.system.tracer
        if tracer is not None:
            tracer.emit(
                ControllerDegraded(
                    time=float(self.system.env.now),
                    reason=self.controller.degraded_reason or "unknown",
                    fallback_cutoff=fallback.cutoff,
                    fallback_alpha=fallback.alpha,
                    fallback_shares=fallback.shares,
                )
            )

    def _apply(self, knobs: KnobState, source: str, reason: str) -> None:
        if knobs == self.applied:
            return
        server = self.system.server
        install_knobs(server, self.applied, knobs, self.seq + 1, source, reason)
        self.system.push_scheduler = server.push_scheduler
        self.applied = knobs
        self.seq += 1

    def status(self) -> dict[str, object]:
        """Loop + controller status (mirrors the service ``/control``)."""
        record = self.controller.status()
        record.update(
            applied=self.applied.to_dict(),
            seq=self.seq,
            window=self.window,
        )
        return record


def install_knobs(
    kernel: Any, old: KnobState, knobs: KnobState, seq: int, source: str, reason: str
) -> None:
    """Install ``knobs`` on a policy kernel, replacing ``old``.

    The one apply path of both controller hosts, :class:`ControlLoop` on
    the engines and the service's
    :class:`~repro.service.control.ServiceControlBridge`: each knob that
    moved goes through the kernel's hook — the cutoff with a push
    scheduler built for it, then α, then the class bandwidth shares — and
    one ``ConfigChange`` numbered ``seq`` is emitted at the kernel's
    ``env.now``.  Whether to apply at all is the host's call.
    """
    if knobs.cutoff != old.cutoff:
        from ..schedulers.registry import make_push_scheduler

        push = make_push_scheduler(kernel.config.push_scheduler, kernel.catalog, knobs.cutoff)
        kernel.reconfigure_cutoff(knobs.cutoff, push)
    if knobs.alpha != old.alpha:
        kernel.reconfigure_alpha(knobs.alpha)
    if tuple(knobs.shares) != tuple(old.shares):
        total = float(kernel.config.total_bandwidth)
        kernel.reconfigure_bandwidth([s * total for s in knobs.shares])
    tracer = kernel.tracer
    if tracer is not None:
        tracer.emit(
            ConfigChange(
                time=float(kernel.env.now),
                seq=seq,
                source=source,
                reason=reason,
                old_cutoff=old.cutoff,
                new_cutoff=knobs.cutoff,
                old_alpha=old.alpha,
                new_alpha=knobs.alpha,
                old_shares=old.shares,
                new_shares=knobs.shares,
            )
        )


def default_bounds(
    config: Any, pull_mode: str = "serial", alpha_tunable: bool = True
) -> KnobBounds:
    """Sensible knob bounds derived from one :class:`HybridConfig`.

    The cutoff may roam the whole catalog (floor 1 in concurrent pull
    mode, which needs a non-empty push set); α is frozen at the config
    value when the pull scheduler has no alpha knob; the share budget is
    exactly what the static config already committed.
    """
    num_items = int(config.num_items)
    shares = tuple(float(spec.bandwidth_share) for spec in config.class_specs)
    alpha = float(config.alpha)
    return KnobBounds(
        cutoff_min=1 if pull_mode == "concurrent" else 0,
        cutoff_max=num_items,
        cutoff_step=max(1, num_items // 20),
        alpha_min=0.0 if alpha_tunable else alpha,
        alpha_max=1.0 if alpha_tunable else alpha,
        alpha_step=0.1,
        share_floor=min(0.02, min(shares)),
        share_step=0.05,
        share_budget=float(sum(shares)),
    )


def build_controlled_system(
    config: Any,
    slo: SLOSpec,
    seed: int = 0,
    warmup: float = 0.0,
    pull_mode: str = "serial",
    engine: str = "reference",
    window: float = 100.0,
    bounds: Optional[KnobBounds] = None,
    settings: Optional[ControlSettings] = None,
    tracer: Any = None,
    arrivals: Any = None,
    record_qos: bool = False,
) -> tuple["HybridSystem", ControlLoop]:
    """A :class:`HybridSystem` with a closed-loop controller attached.

    Returns ``(system, loop)``; run with ``system.run(horizon)`` and read
    the decision log from ``loop.controller.decisions``.
    """
    from ..sim.system import HybridSystem

    system = HybridSystem(
        config,
        seed=seed,
        warmup=warmup,
        pull_mode=pull_mode,  # type: ignore[arg-type]
        arrivals=arrivals,
        tracer=tracer,
        engine=engine,  # type: ignore[arg-type]
        record_qos=record_qos,
    )
    alpha_tunable = hasattr(system.pull_scheduler, "set_alpha")
    if bounds is None:
        bounds = default_bounds(config, pull_mode=pull_mode, alpha_tunable=alpha_tunable)
    baseline = KnobState(
        cutoff=int(config.cutoff),
        alpha=float(config.alpha),
        shares=tuple(float(spec.bandwidth_share) for spec in config.class_specs),
    )
    controller = SLOController(
        spec=slo,
        bounds=bounds,
        baseline=baseline,
        settings=settings if settings is not None else ControlSettings(),
    )
    loop = ControlLoop(system, controller, window=window)
    return system, loop


def empirical_percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method).

    Shared by trace replay and the live service's observation path, both
    of which hold every delay sample of a window (unlike the engines'
    moment-based estimate).
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def observations_from_trace(trace: Any, num_windows: int = 24) -> list[WindowObservation]:
    """Windowed observations reconstructed from a recorded trace.

    The offline twin of the live observation path: ``repro control
    replay`` feeds these to a controller to show the decisions it *would*
    have taken on a recorded run.  Delay percentiles here are empirical
    (the trace has every satisfaction), unlike the engines' moment-based
    estimate.
    """
    if num_windows < 1:
        raise ValueError(f"num_windows must be >= 1, got {num_windows}")
    horizon = trace.meta.get("horizon")
    if horizon is None:
        horizon = max(
            (float(getattr(e, "end", e.time)) for e in trace.events), default=1.0
        )
    horizon = float(horizon)
    names = [str(n) for n in trace.meta.get("class_names", [])]
    if not names:
        ranks = {
            int(e.class_rank) for e in trace.events if hasattr(e, "class_rank")
        }
        names = [f"class-{rank}" for rank in sorted(ranks)]
    width = horizon / num_windows

    def window_of(time: float) -> int:
        index = int(time / width)
        return min(max(index, 0), num_windows - 1)

    arrivals = [[0] * num_windows for _ in names]
    blocked = [[0] * num_windows for _ in names]
    delays: list[list[list[float]]] = [
        [[] for _ in range(num_windows)] for _ in names
    ]
    for event in trace.events:
        kind = event.kind
        if kind == "request_arrived":
            if event.class_rank < len(names):
                arrivals[event.class_rank][window_of(event.time)] += 1
        elif kind == "request_blocked":
            if event.class_rank < len(names):
                blocked[event.class_rank][window_of(event.time)] += 1
        elif kind == "request_satisfied":
            if event.class_rank < len(names):
                delays[event.class_rank][window_of(event.time)].append(
                    float(event.delay)
                )
    observations: list[WindowObservation] = []
    for index in range(num_windows):
        classes: list[tuple[str, ClassWindow]] = []
        for rank, name in enumerate(names):
            samples = delays[rank][index]
            arrived = arrivals[rank][index]
            blocked_n = blocked[rank][index]
            classes.append(
                (
                    name,
                    ClassWindow(
                        arrivals=arrived,
                        satisfied=len(samples),
                        blocked=blocked_n,
                        delay_mean=(
                            sum(samples) / len(samples) if samples else math.nan
                        ),
                        delay_p95=empirical_percentile(samples, 95.0),
                        blocking=blocked_n / arrived if arrived > 0 else math.nan,
                    ),
                )
            )
        observations.append(
            WindowObservation(
                window=index, time=(index + 1) * width, classes=tuple(classes)
            )
        )
    return observations
