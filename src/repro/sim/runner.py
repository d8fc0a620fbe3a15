"""Replicated simulation runs and cross-replication aggregation.

Independent replications (different seeds) are the textbook way to put
confidence intervals on DES output.  :func:`run_replications` executes
``n`` independent runs of one configuration; :class:`ReplicatedResult`
aggregates the per-run summaries (means and 95 % CIs of every headline
metric).

Replications are pure functions of ``(config, seed)`` and therefore
embarrassingly parallel: both drivers accept ``n_jobs`` and hand the runs
to one :class:`~repro.sim.parallel.ParallelExecutor`, which also applies
the optional :class:`~repro.resilience.ResilienceConfig` (timeouts,
retries, quarantine).  Per-run seeds are derived up front with
:func:`spawn_seeds`, so serial, parallel, checkpointed and resumed
execution produce bit-for-bit identical results.  Each driver is one
sequence: spawn seeds, open or resume the optional checkpoint, run the
missing seeds on the executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core.config import HybridConfig
from ..des.monitor import t_quantile
from .metrics import SimulationResult
from .parallel import ParallelExecutor, ResilienceConfig
from .server import PullMode
from .system import Engine, HybridSystem

__all__ = [
    "run_single",
    "run_traced",
    "run_replications",
    "run_until_precision",
    "spawn_seeds",
    "ReplicatedResult",
]


def spawn_seeds(base_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent replication seeds from ``base_seed``.

    Uses ``numpy.random.SeedSequence(base_seed).spawn(n)`` so the derived
    stream families are statistically independent by construction — the
    earlier ``base_seed + i`` convention risked overlapping families for
    adjacent base seeds.  The derivation is deterministic and
    prefix-stable: ``spawn_seeds(s, k)`` is a prefix of
    ``spawn_seeds(s, m)`` for ``k <= m``, which is what lets the
    sequential-stopping driver pre-derive the whole seed schedule.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    children = np.random.SeedSequence(int(base_seed)).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


def run_single(
    config: HybridConfig,
    seed: int = 0,
    horizon: float = 5_000.0,
    warmup: float | None = None,
    pull_mode: PullMode = "serial",
    trace_path: str | Path | None = None,
    engine: Engine = "reference",
    slo=None,
) -> SimulationResult:
    """Run one replication of ``config``.

    ``warmup`` defaults to 10 % of the horizon.  When ``trace_path`` is
    given, the run records a full event trace
    (:class:`~repro.obs.TraceRecorder`) and writes it there as JSONL;
    results are bit-identical with tracing on or off.

    ``engine="fast"`` selects block-drawn arrivals (statistically
    equivalent, not bit-identical); ``engine="population"`` cannot record
    a trace.

    ``slo`` (a :class:`~repro.control.SLOSpec`) attaches the closed-loop
    controller (:func:`~repro.control.build_controlled_system`) with
    default knob bounds and hysteresis, observing ``horizon / 40``-wide
    windows; ``slo=None`` is the exact uncontrolled code path.
    """
    if warmup is None:
        warmup = 0.1 * horizon
    tracer = None
    if trace_path is not None:
        from ..obs import TraceRecorder

        tracer = TraceRecorder()
    if slo is not None:
        unknown = set(slo.class_names) - set(config.class_names())
        if unknown:
            raise ValueError(
                f"SLO names classes {sorted(unknown)} not in the config's "
                f"{list(config.class_names())}"
            )
        from ..control import build_controlled_system

        system, _loop = build_controlled_system(
            config,
            slo,
            seed=seed,
            warmup=warmup,
            pull_mode=pull_mode,
            engine=engine,
            window=horizon / 40.0,
            tracer=tracer,
        )
    else:
        system = HybridSystem(
            config, seed=seed, warmup=warmup, pull_mode=pull_mode, tracer=tracer,
            engine=engine,
        )
    result = system.run(horizon)
    if tracer is not None:
        from ..obs import write_trace

        write_trace(tracer.trace(), trace_path)
    return result


def run_traced(
    config: HybridConfig,
    seed: int = 0,
    horizon: float = 5_000.0,
    warmup: float | None = None,
    pull_mode: PullMode = "serial",
    gamma_snapshots: bool = True,
    profiler=None,
    engine: Engine = "reference",
):
    """Run one replication with in-memory tracing.

    Returns ``(result, trace)`` — the usual
    :class:`~repro.sim.metrics.SimulationResult` plus the recorded
    :class:`~repro.obs.Trace`.  An optional
    :class:`~repro.obs.PhaseProfiler` collects per-phase wall time.
    ``engine`` is ``"reference"`` or ``"fast"``.
    """
    from ..obs import TraceRecorder

    if warmup is None:
        warmup = 0.1 * horizon
    tracer = TraceRecorder(gamma_snapshots=gamma_snapshots)
    system = HybridSystem(
        config,
        seed=seed,
        warmup=warmup,
        pull_mode=pull_mode,
        tracer=tracer,
        profiler=profiler,
        engine=engine,
    )
    result = system.run(horizon)
    return result, tracer.trace()


def _replication_task(task: tuple) -> SimulationResult:
    """Module-level worker payload: one replication (picklable for pools)."""
    config, seed, horizon, warmup, pull_mode, trace_path, engine, slo = task
    return run_single(
        config,
        seed=seed,
        horizon=horizon,
        warmup=warmup,
        pull_mode=pull_mode,
        trace_path=trace_path,
        engine=engine,
        slo=slo,
    )


def _mean_ci(values: Sequence[float], level: float = 0.95) -> tuple[float, float]:
    """Mean and half-width of a Student-t CI, ignoring NaNs."""
    x = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if x.size == 0:
        return (math.nan, math.nan)
    if x.size == 1:
        return (float(x[0]), math.nan)
    half = float(t_quantile(level, x.size - 1) * x.std(ddof=1) / math.sqrt(x.size))
    return (float(x.mean()), half)


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregate of several independent replications of one configuration."""

    runs: tuple[SimulationResult, ...]
    #: Set by :func:`run_until_precision`: ``True`` if the target relative
    #: half-width was reached, ``False`` if the run budget (``max_runs``)
    #: was exhausted first, ``None`` for fixed-size replication sets.
    precision_met: bool | None = None
    #: Per-run JSONL trace files (seed order) when the replication driver
    #: ran with ``trace_dir``; ``None`` otherwise.  The same directory
    #: also holds the merged stream (``trace-merged.jsonl``) and the run
    #: manifest (``manifest.json``).
    trace_paths: tuple[str, ...] | None = None
    #: Runs that exhausted their retry budget under a resilient sweep
    #: (tuple of :class:`~repro.resilience.QuarantinedRun`).  Quarantined
    #: runs are excluded from every aggregate above but always listed in
    #: :meth:`summary` — a sweep never silently drops a seed.
    quarantine: tuple = ()

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("need at least one run")

    @property
    def num_runs(self) -> int:
        """Number of replications aggregated."""
        return len(self.runs)

    @property
    def class_names(self) -> list[str]:
        """Service-class labels (from the first run)."""
        return list(self.runs[0].per_class_delay)

    # -- aggregated metrics -----------------------------------------------------
    def delay(self, class_name: str) -> tuple[float, float]:
        """(mean, CI half-width) of one class's mean delay across runs."""
        return _mean_ci([r.per_class_delay[class_name] for r in self.runs])

    def pull_delay(self, class_name: str) -> tuple[float, float]:
        """(mean, CI half-width) of one class's mean *pull* delay."""
        return _mean_ci([r.per_class_pull_delay[class_name] for r in self.runs])

    def cost(self, class_name: str) -> tuple[float, float]:
        """(mean, CI half-width) of one class's prioritized cost."""
        return _mean_ci([r.per_class_cost[class_name] for r in self.runs])

    def blocking(self, class_name: str) -> tuple[float, float]:
        """(mean, CI half-width) of one class's blocking fraction."""
        return _mean_ci([r.per_class_blocking[class_name] for r in self.runs])

    def overall_delay(self) -> tuple[float, float]:
        """(mean, CI half-width) of the overall mean delay."""
        return _mean_ci([r.overall_delay for r in self.runs])

    def total_cost(self) -> tuple[float, float]:
        """(mean, CI half-width) of the total prioritized cost."""
        return _mean_ci([r.total_prioritized_cost for r in self.runs])

    def per_class_delays(self) -> Mapping[str, float]:
        """Class → mean delay point estimates."""
        return {name: self.delay(name)[0] for name in self.class_names}

    def summary(self) -> str:
        """Human-readable digest across replications."""
        lines = [f"{self.num_runs} replications"]
        if self.precision_met is not None:
            lines[0] += (
                " (precision target met)"
                if self.precision_met
                else " (run budget exhausted before precision target)"
            )
        overall, half = self.overall_delay()
        total_c, total_ch = self.total_cost()
        lines.append(
            f"overall delay {overall:.2f} ± {half:.2f}; "
            f"total cost {total_c:.2f} ± {total_ch:.2f}"
        )
        for name in self.class_names:
            d, dh = self.delay(name)
            c, ch = self.cost(name)
            b, bh = self.blocking(name)
            lines.append(
                f"  class {name}: delay {d:8.2f} ± {dh:5.2f}  "
                f"cost {c:8.2f} ± {ch:5.2f}  blocking {b:6.2%} ± {bh:6.2%}"
            )
        delivered = sum(r.uplink_delivered for r in self.runs)
        dropped = sum(r.uplink_dropped for r in self.runs)
        abandoned = sum(r.uplink_abandoned for r in self.runs)
        if dropped or abandoned:
            lines.append(
                f"uplink: delivered={delivered} dropped={dropped} abandoned={abandoned}"
            )
        reneged = sum(r.reneged_requests for r in self.runs)
        shed = sum(r.shed_requests for r in self.runs)
        if reneged or shed:
            line = f"degradation: reneged={reneged} shed={shed}"
            rejected = sum(r.overload_rejections for r in self.runs)
            if rejected:
                line += f" (overload-rejected={rejected})"
            lines.append(line + " (totals across runs)")
        if self.quarantine:
            lines.append(
                f"quarantined: {len(self.quarantine)} run(s) excluded from the "
                "aggregates after repeated failure"
            )
            for entry in self.quarantine:
                lines.append(f"  {entry.describe()}")
        return "\n".join(lines)


def run_replications(
    config: HybridConfig,
    num_runs: int = 5,
    horizon: float = 5_000.0,
    warmup: float | None = None,
    base_seed: int = 0,
    pull_mode: PullMode = "serial",
    n_jobs: int = 1,
    trace_dir: str | Path | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    resilience=None,
    engine: Engine = "reference",
    slo=None,
) -> ReplicatedResult:
    """Run ``num_runs`` independent replications of ``config``.

    Per-run seeds come from :func:`spawn_seeds`, so every replication has
    a provably independent random-stream family, and any fixed
    ``base_seed`` is exactly reproducible.

    ``n_jobs`` fans the runs out over a process pool (``-1`` = all
    cores); results are identical for every ``n_jobs``.

    ``trace_dir`` arms full event tracing: each replication (worker
    processes included) writes its own JSONL trace into the directory,
    and the driver merges them into one ordered, seed-attributed stream
    (``trace-merged.jsonl``) plus a run manifest (``manifest.json``).
    Results stay bit-identical with tracing on or off and for every
    ``n_jobs``.

    ``checkpoint_dir`` arms crash-safe sweeps: every completed
    replication is persisted atomically
    (:class:`~repro.resilience.CheckpointStore`), and ``resume=True``
    skips the runs already on disk — the resumed aggregate is
    bit-identical to an uninterrupted sweep because runs are pure
    functions of ``(config, seed)``.  A checkpoint of a *different*
    sweep (config hash, base seed, horizon, warm-up, pull mode, engine
    or SLO spec mismatch) refuses to resume with
    :class:`~repro.resilience.CheckpointMismatch`.

    ``resilience`` (a :class:`~repro.resilience.ResilienceConfig`) arms
    fault-tolerant execution: per-run timeouts, crash retries, and a
    quarantine list on the returned aggregate.  A checkpointed sweep
    without it runs under the default ``ResilienceConfig()``; an
    unarmed sweep raises the first failing run's own exception.

    ``slo`` attaches the closed-loop controller to every replication
    (see :func:`run_single`).
    """
    if num_runs < 1:
        raise ValueError(f"num_runs must be >= 1, got {num_runs}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if trace_dir is not None and engine == "population":
        raise ValueError("trace_dir requires engine='reference' or 'fast'")
    if trace_dir is not None and (checkpoint_dir is not None or resilience is not None):
        raise ValueError(
            "trace_dir cannot be combined with checkpointed/resilient sweeps; "
            "record traces in a plain run_replications call"
        )
    seeds = spawn_seeds(base_seed, num_runs)
    store, done = _open_checkpoint(
        checkpoint_dir,
        config,
        base_seed,
        seeds,
        horizon,
        warmup,
        pull_mode,
        resume,
        extra={
            "num_runs": num_runs,
            "n_jobs": n_jobs,
            "engine": engine,
            "slo": None if slo is None else slo.to_dict(),
        },
    )
    trace_paths: Optional[list[Path]] = None
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_paths = [
            trace_dir / f"trace-run{index:03d}-seed{seed}.jsonl"
            for index, seed in enumerate(seeds)
        ]
    todo = [index for index, seed in enumerate(seeds) if seed not in done]
    tasks = [
        (
            config,
            seeds[index],
            horizon,
            warmup,
            pull_mode,
            None if trace_paths is None else trace_paths[index],
            engine,
            slo,
        )
        for index in todo
    ]
    with _sweep_executor(n_jobs, checkpoint_dir, resilience) as executor:
        outcome = executor.run(
            _replication_task,
            tasks,
            keys=[seeds[index] for index in todo],
            on_result=None if store is None else store.save,
        )
    done.update((seeds[index], value) for index, value in zip(todo, outcome.results))
    runs = tuple(done[seed] for seed in seeds if done[seed] is not None)
    if not runs:
        raise RuntimeError(
            f"every replication was quarantined ({len(outcome.quarantined)} of "
            f"{num_runs}); first failure: {outcome.quarantined[0].describe()}"
        )
    if trace_paths is None:
        return ReplicatedResult(runs=runs, quarantine=outcome.quarantined)
    from ..obs import build_manifest, merge_trace_files, write_manifest, write_merged

    write_merged(merge_trace_files(trace_paths), trace_dir / "trace-merged.jsonl")
    write_manifest(
        build_manifest(
            config=config,
            base_seed=base_seed,
            seeds=seeds,
            horizon=horizon,
            warmup=warmup,
            pull_mode=pull_mode,
            extra={"num_runs": num_runs, "n_jobs": n_jobs},
        ),
        trace_dir / "manifest.json",
    )
    return ReplicatedResult(
        runs=runs, trace_paths=tuple(str(path) for path in trace_paths)
    )


def _open_checkpoint(
    checkpoint_dir, config, base_seed, seeds, horizon, warmup, pull_mode, resume, extra
):
    """Open the optional sweep checkpoint; return it with the runs it holds.

    Without ``checkpoint_dir`` the store is ``None``; without ``resume``
    no run is loaded.  Runs load in sorted seed order.
    """
    if checkpoint_dir is None:
        return None, {}
    # Lazy import: repro.resilience imports sim.metrics, so a top-level
    # import here would be circular.
    from ..resilience import CheckpointStore

    store = CheckpointStore(checkpoint_dir)
    store.open(
        config,
        base_seed=base_seed,
        seeds=seeds,
        horizon=horizon,
        warmup=warmup,
        pull_mode=pull_mode,
        resume=resume,
        extra=extra,
    )
    done: dict[int, SimulationResult] = {}
    if resume:
        for seed in sorted(store.completed_seeds() & set(seeds)):
            loaded = store.load(seed)
            if loaded is not None:
                done[seed] = loaded
    return store, done


def _sweep_executor(n_jobs: int, checkpoint_dir, resilience) -> ParallelExecutor:
    """The executor of one sweep; a checkpointed sweep retries by default."""
    if resilience is None and checkpoint_dir is not None:
        resilience = ResilienceConfig()
    return ParallelExecutor(n_jobs, resilience)


def run_until_precision(
    config: HybridConfig,
    rel_halfwidth: float = 0.05,
    metric: str = "overall_delay",
    min_runs: int = 3,
    max_runs: int = 30,
    horizon: float = 5_000.0,
    warmup: float | None = None,
    base_seed: int = 0,
    pull_mode: PullMode = "serial",
    n_jobs: int = 1,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    resilience=None,
    engine: Engine = "reference",
) -> ReplicatedResult:
    """Add replications until the CI half-width is small enough.

    The classic sequential stopping rule: after ``min_runs`` pilot
    replications, keep adding one until the 95 % confidence half-width of
    ``metric`` is below ``rel_halfwidth`` of its mean (or ``max_runs`` is
    reached).  The returned aggregate's ``precision_met`` flag records
    which happened: ``True`` when the target was reached, ``False`` when
    the run budget ran out first.

    The first batch holds every pilot; each later batch holds the next
    ``n_jobs`` seeds, all on one pool.  The stopping rule is still evaluated
    one run at a time in seed order (surplus batch results are
    discarded), so the returned aggregate is bit-for-bit identical for
    every ``n_jobs``.

    Parameters
    ----------
    metric:
        ``"overall_delay"``, ``"total_cost"``, or a per-class selector
        ``"delay:<class>"``, ``"cost:<class>"`` or ``"blocking:<class>"``
        (e.g. ``"delay:A"``, ``"blocking:C"``).
    checkpoint_dir, resume, resilience:
        Crash-safe / fault-tolerant sweep controls, exactly as in
        :func:`run_replications`.  Because the stopping rule consumes
        runs strictly in seed order, a resumed sequential sweep stops at
        the same run and returns a bit-identical aggregate.  Seeds whose
        runs are quarantined are skipped by the stopping rule and listed
        on the result.
    """
    if not 0 < rel_halfwidth < 1:
        raise ValueError(f"rel_halfwidth must be in (0,1), got {rel_halfwidth}")
    if not 1 <= min_runs <= max_runs:
        raise ValueError(f"need 1 <= min_runs <= max_runs, got {min_runs}, {max_runs}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")

    _per_class = {"delay": ReplicatedResult.delay, "cost": ReplicatedResult.cost,
                  "blocking": ReplicatedResult.blocking}

    def precision(agg: ReplicatedResult) -> tuple[float, float]:
        if metric == "overall_delay":
            return agg.overall_delay()
        if metric == "total_cost":
            return agg.total_cost()
        kind, _, class_name = metric.partition(":")
        if class_name and kind in _per_class:
            if class_name not in agg.class_names:
                raise ValueError(
                    f"unknown class {class_name!r} in metric {metric!r}; "
                    f"classes are {agg.class_names}"
                )
            return _per_class[kind](agg, class_name)
        raise ValueError(f"unknown metric {metric!r}")

    seeds = spawn_seeds(base_seed, max_runs)
    store, done = _open_checkpoint(
        checkpoint_dir,
        config,
        base_seed,
        seeds,
        horizon,
        warmup,
        pull_mode,
        resume,
        extra={"max_runs": max_runs, "metric": metric, "n_jobs": n_jobs,
               "engine": engine},
    )
    # ``done`` maps a seed to its run, or to None once it is quarantined.
    quarantine: list = []
    runs: list[SimulationResult] = []
    with _sweep_executor(n_jobs, checkpoint_dir, resilience) as executor:
        for index, seed in enumerate(seeds):
            if seed not in done:
                window = seeds[index : max(min_runs, index + executor.n_jobs)]
                batch = [s for s in window if s not in done]
                outcome = executor.run(
                    _replication_task,
                    [(config, s, horizon, warmup, pull_mode, None, engine, None)
                     for s in batch],
                    keys=batch,
                    on_result=None if store is None else store.save,
                )
                done.update(zip(batch, outcome.results))
                quarantine.extend(outcome.quarantined)
            if done[seed] is None:
                continue
            runs.append(done[seed])
            if len(runs) < min_runs:
                continue
            mean, half = precision(ReplicatedResult(runs=tuple(runs)))
            if not math.isnan(half) and mean != 0 and half / abs(mean) <= rel_halfwidth:
                return ReplicatedResult(
                    runs=tuple(runs), precision_met=True, quarantine=tuple(quarantine)
                )
    if not runs:
        raise RuntimeError(
            f"every replication was quarantined ({len(quarantine)} of "
            f"{max_runs}); first failure: {quarantine[0].describe()}"
        )
    return ReplicatedResult(
        runs=tuple(runs), precision_met=False, quarantine=tuple(quarantine)
    )
