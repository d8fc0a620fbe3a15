"""Command-line interface: regenerate any of the paper's figures.

Usage::

    python -m repro list                 # show available experiments
    python -m repro fig3                 # quick-scale run of Figure 3
    python -m repro fig7 --full          # publication-scale run
    python -m repro all --quick          # every experiment

    python -m repro trace record out.jsonl --seed 3   # record a trace
    python -m repro trace inspect out.jsonl --timelines
    python -m repro trace validate out.jsonl
    python -m repro trace diff a.jsonl b.jsonl

    python -m repro sweep run --checkpoint ck/ --runs 20 --jobs 4
    python -m repro sweep run --checkpoint ck/ --resume   # finish a killed sweep
    python -m repro sweep run --slo slo.json --runs 5     # closed-loop sweep

    python -m repro control check slo.json                # validate an SLO spec
    python -m repro control replay out.jsonl --slo slo.json

    python -m repro lint src/repro        # determinism static analysis
    python -m repro lint --list-rules

    python -m repro serve --port 8080 --trace soak.jsonl   # live service
    python -m repro loadgen --port 8080 --rate 80 --surge 2:4:3

Also installed as the ``repro-experiments`` console script.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from .experiments.specs import FULL, QUICK, ExperimentScale

__all__ = [
    "main",
    "build_parser",
    "build_trace_parser",
    "trace_main",
    "build_sweep_parser",
    "sweep_main",
    "build_control_parser",
    "control_main",
]


def build_trace_parser() -> argparse.ArgumentParser:
    """Parser of the ``trace`` subcommand family (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments trace",
        description="Record, inspect, validate and diff simulation traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run one traced replication to a JSONL file")
    record.add_argument("out", help="output trace path (JSONL)")
    record.add_argument("--seed", type=int, default=0, help="replication seed")
    record.add_argument("--horizon", type=float, default=500.0, help="simulated horizon")
    record.add_argument("--warmup", type=float, default=50.0, help="warm-up span")
    record.add_argument(
        "--pull-mode", choices=("serial", "concurrent"), default="serial"
    )
    record.add_argument("--items", type=int, default=50, help="catalog size")
    record.add_argument("--cutoff", type=int, default=15, help="push/pull cutoff K")
    record.add_argument("--rate", type=float, default=2.0, help="aggregate arrival rate")
    record.add_argument("--clients", type=int, default=50, help="population size")
    record.add_argument(
        "--faults", action="store_true", help="arm the fault-injection layer"
    )
    record.add_argument(
        "--no-gamma",
        action="store_true",
        help="skip per-selection gamma snapshots (O(queue) each)",
    )
    record.add_argument(
        "--profile", action="store_true", help="print per-phase wall-time counters"
    )

    inspect = sub.add_parser("inspect", help="summarise a recorded trace")
    inspect.add_argument("trace", help="trace path (JSONL)")
    inspect.add_argument(
        "--timelines", action="store_true", help="render windowed QoS timelines"
    )
    inspect.add_argument(
        "--windows", type=int, default=24, help="number of timeline windows"
    )

    validate = sub.add_parser("validate", help="prove trace invariants")
    validate.add_argument("trace", help="trace path (JSONL)")
    validate.add_argument(
        "--pull-mode",
        choices=("serial", "concurrent"),
        default=None,
        help="override the pull mode recorded in the trace header",
    )

    diff = sub.add_parser("diff", help="compare two recorded traces")
    diff.add_argument("left", help="baseline trace path")
    diff.add_argument("right", help="candidate trace path")
    return parser


def _trace_record(args: argparse.Namespace) -> int:
    from .core import FaultConfig, HybridConfig
    from .obs import build_manifest, write_manifest, write_trace
    from .sim import run_traced

    faults = FaultConfig()
    if args.faults:
        faults = FaultConfig(
            downlink_loss=0.12,
            uplink_loss=0.08,
            max_retries=2,
            backoff_base=1.0,
            queue_capacity=25,
            class_deadlines=(80.0, 60.0, 40.0),
        )
    config = HybridConfig(
        num_items=args.items,
        cutoff=args.cutoff,
        arrival_rate=args.rate,
        num_clients=args.clients,
        faults=faults,
    )
    profiler = None
    if args.profile:
        from .obs import PhaseProfiler

        profiler = PhaseProfiler()
    result, trace = run_traced(
        config,
        seed=args.seed,
        horizon=args.horizon,
        warmup=args.warmup,
        pull_mode=args.pull_mode,
        gamma_snapshots=not args.no_gamma,
        profiler=profiler,
    )
    path = write_trace(trace, args.out)
    manifest_path = Path(args.out).with_suffix(".manifest.json")
    write_manifest(
        build_manifest(
            config=config,
            base_seed=args.seed,
            seeds=[args.seed],
            horizon=args.horizon,
            warmup=args.warmup,
            pull_mode=args.pull_mode,
        ),
        manifest_path,
    )
    print(trace.summary())
    print(f"overall mean delay: {result.overall_delay:.4g}")
    print(f"trace written to {path}")
    print(f"manifest written to {manifest_path}")
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def _trace_inspect(args: argparse.Namespace) -> int:
    from .obs import read_trace, render_timelines

    trace = read_trace(args.trace)
    print(trace.summary())
    if args.timelines:
        print()
        print(render_timelines(trace, num_windows=args.windows))
    return 0


def _trace_validate(args: argparse.Namespace) -> int:
    from .obs import TraceValidator, read_trace

    trace = read_trace(args.trace)
    report = TraceValidator(trace, pull_mode=args.pull_mode).validate(strict=False)
    print(report.summary())
    return 0 if report.ok else 1


def _trace_diff(args: argparse.Namespace) -> int:
    from .obs import diff_traces, read_trace

    diff = diff_traces(read_trace(args.left), read_trace(args.right))
    print(diff.summary())
    return 0 if diff.identical else 1


def trace_main(argv: Sequence[str]) -> int:
    """Entry point of ``repro trace <command>``; returns an exit code."""
    args = build_trace_parser().parse_args(list(argv))
    handler = {
        "record": _trace_record,
        "inspect": _trace_inspect,
        "validate": _trace_validate,
        "diff": _trace_diff,
    }[args.command]
    return handler(args)


def build_sweep_parser() -> argparse.ArgumentParser:
    """Parser of the ``sweep`` subcommand family (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description=(
            "Run replication sweeps with crash-safe checkpointing and "
            "fault-tolerant workers (see docs/resilience.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a checkpointed, fault-tolerant replication sweep"
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint directory (atomic per-run persistence)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint directory, skipping completed runs",
    )
    run.add_argument("--runs", type=int, default=5, help="number of replications")
    run.add_argument("--seed", type=int, default=0, help="base seed of the sweep")
    run.add_argument("--horizon", type=float, default=500.0, help="simulated horizon")
    run.add_argument(
        "--warmup", type=float, default=None, help="warm-up span (default 10%% of horizon)"
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (-1 = all cores); results identical for every N",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock timeout (needs --jobs > 1 to be enforced)",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="attempts beyond the first before a run is quarantined",
    )
    run.add_argument(
        "--pull-mode", choices=("serial", "concurrent"), default="serial"
    )
    run.add_argument(
        "--engine",
        choices=("reference", "fast", "population"),
        default="reference",
        help=(
            "simulation core: the reference engine, the fast engine (the same "
            "driver with block-drawn arrivals: statistically equivalent, ~1.8x "
            "faster; see docs/performance.md), or the population-aggregated "
            "engine for million-client scenarios (see docs/scale.md)"
        ),
    )
    run.add_argument("--items", type=int, default=50, help="catalog size")
    run.add_argument("--cutoff", type=int, default=15, help="push/pull cutoff K")
    run.add_argument("--rate", type=float, default=2.0, help="aggregate arrival rate")
    run.add_argument("--clients", type=int, default=50, help="population size")
    run.add_argument(
        "--faults", action="store_true", help="arm the fault-injection layer"
    )
    run.add_argument(
        "--slo",
        default=None,
        metavar="PATH",
        help=(
            "per-class SLO spec (JSON); attaches the closed-loop controller "
            "to every replication (see docs/control.md)"
        ),
    )
    return parser


def _sweep_run(args: argparse.Namespace) -> int:
    from .control import SLOError, load_slo
    from .core import FaultConfig, HybridConfig
    from .resilience import CheckpointMismatch, ResilienceConfig
    from .sim import run_replications

    slo = None
    if args.slo is not None:
        try:
            slo = load_slo(args.slo)
        except (OSError, SLOError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    faults = FaultConfig()
    if args.faults:
        faults = FaultConfig(
            downlink_loss=0.12,
            uplink_loss=0.08,
            max_retries=2,
            backoff_base=1.0,
            queue_capacity=25,
            class_deadlines=(80.0, 60.0, 40.0),
        )
    config = HybridConfig(
        num_items=args.items,
        cutoff=args.cutoff,
        arrival_rate=args.rate,
        num_clients=args.clients,
        faults=faults,
    )
    try:
        resilience = ResilienceConfig(
            timeout=args.timeout, max_retries=args.max_retries
        )
        aggregate = run_replications(
            config,
            num_runs=args.runs,
            horizon=args.horizon,
            warmup=args.warmup,
            base_seed=args.seed,
            pull_mode=args.pull_mode,
            n_jobs=args.jobs,
            checkpoint_dir=args.checkpoint,
            resume=args.resume,
            resilience=resilience,
            engine=args.engine,
            slo=slo,
        )
    except (CheckpointMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(aggregate.summary())
    if args.checkpoint is not None:
        print(f"checkpoint: {args.checkpoint} ({aggregate.num_runs} runs persisted)")
    return 1 if aggregate.quarantine else 0


def sweep_main(argv: Sequence[str]) -> int:
    """Entry point of ``repro sweep <command>``; returns an exit code."""
    args = build_sweep_parser().parse_args(list(argv))
    handler = {"run": _sweep_run}[args.command]
    return handler(args)


def build_control_parser() -> argparse.ArgumentParser:
    """Parser of the ``control`` subcommand family (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments control",
        description=(
            "Validate SLO specs and replay recorded traces through the "
            "closed-loop controller (see docs/control.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate an SLO spec file")
    check.add_argument("slo", help="SLO spec path (JSON)")

    replay = sub.add_parser(
        "replay",
        help="replay a recorded trace through a fresh controller",
        description=(
            "Reconstruct windowed per-class QoS from a recorded trace and "
            "feed it to an offline controller: the decision log shows what "
            "the closed loop *would* have done on that run.  The trace does "
            "not carry the knob baseline, so pass the recording's --items/"
            "--cutoff/--alpha if they differed from the defaults."
        ),
    )
    replay.add_argument("trace", help="trace path (JSONL)")
    replay.add_argument("--slo", required=True, help="SLO spec path (JSON)")
    replay.add_argument(
        "--windows", type=int, default=24, help="observation windows over the trace"
    )
    replay.add_argument(
        "--items", type=int, default=50, help="catalog size of the recorded run"
    )
    replay.add_argument(
        "--cutoff", type=int, default=15, help="cutoff K of the recorded run"
    )
    replay.add_argument(
        "--alpha", type=float, default=0.5, help="alpha of the recorded run"
    )
    replay.add_argument(
        "--pull-mode", choices=("serial", "concurrent"), default="serial"
    )
    return parser


def _control_check(args: argparse.Namespace) -> int:
    from .control import SLOError, load_slo

    try:
        spec = load_slo(args.slo)
    except SLOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.slo}: valid SLO spec, {len(spec.class_names)} class(es)")
    for name in spec.class_names:
        target = spec.for_class(name)
        if target.unbounded:
            print(f"  class {name}: unconstrained (best effort)")
            continue
        parts = []
        if target.delay_mean is not None:
            parts.append(f"delay_mean <= {target.delay_mean:g}")
        if target.delay_p95 is not None:
            parts.append(f"delay_p95 <= {target.delay_p95:g}")
        if target.blocking is not None:
            parts.append(f"blocking <= {target.blocking:g}")
        print(f"  class {name}: " + ", ".join(parts))
    return 0


def _control_replay(args: argparse.Namespace) -> int:
    from .control import (
        KnobState,
        SLOController,
        SLOError,
        default_bounds,
        load_slo,
        observations_from_trace,
    )
    from .core import HybridConfig
    from .obs import read_trace

    try:
        spec = load_slo(args.slo)
    except SLOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = HybridConfig(
        num_items=args.items, cutoff=args.cutoff, alpha=args.alpha
    )
    trace = read_trace(args.trace)
    observations = observations_from_trace(trace, num_windows=args.windows)
    controller = SLOController(
        spec=spec,
        bounds=default_bounds(config, pull_mode=args.pull_mode),
        baseline=KnobState(
            cutoff=int(config.cutoff),
            alpha=float(config.alpha),
            shares=tuple(
                float(s.bandwidth_share) for s in config.class_specs
            ),
        ),
    )
    print(f"replaying {len(observations)} window(s) from {args.trace}")
    for obs in observations:
        decision = controller.observe(obs)
        marker = "!" if decision.degraded else ("*" if decision.applied else " ")
        line = (
            f" {marker} window {obs.window:3d}  t={obs.time:10.1f}  "
            f"{decision.reason}"
        )
        if decision.violations:
            line += "  [" + ", ".join(decision.violations) + "]"
        if decision.applied is not None:
            knobs = decision.applied
            shares = "/".join(f"{s:.2f}" for s in knobs.shares)
            line += f"  -> K={knobs.cutoff} alpha={knobs.alpha:.2f} shares={shares}"
        print(line)
    status = controller.status()
    print()
    print(
        f"decisions: {status['windows']} window(s), {status['changes']} "
        f"change(s) applied; final K={controller.knobs.cutoff} "
        f"alpha={controller.knobs.alpha:.2f}"
    )
    if controller.degraded:
        print(f"controller DEGRADED: {controller.degraded_reason}")
        return 1
    return 0


def control_main(argv: Sequence[str]) -> int:
    """Entry point of ``repro control <command>``; returns an exit code."""
    args = build_control_parser().parse_args(list(argv))
    handler = {"check": _control_check, "replay": _control_replay}[args.command]
    return handler(args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of 'A New Service Classification "
            "Strategy in Hybrid Scheduling to Support Differentiated QoS in "
            "Wireless Data Networks' (ICPP 2005)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'export', or 'list'",
    )
    parser.add_argument(
        "--out",
        default="figures",
        help="output directory for 'export' (default: ./figures)",
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick",
        action="store_true",
        help="short horizons / single seed (default)",
    )
    scale.add_argument(
        "--full",
        action="store_true",
        help="publication-scale horizons and replications",
    )
    parser.add_argument(
        "--horizon", type=float, default=None, help="override the simulated horizon"
    )
    parser.add_argument(
        "--seeds", type=int, default=None, help="override the number of replications"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run each sweep point's replications over N worker processes "
            "(-1 = all cores); results are identical for every N"
        ),
    )
    return parser


def _resolve_scale(args: argparse.Namespace) -> ExperimentScale:
    scale = FULL if args.full else QUICK
    if args.horizon is not None or args.seeds is not None:
        scale = ExperimentScale(
            horizon=args.horizon if args.horizon is not None else scale.horizon,
            num_seeds=args.seeds if args.seeds is not None else scale.num_seeds,
        )
    if args.jobs is not None:
        scale = scale.with_jobs(args.jobs)
    return scale


def _render_listing() -> str:
    lines = ["available experiments:"]
    for experiment in EXPERIMENTS.values():
        lines.append(
            f"  {experiment.experiment_id:<16} {experiment.paper_reference:<22} "
            f"{experiment.description}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Reader (e.g. `| head`) went away mid-print; dup devnull over
        # stdout so the interpreter's flush-at-exit doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the conventional shell status


def _dispatch(argv: list) -> int:
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "control":
        return control_main(argv[1:])
    if argv and argv[0] == "lint":
        from .qa.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        from .perf.cli import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        from .service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        from .service.cli import loadgen_main

        return loadgen_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        print(_render_listing())
        return 0

    scale = _resolve_scale(args)

    if args.experiment == "export":
        from .experiments.export import export_all_figures

        written = export_all_figures(args.out, scale=scale)
        for path in written:
            print(path)
        print(f"exported {len(written)} files to {args.out}/")
        return 0
    targets = experiment_ids() if args.experiment == "all" else [args.experiment]
    for target in targets:
        if target not in EXPERIMENTS:
            print(f"error: unknown experiment {target!r}", file=sys.stderr)
            print(_render_listing(), file=sys.stderr)
            return 2
    for target in targets:
        experiment = EXPERIMENTS[target]
        # Operator-facing progress timing only; never enters a result.
        started = time.perf_counter()  # reprolint: disable=no-wallclock
        print(f"=== {experiment.experiment_id} ({experiment.paper_reference}) ===")
        print(experiment.description)
        print()
        print(run_experiment(target, scale))
        elapsed = time.perf_counter() - started  # reprolint: disable=no-wallclock
        print(f"\n[{experiment.experiment_id} done in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
