"""One fresh process running one simulation workload of the benchmark.

``run.py`` starts this script once per measurement, so every run pays
interpreter start-up and imports, and its peak RSS is its own.  Modes:

``probe``
    Set up and exit: measures set-up time only.
``timed``
    Run passes of the workload's fixed work back to back until
    ``--seconds`` have been spent (at least one pass).
``traced``
    Install the layer wrappers before anything is built, run one pass
    and report per-layer spans.

The last stdout line is one JSON object.  Times stamped with
``time.monotonic`` are comparable with the parent's, which records when
it spawned this process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from layers import install_sim_layers, report
from spans import SpanLog

from repro.experiments.n_ladder import ladder_config
from repro.experiments.specs import DEFAULT_CUTOFFS, QUICK, paper_config
from repro.perf.benches import single_run_config
from repro.sim import runner
from repro.sim.metrics import MetricsCollector
from repro.sim.system import HybridSystem

IMPORTED_AT = time.monotonic()

#: The Figs. 3–4 grid, as ``python -m repro fig3`` / ``fig4`` run it.
SWEEP_ALPHAS = (0.0, 1.0)
SWEEP_THETAS = (0.2, 0.6, 1.4)

#: Simulated horizon of one pass.  Both systems reach their steady queue
#: within the first tenth, which is the warm-up.
PULL_BACKLOG_HORIZON = 60_000.0
MILLION_CLIENTS_HORIZON = 120.0

#: One pass's timed region, returning the host seconds of each run.
Pass = Callable[[], list[float]]


class Collected:
    """Captures every run's metrics collector for the output digest."""

    def __init__(self) -> None:
        self.collectors: list[MetricsCollector] = []
        original = MetricsCollector.result

        def result(collector: MetricsCollector, *args: Any, **kwargs: Any) -> Any:
            self.collectors.append(collector)
            return original(collector, *args, **kwargs)

        MetricsCollector.result = result

    def take(self) -> tuple[str, int]:
        """Digest and raw arrival count of the runs since the last take.

        Per class and per run: arrivals, satisfied and blocked counts and
        the delay sum, the sum at full precision (hex float).
        """
        rows = []
        arrivals = 0
        for collector in self.collectors:
            arrivals += collector.raw_arrivals
            for name in collector.class_names:
                tally = collector.delay_by_class[name]
                delay_sum = tally.mean * tally.count if tally.count else 0.0
                rows.append(
                    [
                        collector.arrivals_by_class[name].count,
                        tally.count,
                        collector.blocked_by_class[name].count,
                        delay_sum.hex(),
                    ]
                )
        self.collectors = []
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        return digest, arrivals


def paper_sweep(seed: int) -> Callable[[], Pass]:
    configs = [
        paper_config(theta=theta, alpha=alpha).with_cutoff(cutoff)
        for alpha in SWEEP_ALPHAS
        for theta in SWEEP_THETAS
        for cutoff in DEFAULT_CUTOFFS
    ]

    def prepare() -> Pass:
        def sweep() -> list[float]:
            times = []
            for config in configs:
                began = time.perf_counter()
                runner.run_replications(
                    config,
                    num_runs=1,
                    horizon=QUICK.horizon,
                    warmup=QUICK.warmup,
                    base_seed=seed,
                    n_jobs=1,
                )
                times.append(time.perf_counter() - began)
            return times

        return sweep

    return prepare


def one_engine_run(config: Any, engine: str, horizon: float, seed: int) -> Callable[[], Pass]:
    def prepare() -> Pass:
        system = HybridSystem(config, seed=seed, warmup=0.1 * horizon, engine=engine)

        def run() -> list[float]:
            began = time.perf_counter()
            system.run(horizon)
            return [time.perf_counter() - began]

        return run

    return prepare


def make_workload(name: str, seed: int) -> Callable[[], Pass]:
    if name == "paper-sweep":
        return paper_sweep(seed)
    if name == "pull-backlog":
        config, _ = single_run_config(quick=True)
        return one_engine_run(config, "fast", PULL_BACKLOG_HORIZON, seed)
    if name == "million-clients":
        return one_engine_run(
            ladder_config(1_000_000), "population", MILLION_CLIENTS_HORIZON, seed
        )
    raise ValueError(f"unknown simulation workload {name!r}")


def run_pass(work: Pass, collected: Collected) -> dict[str, Any]:
    """One pass of fixed work; a raising run fails the whole pass."""
    began = time.perf_counter()
    try:
        run_s = work()
    except Exception:  # a run that raises is a failed operation, not a crash
        traceback.print_exc()
        collected.take()
        return {"wall_s": time.perf_counter() - began, "run_s": [], "digest": None}
    wall_s = time.perf_counter() - began
    digest, arrivals = collected.take()
    print(f"digest {digest}", file=sys.stderr)
    return {"wall_s": wall_s, "run_s": run_s, "arrivals": arrivals, "digest": digest}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans-out", type=Path, help="raw spans file (traced mode)")
    args = parser.parse_args(argv)
    if args.mode == "traced" and args.spans_out is None:
        parser.error("--mode traced needs --spans-out")

    log = SpanLog()
    observed = install_sim_layers(log) if args.mode == "traced" else None
    collected = Collected()
    prepare = make_workload(args.workload, args.seed)
    work = prepare()
    ready_at = time.monotonic()
    result: dict[str, Any] = {"imported_at": IMPORTED_AT, "ready_at": ready_at}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    # Passes run back to back and stop at the count whose total lands
    # nearest to --seconds: another pass runs while it would end closer to
    # it than stopping now.  The first pass uses the system built during
    # set-up; later ones build theirs before their timer starts, after the
    # previous pass's systems are collected, so no pass pays for another's
    # garbage and peak RSS does not depend on how many passes fit.
    passes = []
    spent = 0.0
    while True:
        log.clear()
        passes.append(run_pass(work, collected))
        last = passes[-1]["wall_s"]
        spent += last
        if args.mode == "traced" or spent + last / 2 >= args.seconds:
            break
        del work
        gc.collect()
        work = prepare()
    result["passes"] = passes
    result["peak_rss_mb"] = peak_rss_mb()
    if observed is not None:
        result["spans"] = report(log, observed, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
