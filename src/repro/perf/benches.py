"""The benchmark suite: each function times one guarded fast path.

Every benchmark reports a *speedup ratio* (reference implementation over
optimised implementation) rather than absolute wall-clock, because ratios
transfer across machines far better than seconds do.  The regression gate
in :mod:`repro.perf.harness` compares ratios — except for the parallel
sweep, whose ratio depends on the host's core count and is gated by an
absolute per-machine-profile floor instead (see ``PARALLEL_FLOORS``).

Wall-clock reads in this package are the point, not an accident; the
``repro.perf`` scope carries an audited RL001 exemption whose finding
count is pinned by ``tests/qa/test_self_clean.py``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from ..core import HybridConfig
from ..schedulers import PullQueue, make_pull_scheduler
from ..sim import HybridSystem, run_replications
from ..workload import ItemCatalog, Request

__all__ = [
    "BENCHMARKS",
    "REPEATS",
    "bench_select_hot_loop",
    "bench_single_run",
    "bench_fast_engine",
    "bench_sweep_parallel",
    "bench_population_scale",
    "single_run_config",
]

#: Timing repeats per measurement; the minimum is reported.  Shared CI
#: hosts jitter badly enough that single-shot timings flake a 25% gate,
#: and min-of-3 still straddles it — five repeats sit close enough to
#: the noise floor that run-to-run speedup ratios stabilise.
REPEATS = 5


# -- configurations -------------------------------------------------------------

def _hot_queue_config(quick: bool) -> dict[str, int]:
    return {
        "queue_len": 250,
        "cycles": 2_000 if quick else 10_000,
    }


def single_run_config(quick: bool) -> tuple[HybridConfig, float]:
    """A pure-pull system whose queue sustains >= 200 distinct entries."""
    config = HybridConfig(
        num_items=1_500,
        cutoff=0,
        arrival_rate=3.0,
        theta=0.1,
        num_clients=200,
        min_length=1,
        max_length=1,
        mean_length=1.0,
        length_law="constant",
    )
    return config, (400.0 if quick else 800.0)


def _sweep_config(quick: bool) -> tuple[HybridConfig, float, int]:
    config = HybridConfig(num_items=100, cutoff=40, arrival_rate=5.0)
    horizon = 400.0 if quick else 1_500.0
    num_runs = 4 if quick else 8
    return config, horizon, num_runs


# -- benchmarks -----------------------------------------------------------------

def bench_select_hot_loop(quick: bool) -> dict[str, Any]:
    """Micro-benchmark of select+pop+refill cycles at queue length >= 200."""
    params = _hot_queue_config(quick)
    queue_len, cycles = params["queue_len"], params["cycles"]

    def build(indexed: bool) -> tuple[PullQueue, object]:
        catalog = ItemCatalog.generate(num_items=queue_len * 2, theta=0.2)
        queue = PullQueue(catalog)
        scheduler = make_pull_scheduler("importance", alpha=0.75)
        if indexed:
            queue.attach_scorer(scheduler)
        for item in range(queue_len):
            queue.add(Request(time=0.0, item_id=item, client_id=0,
                              class_rank=item % 3, priority=float(1 + item % 3)))
        return queue, scheduler

    def drive(queue: PullQueue, scheduler: Any) -> float:
        # Steady state: every served item is immediately re-requested, so
        # the queue holds `queue_len` entries throughout.
        clock = 1.0
        started = time.perf_counter()
        for cycle in range(cycles):
            clock += 1.0
            entry = scheduler.select(queue, clock)
            queue.pop(entry.item_id)
            queue.add(Request(time=clock, item_id=entry.item_id, client_id=0,
                              class_rank=cycle % 3, priority=float(1 + cycle % 3)))
        return time.perf_counter() - started

    scan_s = min(drive(*build(indexed=False)) for _ in range(REPEATS))
    heap_s = min(drive(*build(indexed=True)) for _ in range(REPEATS))
    return {
        "description": f"select+pop+refill cycle, queue length {queue_len}",
        "queue_len": queue_len,
        "cycles": cycles,
        "scan_us_per_cycle": 1e6 * scan_s / cycles,
        "heap_us_per_cycle": 1e6 * heap_s / cycles,
        "speedup": scan_s / heap_s,
        "guard": True,
    }


def bench_single_run(quick: bool) -> dict[str, Any]:
    """End-to-end run_single wall-clock, heap vs scan, queue length >= 200."""
    config, horizon = single_run_config(quick)

    def run(detach: bool) -> tuple[Any, float]:
        system = HybridSystem(config, seed=1, warmup=0.0)
        if detach:
            system.server.pull_queue.detach_scorer()
        started = time.perf_counter()
        result = system.run(horizon)
        return result, time.perf_counter() - started

    heap_result, heap_s = run(detach=False)
    scan_result, scan_s = run(detach=True)
    if heap_result.overall_delay != scan_result.overall_delay:
        raise AssertionError("heap and scan runs diverged — selection bug")
    for _ in range(REPEATS - 1):
        heap_s = min(heap_s, run(detach=False)[1])
        scan_s = min(scan_s, run(detach=True)[1])
    return {
        "description": "run_single, pure-pull importance scheduling",
        "horizon": horizon,
        "mean_queue_length": heap_result.mean_queue_length,
        "scan_s": scan_s,
        "heap_s": heap_s,
        "speedup": scan_s / heap_s,
        "guard": True,
    }


def bench_fast_engine(quick: bool) -> dict[str, Any]:
    """Fast engine vs reference engine: since both run one driver, the sampler.

    The engines share the callback driver and the calendar, so the
    ratio measures only ``BatchedArrivals`` against ``ArrivalProcess``:
    1.76–1.78× on the quick workload (2-vCPU host), above the 1.38×
    floor of the committed 1.84× baseline, which is kept.
    Same workload class as ``single_run_q200`` (pure pull, sustained
    queue >= 200 entries).  The system is constructed outside the timer
    — matching ``bench_single_run`` — so the measurement covers the
    event loop, scheduling policy and metric accumulation, not catalog
    construction.  Both engines run the identical config and seed; the
    fast run must land statistically on top of the reference run (a
    coarse sanity bound here, CI-bounded equivalence lives in
    ``tests/sim/test_fast_equivalence.py``).
    """
    config, horizon = single_run_config(quick)

    def run(engine: str) -> tuple[Any, float]:
        system = HybridSystem(config, seed=1, warmup=0.0, engine=engine)
        started = time.perf_counter()
        result = system.run(horizon)
        return result, time.perf_counter() - started

    ref_result, ref_s = run("reference")
    fast_result, fast_s = run("fast")
    drift = abs(fast_result.satisfied_requests - ref_result.satisfied_requests)
    if drift > 0.2 * max(ref_result.satisfied_requests, 1):
        raise AssertionError(
            "fast and reference engines diverged: "
            f"{fast_result.satisfied_requests} vs {ref_result.satisfied_requests} "
            "satisfied requests"
        )
    for _ in range(REPEATS - 1):
        ref_s = min(ref_s, run("reference")[1])
        fast_s = min(fast_s, run("fast")[1])
    return {
        "description": "run_single, fast engine vs reference engine",
        "horizon": horizon,
        "satisfied_reference": ref_result.satisfied_requests,
        "satisfied_fast": fast_result.satisfied_requests,
        "reference_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s,
        "guard": True,
    }


def bench_sweep_parallel(quick: bool, n_jobs: int) -> dict[str, Any]:
    """Replication-sweep throughput, serial vs n_jobs worker processes."""
    config, horizon, num_runs = _sweep_config(quick)
    cores = os.cpu_count() or 1

    started = time.perf_counter()
    serial = run_replications(config, num_runs=num_runs, horizon=horizon, n_jobs=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_replications(config, num_runs=num_runs, horizon=horizon, n_jobs=n_jobs)
    parallel_s = time.perf_counter() - started

    if [r.seed for r in serial.runs] != [r.seed for r in parallel.runs]:
        raise AssertionError("serial and parallel sweeps diverged — seed bug")
    return {
        "description": f"run_replications x{num_runs}, n_jobs={n_jobs}",
        "horizon": horizon,
        "num_runs": num_runs,
        "n_jobs": n_jobs,
        "cores": cores,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        # Gated by an absolute per-machine-profile floor, not a ratio —
        # see repro.perf.harness.PARALLEL_FLOORS.  The flag stays for
        # schema-1 readers: ratio-gating this bench on a 1-core host
        # would compare apples to oranges.
        "guard": cores >= n_jobs,
    }


def bench_population_scale(quick: bool) -> dict[str, Any]:
    """Population-aggregated engine at N = 10⁶ clients vs the fast engine.

    The million-client workload of the ``n-ladder`` experiment: both
    engines simulate the identical aggregate request stream (λ′ ∝ N),
    but the fast engine pays O(N) client materialisation while the
    population engine folds arrivals into per-(item, class) counters and
    is O(1) in N.  The speedup ratio captures exactly that collapse.
    The bench is additionally gated by an absolute per-host-profile
    floor on arrival throughput (``POPULATION_FLOORS`` in the harness):
    a ratio alone could pass while both engines crawl.
    """
    from ..experiments.n_ladder import ladder_config

    config = ladder_config(1_000_000)
    horizon = 20.0 if quick else 60.0
    arrivals = config.arrival_rate * horizon

    def run(engine: str) -> tuple[Any, float]:
        system = HybridSystem(config, seed=1, warmup=0.0, engine=engine)
        started = time.perf_counter()
        result = system.run(horizon)
        return result, time.perf_counter() - started

    pop_result, pop_s = run("population")
    fast_result, fast_s = run("fast")
    drift = abs(pop_result.satisfied_requests - fast_result.satisfied_requests)
    if drift > 0.2 * max(fast_result.satisfied_requests, 1):
        raise AssertionError(
            "population and fast engines diverged: "
            f"{pop_result.satisfied_requests} vs {fast_result.satisfied_requests} "
            "satisfied requests"
        )
    for _ in range(REPEATS - 1):
        pop_s = min(pop_s, run("population")[1])
    return {
        "description": "run_single at N=1e6 clients, population vs fast engine",
        "num_clients": config.num_clients,
        "horizon": horizon,
        "arrivals": arrivals,
        "satisfied_population": pop_result.satisfied_requests,
        "satisfied_fast": fast_result.satisfied_requests,
        "population_s": pop_s,
        "fast_s": fast_s,
        "arrivals_per_s": arrivals / pop_s,
        "speedup": fast_s / pop_s,
        "guard": True,
    }


#: Name → callable(quick, n_jobs) for the harness; order is report order.
BENCHMARKS: dict[str, Callable[[bool, int], dict[str, Any]]] = {
    "select_hot_loop": lambda quick, n_jobs: bench_select_hot_loop(quick),
    "single_run_q200": lambda quick, n_jobs: bench_single_run(quick),
    "fast_engine": lambda quick, n_jobs: bench_fast_engine(quick),
    "sweep_parallel": bench_sweep_parallel,
    "population_1e6": lambda quick, n_jobs: bench_population_scale(quick),
}
