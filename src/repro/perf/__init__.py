"""Performance benchmarks and the perf-regression harness.

:mod:`repro.perf.benches` times the repository's guarded fast paths
(heap-indexed pull selection, the fast engine's block sampler, parallel
replications); :mod:`repro.perf.harness` turns the measurements into
schema-2 reports, gates them against the committed baseline
(``benchmarks/perf/BENCH_sim.json``) and tracks the speedup trajectory
in ``BENCH_history.jsonl``.  ``repro bench`` and the thin wrappers under
``benchmarks/perf/`` are the entry points; ``docs/performance.md`` has
the operating manual.
"""

from .benches import (
    BENCHMARKS,
    REPEATS,
    bench_fast_engine,
    bench_population_scale,
    bench_select_hot_loop,
    bench_single_run,
    bench_sweep_parallel,
    single_run_config,
)
from .harness import (
    PARALLEL_FLOORS,
    POPULATION_FLOORS,
    SCHEMA_VERSION,
    append_history,
    compare,
    history_chart,
    history_record,
    host_info,
    load_history,
    machine_profile,
    run_suite,
)

__all__ = [
    "BENCHMARKS",
    "REPEATS",
    "PARALLEL_FLOORS",
    "POPULATION_FLOORS",
    "SCHEMA_VERSION",
    "bench_fast_engine",
    "bench_select_hot_loop",
    "bench_population_scale",
    "bench_single_run",
    "bench_sweep_parallel",
    "single_run_config",
    "append_history",
    "compare",
    "history_chart",
    "history_record",
    "host_info",
    "load_history",
    "machine_profile",
    "run_suite",
]
