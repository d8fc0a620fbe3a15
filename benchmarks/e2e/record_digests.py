"""Record the output digests the benchmark checks its runs against.

Usage: ``python3 benchmarks/e2e/record_digests.py``

Runs one pass of each simulation workload for seeds ``0 .. SEEDS-1`` in
fresh worker processes, ``JOBS`` at a time, and writes ``digests.json``
beside this file.  Each seed is run twice, under two different
``PYTHONHASHSEED`` values, and recording fails unless both give the same
digest.  ``run.py`` folds ``--seed`` into the recorded range.  Re-record
only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import HERE, RUN_BUDGET_S, SIM_WORKLOADS, Budget, child_env, spawn_worker

SEEDS = 32
JOBS = 2


def digest(workload: str, seed: int, hash_seed: str) -> str:
    env = child_env() | {"PYTHONHASHSEED": hash_seed}
    _, report = spawn_worker(workload, seed, "timed", Budget(RUN_BUDGET_S), env=env)
    (one_pass,) = report["passes"]
    if one_pass["digest"] is None:
        raise RuntimeError(f"{workload} seed {seed} raised")
    return one_pass["digest"]


def record(workload: str, seed: int) -> str:
    first, second = digest(workload, seed, "1"), digest(workload, seed, "2")
    if first != second:
        raise RuntimeError(f"{workload} seed {seed}: digest depends on PYTHONHASHSEED")
    print(f"{workload} {seed} {first}", flush=True)
    return first


def main() -> int:
    table: dict[str, list[str]] = {}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for workload in SIM_WORKLOADS:
            futures = [pool.submit(record, workload, seed) for seed in range(SEEDS)]
            table[workload] = [future.result() for future in futures]
    (HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
