"""End-to-end and per-layer benchmark of the four engine drivers.

Usage::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (one per driver; README.md beside this file says why each):
``paper-sweep`` (reference engine), ``pull-backlog`` (fast engine),
``million-clients`` (population engine) and ``serve-loopback`` (the live
``repro serve``).  Every measurement runs in fresh processes started
from here, with ``src/`` of this checkout on ``PYTHONPATH``.

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` makes a separate traced run that reports
per-layer counts and self times (see ``layers.py``), checks that two
traced runs of one seed count exactly the same work, and measures the
tracing overhead against an untraced run.

Every run checks its outputs: the simulation workloads compare a digest
of their statistics with the one recorded in ``digests.json`` for the
seed, and ``serve-loopback`` requires the server's drained ledger to
balance and to have seen every request the client sent.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  Lines before it give the host
profile and detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

SIM_WORKLOADS = ("paper-sweep", "pull-backlog", "million-clients")
WORKLOADS = (*SIM_WORKLOADS, "serve-loopback")

#: Set-up is measured this many times per run (fresh processes each);
#: the median is reported.
SETUP_SAMPLES = 5

#: Every subprocess of one run must finish inside this budget.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "arrivals_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "workload.calls": "count",
    "workload.self_s": "s",
    "des.steps": "count",
    "des.self_s": "s",
    "schedulers.select.calls": "count",
    "schedulers.select.self_s": "s",
    "schedulers.score.calls": "count",
    "schedulers.score.self_s": "s",
    "schedulers.add.calls": "count",
    "schedulers.add.self_s": "s",
    "schedulers.queue_len_mean": "entries",
    "schedulers.heap_live_ratio": "ratio",
    "bandwidth.calls": "count",
    "bandwidth.self_s": "s",
    "bandwidth.admit_ratio": "ratio",
    "metrics.calls": "count",
    "metrics.self_s": "s",
    "build.self_s": "s",
    "sim.self_s": "s",
    "scale.self_s": "s",
    "runner.self_s": "s",
    "obs.emit.calls": "count",
    "obs.emit.self_s": "s",
    "obs.retained_events": "count",
    "service.http.calls": "count",
    "service.http.self_s": "s",
    "service.submit_s": "s",
    "service.submit.self_s": "s",
    "service.push_slots_per_req": "ratio",
    "service.ledger.calls": "count",
    "service.ledger.self_s": "s",
    "service.cpu_ms_per_req": "ms",
    "service.blocked_frac": "ratio",
    "service.latency_p90_ms": "ms",
    "service.latency_p99_ms": "ms",
    "service.latency_samples": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Layers whose ``.calls`` / ``.self_s`` come straight from the spans.
SPAN_LAYERS = (
    "workload", "schedulers.select", "schedulers.score", "schedulers.add",
    "bandwidth", "metrics", "obs.emit", "service.http", "service.ledger",
)
#: Counts that two traced runs of one seed must repeat exactly.
EXACT_KEYS = ("calls", "acquires", "admitted", "heap_live", "heap_records")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Budget:
    """Wall-clock allowance shared by every subprocess of one run."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        return remaining


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    return env


def host_profile() -> dict[str, Any]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Stolen ticks over busy ticks (everything but idle and iowait)."""
    delta = [b - a for a, b in zip(before, after)]
    busy = sum(delta) - delta[3] - delta[4]
    return delta[7] / busy if busy > 0 else 0.0


def recorded_digests(workload: str) -> list[str]:
    table = json.loads((HERE / "digests.json").read_text())
    digests = table.get(workload)
    if not digests:
        raise BenchError(f"digests.json has no digests for {workload}")
    return digests


def input_seed(workload: str, seed: int) -> int:
    """The seed the program receives.

    Outputs are checked against digests recorded for a fixed range of
    seeds, so ``--seed`` is folded into that range.
    """
    if workload == "serve-loopback":
        return seed
    return seed % len(recorded_digests(workload))


# -- simulation workloads --------------------------------------------------------
def spawn_worker(
    workload: str, seed: int, mode: str, budget: Budget, seconds: float = 0.0,
    spans_out: Optional[Path] = None, env: Optional[dict[str, str]] = None,
) -> tuple[float, dict[str, Any]]:
    """Run ``worker.py`` once; returns (spawn time, its report)."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env or child_env(), capture_output=True, text=True,
            timeout=budget.left(),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ({mode}) ran out of time") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{workload} worker ({mode}) failed with exit {done.returncode}:\n{done.stderr}"
        )
    return spawned_at, json.loads(done.stdout.strip().splitlines()[-1])


def check_passes(workload: str, seed: int, passes: list[dict[str, Any]]) -> tuple[int, int]:
    """Runs attempted and failed; a pass whose digest differs fails all its runs."""
    expected = recorded_digests(workload)[seed]
    runs_per_pass = max(len(p["run_s"]) for p in passes) or 1
    attempted = failed = 0
    for one in passes:
        attempted += runs_per_pass
        if one["digest"] != expected:
            print(f"digest mismatch: {one['digest']} != recorded {expected}", file=sys.stderr)
            failed += runs_per_pass
    return attempted, failed


def sim_untraced(workload: str, seed: int, seconds: float, budget: Budget) -> dict[str, Any]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        spawned_at, probe = spawn_worker(workload, seed, "probe", budget)
        setups.append(probe["ready_at"] - spawned_at)
    spawned_at, report = spawn_worker(workload, seed, "timed", budget, seconds)
    setups.append(report["ready_at"] - spawned_at)
    passes = report["passes"]
    attempted, failed = check_passes(workload, seed, passes)
    good = [p for p in passes if p["digest"] is not None]
    if not good:
        raise BenchError(f"{workload}: no pass completed")
    walls = [p["wall_s"] for p in good]
    runs = [t for p in good for t in p["run_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "arrivals_per_s": statistics.median(p["arrivals"] / p["wall_s"] for p in good),
        "peak_rss_mb": report["peak_rss_mb"],
        "req_per_s": len(runs) / sum(walls),
        "latency_p50_ms": 1e3 * statistics.median(runs),
    }
    detail = {"passes": len(passes), "setup_samples_s": setups}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def sim_traced(workload: str, seed: int, budget: Budget) -> dict[str, Any]:
    _, untraced = spawn_worker(workload, seed, "timed", budget)
    traced = [
        spawn_worker(workload, seed, "traced", budget, spans_out=OUT / f"{workload}-{tag}.npz")
        for tag in ("a", "b")
    ]
    passes = untraced["passes"] + [report["passes"][0] for _, report in traced]
    attempted, failed = check_passes(workload, seed, passes)
    (spawned_at, first), (_, second) = traced
    mismatched = [
        key for key in EXACT_KEYS if first["spans"][key] != second["spans"][key]
    ]
    if mismatched:
        print(f"traced runs disagree on {mismatched}", file=sys.stderr)
    spans = first["spans"]
    traced_wall = first["passes"][0]["wall_s"]
    metrics = layer_metrics(spans)
    metrics.update({
        "setup.import_s": first["imported_at"] - spawned_at,
        "setup.build_s": first["ready_at"] - first["imported_at"],
        "des.steps": spans["calls"].get("des", 0),
        "des.self_s": spans["self_s"].get("des", 0.0),
        "trace.overhead": traced_wall / untraced["passes"][0]["wall_s"],
        "trace.unattributed_frac": unattributed(spans, traced_wall),
    })
    for layer in ("build", "sim", "scale", "runner"):
        metrics[f"{layer}.self_s"] = spans["self_s"].get(layer, 0.0)
    return {
        "attempted": attempted,
        "failed": failed,
        "exact": not mismatched,
        "metrics": metrics,
        "detail": {"calibration_ns": spans["calibration_ns"]},
    }


def layer_metrics(spans: dict[str, Any]) -> dict[str, float]:
    """Metrics read straight off a span summary; the rest start at 0."""
    metrics = {name: 0.0 for name in PER_LAYER}
    calls, self_s = spans["calls"], spans["self_s"]
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    selects = calls.get("schedulers.select", 0)
    if selects:
        metrics["schedulers.queue_len_mean"] = spans["select_queue_len"] / selects
    if spans["heap_records"]:
        metrics["schedulers.heap_live_ratio"] = spans["heap_live"] / spans["heap_records"]
    if spans["acquires"]:
        metrics["bandwidth.admit_ratio"] = spans["admitted"] / spans["acquires"]
    metrics["obs.retained_events"] = spans["retained_events"]
    return metrics


def unattributed(spans: dict[str, Any], busy_s: float) -> float:
    """Share of the busy seconds, net of wrapper cost, no span covers."""
    net = busy_s - spans["overhead_s"]
    return max(0.0, 1.0 - spans["covered_s"] / net) if net > 0 else 0.0


# -- serve-loopback ---------------------------------------------------------------
def serve_run(
    seed: int, seconds: float, budget: Budget, traced: bool, tag: str
) -> dict[str, Any]:
    """One server child driven through all phases, then drained and checked."""
    import loopback

    report_path = OUT / f"serve-{tag}.json"
    launcher = [str(HERE / "serve_traced.py"), str(report_path)] if traced else None
    command = loopback.server_command(sys.executable, seed, launcher)
    server = loopback.Server(command, child_env(), ROOT, OUT / "serve-stderr.log")
    try:
        budget.left()
        result = loopback.drive(server, seed, seconds, len(os.sched_getaffinity(0)))
    finally:
        exit_code, ledger = server.stop()
    result["setup_s"] = server.setup_s
    result["problems"] = loopback.ledger_problems(exit_code, ledger, result["sent"])
    result["ledger"] = ledger
    if traced:
        spans = json.loads(report_path.read_text())
        result["spans"] = spans
        result["import_s"] = spans["imported_at"] - server.spawned_at
        result["build_s"] = server.listening_at - spans["imported_at"]
    return result


def percentile_ms(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
    return 1e3 * ordered[index]


def serve_outcome(run: dict[str, Any]) -> tuple[int, int]:
    """Requests attempted and failed (a verdict other than 200 or 502)."""
    from loopback import OK_STATUSES

    attempted = run["sent"]
    good = sum(count for status, count in run["statuses"].items() if int(status) in OK_STATUSES)
    return attempted, attempted - good


def serve_untraced(seed: int, seconds: float, budget: Budget) -> dict[str, Any]:
    import loopback

    setups = []
    for index in range(SETUP_SAMPLES - 1):
        probe = loopback.Server(
            loopback.server_command(sys.executable, seed), child_env(), ROOT,
            OUT / "serve-stderr.log",
        )
        exit_code, ledger = probe.stop()
        if loopback.ledger_problems(exit_code, ledger, 0):
            raise BenchError(f"set-up probe {index} did not drain cleanly: {ledger}")
        setups.append(probe.setup_s)
    run = serve_run(seed, seconds, budget, traced=False, tag="untraced")
    setups.append(run["setup_s"])
    attempted, failed = serve_outcome(run)
    req_per_s = closed_loop_rate(run)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": loopback.BATCH / req_per_s,
        "arrivals_per_s": req_per_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "req_per_s": req_per_s,
        "latency_p50_ms": 1e3 * statistics.median(
            statistics.median(one["latency_s"]) for one in run["rounds"]
        ),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": run["problems"],
        "metrics": metrics,
        "detail": serve_detail(run) | {"setup_samples_s": setups},
    }


def closed_loop_rate(run: dict[str, Any]) -> float:
    """Phase-A verdicts per second, median over the rounds."""
    return statistics.median(one["verdicts"] / one["phase_a_s"] for one in run["rounds"])


def serve_detail(run: dict[str, Any]) -> dict[str, float]:
    """Report-only service figures; tails pool every phase-B sample."""
    measured = run["measured_statuses"]
    verdicts = sum(measured.values())
    rounds = run["rounds"]
    latency = [t for one in rounds for t in one["latency_s"]]
    lag = [t for one in rounds for t in one["lag_s"]]
    return {
        "service.cpu_ms_per_req": 1e3 * sum(one["cpu_a_s"] for one in rounds)
        / sum(one["verdicts"] for one in rounds),
        "service.blocked_frac": measured.get(502, 0) / verdicts if verdicts else 0.0,
        "service.latency_p90_ms": percentile_ms(latency, 90),
        "service.latency_p99_ms": percentile_ms(latency, 99),
        "service.latency_samples": len(latency),
        "loadgen.lag_p99_ms": percentile_ms(lag, 99),
    }


def serve_traced_run(seed: int, seconds: float, budget: Budget) -> dict[str, Any]:
    untraced = serve_run(seed, seconds, budget, traced=False, tag="untraced")
    traced = serve_run(seed, seconds, budget, traced=True, tag="traced")
    attempted = failed = 0
    for run in (untraced, traced):
        a, f = serve_outcome(run)
        attempted += a
        failed += f
    spans = traced["spans"]
    metrics = layer_metrics(spans)
    metrics.update(serve_detail(untraced))
    submitted = traced["ledger"]["submitted"] if traced["ledger"] else 0
    metrics.update({
        "setup.import_s": traced["import_s"],
        "setup.build_s": traced["build_s"],
        "service.submit_s": spans["async_wall_s"].get("service.submit", 0.0),
        "service.submit.self_s": spans["self_s"].get("service.submit", 0.0),
        "service.push_slots_per_req": (
            spans["calls"].get("service.push", 0) / submitted if submitted else 0.0
        ),
        "trace.overhead": closed_loop_rate(untraced) / closed_loop_rate(traced),
        "trace.unattributed_frac": unattributed(spans, spans["serving_cpu_s"]),
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": untraced["problems"] + traced["problems"],
        "metrics": metrics,
        "detail": {"calibration_ns": spans["calibration_ns"]},
    }


# -- driver ---------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    budget = Budget(RUN_BUDGET_S)
    program_seed = input_seed(workload, seed)
    ticks = cpu_ticks()
    if workload == "serve-loopback":
        outcome = (
            serve_traced_run(program_seed, seconds, budget)
            if trace
            else serve_untraced(program_seed, seconds, budget)
        )
        for problem in outcome["problems"]:
            print(f"output check: {problem}", file=sys.stderr)
        correct = not outcome["problems"]
    else:
        outcome = (
            sim_traced(workload, program_seed, budget)
            if trace
            else sim_untraced(workload, program_seed, seconds, budget)
        )
        correct = outcome.get("exact", True)
    units = PER_LAYER if trace else END_TO_END
    profile = host_profile()
    profile["steal_share"] = steal_share(ticks, cpu_ticks())
    print(json.dumps({
        "workload": workload, "seed": seed, "program_seed": program_seed,
        "host": profile, "detail": outcome["detail"],
    }))
    return {
        "correct": bool(correct and outcome["failed"] == 0),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def print_table(results: dict[str, dict[str, Any]]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(name) for name in names) + 2
    print("metric".ljust(width) + "".join(w.rjust(18) for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        row = f"{name} [{unit}]".ljust(width + 8)
        row += "".join(f"{r['metrics'][name]['value']:18.6g}" for r in results.values())
        print(row)
    print("correct".ljust(width) + "".join(str(r["correct"]).rjust(18) for r in results.values()))
    print("failed/attempted".ljust(width) + "".join(
        f"{r['failed']}/{r['attempted']}".rjust(18) for r in results.values()
    ))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the engine drivers."
    )
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # The serve-loopback client imports repro from this checkout too.
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(results)
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
