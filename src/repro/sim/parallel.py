"""Process-parallel, optionally fault-tolerant execution of replications.

Replications are embarrassingly parallel — each is a pure function of
``(config, seed)`` — so :class:`ParallelExecutor` fans them out over a
stdlib :class:`~concurrent.futures.ProcessPoolExecutor`.  ``n_jobs=1``
(the default everywhere) never creates a pool and runs every payload
in-process; for ``n_jobs > 1`` results come back in task order, which
together with up-front seed derivation
(:func:`repro.sim.runner.spawn_seeds`) makes parallel and serial
execution produce bit-for-bit identical per-seed results.

Without a :class:`ResilienceConfig` the first failing run aborts the
call with its own exception.  With one, long sweeps on shared machines
survive their usual faults:

* **per-run wall-clock timeouts** (a hung worker cannot stall the sweep;
  the pool is killed and rebuilt, innocent in-flight runs are resubmitted
  without being charged an attempt);
* **bounded retry** with a fresh worker after a crash
  (:class:`~concurrent.futures.process.BrokenProcessPool`), an exception,
  or a timeout;
* a **quarantine list** for runs that keep failing: after
  ``max_retries + 1`` attempts a run is recorded as a
  :class:`QuarantinedRun` — reported in the sweep summary, never
  silently dropped.

Either way a ``KeyboardInterrupt`` first hands already-finished results
to the ``on_result`` callback (so a checkpoint keeps them), then tears
the pool down with ``cancel_futures=True``.  Retries re-run the same
pure payload, and completion order never affects the returned
task-order tuple.

Work items and results cross process boundaries, so the mapped function
must be a module-level callable and its payloads picklable (plain-data
configs and :class:`~repro.sim.metrics.SimulationResult` records are).
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = [
    "ParallelExecutor",
    "QuarantinedRun",
    "ResilienceConfig",
    "SweepOutcome",
    "resolve_jobs",
]


def resolve_jobs(n_jobs: int) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``-1`` means one worker per available core; any other value must be a
    positive integer.
    """
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 (or -1 for all cores), got {n_jobs}")
    return n_jobs


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance policy of a :class:`ParallelExecutor`.

    Parameters
    ----------
    timeout:
        Per-run wall-clock budget in seconds, measured from submission
        to a worker.  ``None`` disables the timeout.  Only enforced when
        running on a process pool (``n_jobs > 1``); the serial path has
        no safe way to interrupt a hung in-process run.
    max_retries:
        How many times a failing run is re-attempted before quarantine.
        ``0`` quarantines after the first failure; the total attempt
        budget per run is ``max_retries + 1``.
    """

    timeout: Optional[float] = None
    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.timeout is not None and not (
            math.isfinite(self.timeout) and self.timeout > 0
        ):
            raise ValueError(
                f"per-run timeout must be a positive finite number of seconds, "
                f"got {self.timeout!r}; use timeout=None to disable the deadline"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0 (0 quarantines a run after its first "
                f"failure), got {self.max_retries}"
            )

    @property
    def attempts_allowed(self) -> int:
        """Total attempts granted to each run before quarantine."""
        return self.max_retries + 1


@dataclass(frozen=True)
class QuarantinedRun:
    """A run that exhausted its attempt budget and was set aside.

    Quarantined runs are excluded from aggregates but always surface in
    :meth:`~repro.sim.runner.ReplicatedResult.summary` — a sweep never
    silently loses a seed.
    """

    seed: int
    attempts: int
    error: str

    def describe(self) -> str:
        """One-line report for sweep summaries."""
        return f"seed {self.seed}: gave up after {self.attempts} attempt(s) — {self.error}"


@dataclass(frozen=True)
class SweepOutcome:
    """Everything one :meth:`ParallelExecutor.run` call produced.

    ``results`` is in task order with ``None`` holes for quarantined
    runs; ``quarantined`` lists those holes explicitly.
    """

    results: tuple
    quarantined: tuple[QuarantinedRun, ...] = ()

    @property
    def completed(self) -> tuple:
        """Successful results only, still in task order."""
        return tuple(value for value in self.results if value is not None)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class ParallelExecutor:
    """Order-preserving map over a lazily created process pool.

    Parameters
    ----------
    n_jobs:
        Worker processes; ``1`` runs everything in-process (no pool is
        ever created, and timeouts cannot be enforced), ``-1`` uses
        every available core.
    resilience:
        ``None``: the first failing run aborts :meth:`run` with its own
        exception.  A :class:`ResilienceConfig`: failing runs are
        retried, timed out and quarantined as it says.

    The pool is created on the first parallel :meth:`run` and reused
    across calls — batched callers like
    :func:`~repro.sim.runner.run_until_precision` pay the worker start-up
    cost once.  Use as a context manager (or call :meth:`close`) to shut
    the pool down deterministically.
    """

    def __init__(
        self, n_jobs: int = 1, resilience: Optional[ResilienceConfig] = None
    ) -> None:
        self.n_jobs = resolve_jobs(n_jobs)
        self.resilience = resilience
        self._pool: Optional[ProcessPoolExecutor] = None

    def run(
        self,
        fn: Callable,
        payloads: Sequence,
        keys: Optional[Sequence[int]] = None,
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> SweepOutcome:
        """Apply ``fn`` to every payload, returning results in task order.

        Parameters
        ----------
        fn:
            Module-level pure function (picklable for pool dispatch).
        payloads:
            One argument per run.
        keys:
            Stable per-run identity (the spawned seed in sweeps), used
            for quarantine reports and the ``on_result`` callback;
            defaults to the payload index.
        on_result:
            Called as ``on_result(key, value)`` the moment each run
            completes — the checkpoint hook.  Runs completed before a
            ``KeyboardInterrupt`` are still delivered to it, so an
            interrupted sweep flushes everything it finished.
        """
        payloads = list(payloads)
        keys = list(keys) if keys is not None else list(range(len(payloads)))
        if len(keys) != len(payloads):
            raise ValueError(
                f"keys and payloads must align: {len(keys)} keys for "
                f"{len(payloads)} payloads"
            )
        if self.n_jobs == 1 or len(payloads) <= 1:
            return self._run_serial(fn, payloads, keys, on_result)
        return self._run_parallel(fn, payloads, keys, on_result)

    def _attempts_allowed(self) -> int:
        return 1 if self.resilience is None else self.resilience.attempts_allowed

    # -- in-process --------------------------------------------------------------
    def _run_serial(self, fn, payloads, keys, on_result) -> SweepOutcome:
        allowed = self._attempts_allowed()
        results: list = [None] * len(payloads)
        quarantined: list[QuarantinedRun] = []
        for index, payload in enumerate(payloads):
            for attempt in range(1, allowed + 1):
                try:
                    value = fn(payload)
                except Exception as exc:  # KeyboardInterrupt propagates
                    if self.resilience is None:
                        raise
                    if attempt == allowed:
                        quarantined.append(
                            QuarantinedRun(keys[index], attempt, _describe(exc))
                        )
                else:
                    results[index] = value
                    if on_result is not None:
                        on_result(keys[index], value)
                    break
        return SweepOutcome(results=tuple(results), quarantined=tuple(quarantined))

    # -- process pool ------------------------------------------------------------
    def _run_parallel(self, fn, payloads, keys, on_result) -> SweepOutcome:
        policy = self.resilience
        timeout = None if policy is None else policy.timeout
        allowed = self._attempts_allowed()
        results: list = [None] * len(payloads)
        quarantined: dict[int, QuarantinedRun] = {}
        attempts = [0] * len(payloads)
        pending: deque[int] = deque(range(len(payloads)))
        in_flight: dict = {}  # future -> (index, deadline | None)

        def failed(index: int, error: str) -> None:
            if attempts[index] >= allowed:
                quarantined[index] = QuarantinedRun(keys[index], attempts[index], error)
            else:
                pending.append(index)

        def settle(future, index: int) -> bool:
            """Take one finished run's outcome; return whether the pool broke."""
            try:
                value = future.result()
            except Exception as exc:
                if policy is None:
                    raise
                broke = isinstance(exc, BrokenProcessPool)
                failed(index, f"worker crashed: {_describe(exc)}" if broke else _describe(exc))
                return broke
            results[index] = value
            if on_result is not None:
                on_result(keys[index], value)
            return False

        completed = False
        try:
            while pending or in_flight:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.n_jobs)
                # Sliding window: at most n_jobs in flight; the deadline
                # starts at submission so queue wait never counts.
                while pending and len(in_flight) < self.n_jobs:
                    index = pending.popleft()
                    attempts[index] += 1
                    deadline = (
                        None
                        if timeout is None
                        # Timeouts police *real* elapsed time by design; no
                        # simulated quantity is derived from these reads.
                        else time.monotonic() + timeout  # reprolint: disable=no-wallclock
                    )
                    in_flight[self._pool.submit(fn, payloads[index])] = (index, deadline)
                wait_for = None
                if timeout is not None:
                    nearest = min(deadline for _, deadline in in_flight.values())
                    wait_for = max(0.0, nearest - time.monotonic())  # reprolint: disable=no-wallclock
                done, _ = futures_wait(
                    in_flight, timeout=wait_for, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    broken |= settle(future, in_flight.pop(future)[0])
                if broken:
                    # A worker died mid-run.  The pool is unusable and we
                    # cannot tell which run killed it, so every in-flight
                    # run is charged one attempt.
                    for index, _ in in_flight.values():
                        failed(index, "worker pool broke while this run was in flight")
                    in_flight.clear()
                    self._drop_pool()
                    continue
                if timeout is None or not in_flight:
                    continue
                now = time.monotonic()  # reprolint: disable=no-wallclock
                expired = [
                    future
                    for future, (_, deadline) in in_flight.items()
                    if deadline <= now and not future.done()
                ]
                if not expired:
                    continue
                # Collect runs that finished between wait() and now before
                # tearing anything down.
                for future in [f for f in in_flight if f.done() and f not in expired]:
                    settle(future, in_flight.pop(future)[0])
                for future in expired:
                    failed(
                        in_flight.pop(future)[0],
                        f"run exceeded the {timeout:g}s wall-clock timeout",
                    )
                for index, _ in in_flight.values():
                    # Innocent casualties of the pool kill: resubmit
                    # without charging an attempt.
                    attempts[index] -= 1
                    pending.append(index)
                in_flight.clear()
                # A hung worker holds the pool's task pipe; the only safe
                # remedy is to kill the whole pool and rebuild it.
                self._drop_pool(kill=True)
            completed = True
        except KeyboardInterrupt:
            # Flush whatever already finished so the checkpoint keeps it,
            # then let the finally block cancel the rest.
            for future, (index, _) in in_flight.items():
                if future.done() and not future.cancelled():
                    try:
                        settle(future, index)
                    except Exception:
                        pass
            raise
        finally:
            if not completed:
                # Drop queued work and reap the workers instead of leaking
                # them past the abort (they would keep simulating orphans).
                self._drop_pool()
        ordered = tuple(quarantined[index] for index in sorted(quarantined))
        return SweepOutcome(results=tuple(results), quarantined=ordered)

    def _drop_pool(self, kill: bool = False) -> None:
        """Discard the pool without waiting; ``kill`` terminates its workers first.

        ``shutdown`` alone would block on a hung worker; terminating the
        processes first guarantees progress.  ``_processes`` is a
        private attribute, so degrade gracefully if it disappears.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already-dead process
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down the worker pool (no-op if none was created)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "live" if self._pool is not None else "idle"
        return f"<ParallelExecutor n_jobs={self.n_jobs} ({state}) resilience={self.resilience}>"
