"""Layer spans for the traced runs of the end-to-end benchmark.

The benchmark wraps the public functions of each layer of ``repro`` from
the outside — no code inside the program is changed — and records one
span per call: layer name, start, end and the span that was open when
the call began (its parent).  Spans stay in flat in-memory arrays during
the run and are written out when the process ends; a layer's self time
is the summed duration of its spans minus the time their child spans
cover.

Each wrapper costs time of its own.  :func:`calibrate` measures that
cost in the same process, split into the part that falls inside the
wrapped call's span and the part its parent pays, and
:meth:`SpanLog.summary` subtracts both.

Coroutines (the service's ``read_request`` and ``SchedulerCore.submit``)
are timed per resumed step, so their spans count the host work of each
step and none of the time they spend suspended.  ``submit`` also keeps
its wall time from call to verdict, reported separately because it
includes the wait for the verdict.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

#: ``(args, result)`` observer called after a wrapped call returns.
Probe = Callable[[tuple, Any], None]


class SpanLog:
    """Spans of one process, in parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # The innermost open span; -1 is the root sentinel.
        self._stack: list[int] = [-1]
        #: Invocations of wrapped coroutines, and the steps (spans)
        #: they took.
        self.async_calls: dict[str, int] = {}
        self.async_steps: dict[str, int] = {}
        #: Call-to-result wall seconds of wrapped coroutines.
        self.async_wall_s: dict[str, float] = {}

    def clear(self) -> None:
        """Forget every span recorded so far (layer names stay)."""
        for column in (self.layer, self.parent, self.start, self.end):
            del column[:]
        for name in self.async_calls:
            self.async_calls[name] = 0
            self.async_steps[name] = 0
            self.async_wall_s[name] = 0.0

    def layer_id(self, name: str) -> int:
        found = self._layer_ids.get(name)
        if found is None:
            found = len(self.layers)
            self._layer_ids[name] = found
            self.layers.append(name)
        return found

    def timed(self, name: str, fn: Callable, probe: Optional[Probe] = None) -> Callable:
        """``fn`` wrapped so that every call records one ``name`` span."""
        lid = self.layer_id(name)
        stack = self._stack
        layer_append = self.layer.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(end)
            layer_append(lid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(index)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def timed_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine function ``fn`` wrapped: one span per resumed step."""
        lid = self.layer_id(name)
        self.async_calls[name] = 0
        self.async_steps[name] = 0
        self.async_wall_s[name] = 0.0
        stack = self._stack
        clock = time.perf_counter
        log = self

        @types.coroutine
        def drive(coro: Any) -> Any:
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                log.async_steps[name] += 1
                index = len(log.end)
                log.layer.append(lid)
                log.parent.append(stack[-1])
                log.end.append(0.0)
                stack.append(index)
                log.start.append(clock())
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    log.end[index] = clock()
                    stack.pop()
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:
                    # Cancellation or close: handed to the wrapped
                    # coroutine on the next step, which re-raises it.
                    value, error = None, exc

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            log.async_calls[name] += 1
            began = clock()
            try:
                return await drive(fn(*args, **kwargs))
            finally:
                log.async_wall_s[name] += clock() - began

        return wrapper

    def counts(self) -> dict[str, int]:
        """Calls per layer, counting a coroutine call once, not per step."""
        per_layer = np.bincount(
            np.frombuffer(self.layer, dtype=np.uint16), minlength=len(self.layers)
        )
        counts = {name: int(per_layer[i]) for i, name in enumerate(self.layers)}
        for name, calls in self.async_calls.items():
            counts[name] += calls - self.async_steps[name]
        return counts

    def summary(self, calibration: Calibration) -> tuple[dict[str, float], float]:
        """Per-layer self seconds, and their total: the seconds spans cover.

        Both are corrected for the wrapper cost: each span loses the
        part of one wrapper that runs inside it, and each parent the part
        of its children's wrappers that runs outside them.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        layer = np.frombuffer(self.layer, dtype=np.uint16)
        n, n_layers = len(start), len(self.layers)
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        children = np.bincount(parent[nested], minlength=n)
        self_time = duration - child_time[:n]
        per_layer_self = np.bincount(layer, weights=self_time, minlength=n_layers)
        per_layer_calls = np.bincount(layer, minlength=n_layers)
        per_layer_children = np.bincount(layer, weights=children[:n], minlength=n_layers)
        corrected = (
            per_layer_self
            - per_layer_calls * calibration.inside_s
            - per_layer_children * calibration.outside_s
        )
        per_layer = {name: float(corrected[i]) for i, name in enumerate(self.layers)}
        return per_layer, float(corrected.sum())

    def overhead_s(self, calibration: Calibration) -> float:
        """Wrapper seconds spent by all recorded spans."""
        return len(self.start) * (calibration.inside_s + calibration.outside_s)

    def write(self, path: Path) -> None:
        """Persist the spans (``layers`` names the ``layer`` codes)."""
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Calibration(NamedTuple):
    """Per-call wrapper cost, split at the wrapped call's span boundary."""

    inside_s: float
    outside_s: float


def _noop(value: int) -> int:
    return value


def calibrate(calls: int = 100_000, repeats: int = 5) -> Calibration:
    """Measure the wrapper cost on a no-op, best of ``repeats``."""
    clock = time.perf_counter
    best_plain = best_wrapped = best_inside = float("inf")
    for _ in range(repeats):
        log = SpanLog()
        wrapped = log.timed("calibration", _noop)
        began = clock()
        for i in range(calls):
            _noop(i)
        plain = clock() - began
        began = clock()
        for i in range(calls):
            wrapped(i)
        best_wrapped = min(best_wrapped, clock() - began)
        best_plain = min(best_plain, plain)
        durations = np.frombuffer(log.end, dtype=np.float64) - np.frombuffer(
            log.start, dtype=np.float64
        )
        best_inside = min(best_inside, float(durations.mean()))
    per_call_plain = best_plain / calls
    total = max(0.0, best_wrapped / calls - per_call_plain)
    # A span's measured duration includes the wrapped no-op itself.
    inside = min(total, max(0.0, best_inside - per_call_plain))
    return Calibration(inside_s=inside, outside_s=total - inside)
