"""The shared scenario grid and exact result comparison for engine tests.

``GRID`` holds seven configurations that exercise every admission and
loss path of the policy kernel: the default system, a lossy downlink, a
bounded queue that sheds, the overload gate, priority-weighted demand,
per-class deadlines (client recovery and reneging) and a heavy arrival
rate.  Concurrent pull mode needs a non-empty push set, which every
entry has.  Tests that compare engines or arrival paths run this grid
instead of keeping a private copy.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

from repro.core import FaultConfig, HybridConfig, OverloadConfig

BASE = HybridConfig()

GRID = {
    "plain": BASE,
    "downlink-loss": BASE.with_faults(FaultConfig(downlink_loss=0.2)),
    "queue-capacity": BASE.with_cutoff(5).with_faults(FaultConfig(queue_capacity=5)),
    "overload-gate": (
        BASE.with_cutoff(5)
        .with_faults(FaultConfig(queue_capacity=20))
        .with_overload(OverloadConfig(threshold=0.3))
    ),
    "priority-weighted": dataclasses.replace(BASE, priority_weighted_demand=True),
    "class-deadlines": BASE.with_faults(FaultConfig(class_deadlines=(80.0, 60.0, 40.0))),
    "rate-8": dataclasses.replace(BASE, arrival_rate=8.0),
}


def _same(left, right) -> bool:
    """Exact equality of value and type, with NaN equal to NaN."""
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        return type(left) is type(right) and all(
            _same(getattr(left, f.name), getattr(right, f.name))
            for f in dataclasses.fields(left)
        )
    if isinstance(left, Mapping):
        return list(left) == list(right) and all(_same(left[k], right[k]) for k in left)
    if isinstance(left, (list, tuple)):
        return (
            type(left) is type(right)
            and len(left) == len(right)
            and all(_same(a, b) for a, b in zip(left, right))
        )
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return type(left) is type(right) and left == right
