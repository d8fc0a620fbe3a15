"""The shared scenario grid and exact result comparison for engine tests.

``GRID`` holds seven configurations that exercise every admission and
loss path of the policy kernel: the default system, a lossy downlink, a
bounded queue that sheds, the overload gate, priority-weighted demand,
per-class deadlines (client recovery and reneging) and a heavy arrival
rate.  Concurrent pull mode needs a non-empty push set, which every
entry has.  Tests that compare engines or arrival paths run this grid
instead of keeping a private copy, and compare results with ``_same``
(bit for bit) or ``_close`` (to rounding).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

from repro.core import FaultConfig, HybridConfig, OverloadConfig
from repro.des.monitor import Tally

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
    return _close(left, right, rel=0.0, m2_rel=0.0)


def _close(left, right, rel: float = 1e-12, m2_rel: float = 1e-11) -> bool:
    """Equality of value and type, with floats within ``rel`` relative.

    Integers and strings compare exactly; NaN equals NaN.  A
    :class:`~repro.des.monitor.Tally`'s ``_m2`` (its sum of squared
    deviations) compares within ``m2_rel``: the population engine merges
    folded delay moments in another order than the per-request stores,
    and that sum loses the most digits to cancellation.
    """
    if isinstance(left, Tally):
        return (
            type(left) is type(right)
            and left._n == right._n
            and left._values == right._values
            and _close(left._m2, right._m2, m2_rel, m2_rel)
            and _close(
                (left._mean, left._min, left._max),
                (right._mean, right._min, right._max),
                rel,
                m2_rel,
            )
        )
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        return type(left) is type(right) and all(
            _close(getattr(left, f.name), getattr(right, f.name), rel, m2_rel)
            for f in dataclasses.fields(left)
        )
    if isinstance(left, Mapping):
        return list(left) == list(right) and all(
            _close(left[k], right[k], rel, m2_rel) for k in left
        )
    if isinstance(left, (list, tuple)):
        return (
            type(left) is type(right)
            and len(left) == len(right)
            and all(_close(a, b, rel, m2_rel) for a, b in zip(left, right))
        )
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=rel) or (
            math.isnan(left) and math.isnan(right)
        )
    return type(left) is type(right) and left == right
