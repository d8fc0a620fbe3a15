"""``repro.des`` — a from-scratch discrete-event simulation engine.

A compact, deterministic generator-process DES kernel in the style of
simpy (which is unavailable in this environment), whose calendar also
dispatches flat ``(fn, arg)`` records (:meth:`Environment.schedule_call`),
plus named random streams and output-analysis monitors.  Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`Interrupt`, :class:`AllOf`, :class:`AnyOf`
* Queueing: :class:`Store` (the finite uplink's FIFO request buffer)
* Reproducibility: :class:`RandomStreams`
* Measurement: :class:`Tally`, :class:`TimeWeighted`, :class:`Counter`,
  :func:`batch_means_ci`
"""

from .engine import EmptySchedule, Environment, StopSimulation
from .events import NORMAL, PENDING, URGENT, AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .monitor import Counter, Tally, TimeWeighted, batch_means_ci
from .process import Interrupt, Process, ProcessGenerator
from .resources import Store
from .rng import RandomStreams, stable_key

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Process",
    "ProcessGenerator",
    "Interrupt",
    "Store",
    "RandomStreams",
    "stable_key",
    "Tally",
    "TimeWeighted",
    "Counter",
    "batch_means_ci",
]
