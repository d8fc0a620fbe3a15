"""Population-aggregated hybrid server: the ``engine="population"`` driver.

:class:`PopulationHybridServer` is the one callback driver
(:class:`~repro.sim.server.HybridServer`) over the folded pending
store (:class:`~repro.scale.folded.FoldedStore`): pull entries and push
waiters carry per-class counts and arrival-time moments instead of
request objects, and satisfied/blocked/shed outcomes are recorded
through the metrics collector's folded intake.  Per-event cost is
therefore independent of the population size ``N``; only the arrival
drain is O(total arrivals).

Exactness boundary (see ``docs/scale.md``):

* Arrivals come from :class:`~repro.workload.population.PopulationArrivals`
  — distributionally identical to the per-client generators.
* Folded delay statistics merge exact ``(n, Σt, Σt², min, max)`` moments:
  the same count/mean/variance/min/max in exact arithmetic, different
  float summation order — *statistically exact, not bit-identical*.
* Downlink faults, bounded queues, overload control and a finite uplink
  are supported.  Admission checks that the per-request engines apply to
  one request opening an entry apply here to a folded group's lead
  class: under the default ``drop-newest`` shedding the decisions
  coincide exactly, under scored policies a re-queued group is scored
  with its full count (the per-request engines score its requests one
  by one).
* Client-recovery faults (uplink loss, per-class deadlines) need
  per-request identity to retry/renege and are rejected up front.
"""

from __future__ import annotations

from ..sim.server import HybridServer
from .folded import FoldedStore

__all__ = ["PopulationHybridServer"]


class PopulationHybridServer(HybridServer):
    """The callback driver over :class:`FoldedStore`.

    Drop-in for :class:`~repro.sim.server.HybridServer` behind
    :class:`~repro.sim.system.HybridSystem` (same constructor surface,
    same diagnostics for the conservation watchdog).
    """

    store_cls = FoldedStore

    def _start(self) -> None:
        if self.tracer is not None or self.profiler is not None:
            raise ValueError(
                "the population engine does not support tracing or phase "
                "profiling; run with engine='reference' or 'fast'"
            )
        super()._start()
