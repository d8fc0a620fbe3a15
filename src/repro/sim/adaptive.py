"""Online cut-off adaptation (§3: "periodically the algorithm is executed
for different cutoff-points and obtains the optimal cutoff-point").

:class:`AdaptiveCutoffController` runs inside the simulation:

1. it observes the live request stream and maintains demand estimates
   over a sliding window (empirical access probabilities with Laplace
   smoothing, empirical arrival rate);
2. every ``period`` broadcast units it evaluates the corrected
   analytical model (:func:`repro.analysis.analyze_hybrid`) for every
   candidate ``K`` using the *estimated* demand — not ground truth;
3. if the predicted objective improves by more than ``hysteresis``
   (relative), it rebuilds the push scheduler for the winning ``K`` and
   calls :meth:`HybridServer.reconfigure_cutoff`, which migrates pending
   work across the new split.

With a stationary workload the controller converges and stops moving;
with a drifting workload (:mod:`repro.workload.nonstationary`) it tracks
the optimum — the ablation benchmark quantifies the benefit over a
static mis-configured cut-off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Literal, Optional, Sequence

import numpy as np

from ..analysis.hybrid_delay import analyze_hybrid
from ..core.config import HybridConfig
from ..des import Environment
from ..schedulers.registry import make_push_scheduler
from ..workload.arrivals import Request
from ..workload.items import ItemCatalog
from .server import HybridServer

__all__ = ["AdaptiveCutoffController", "CutoffDecision"]


@dataclass(frozen=True)
class CutoffDecision:
    """One controller decision, kept for post-run inspection."""

    time: float
    old_cutoff: int
    new_cutoff: int
    predicted_objective: float
    estimated_rate: float

    @property
    def changed(self) -> bool:
        """Whether the decision actually moved the cut-off."""
        return self.new_cutoff != self.old_cutoff


class AdaptiveCutoffController:
    """Periodic demand-driven re-optimisation of the push/pull split.

    Parameters
    ----------
    env:
        Simulation environment.
    server:
        The hybrid server to reconfigure.
    config:
        Base configuration (supplies candidates' fixed parameters).
    period:
        Time between decisions (broadcast units).
    candidates:
        ``K`` values to evaluate (default: 10-point grid).
    window:
        Number of recent requests the demand estimate uses.
    objective:
        ``"delay"`` (overall expected access time) or ``"cost"``.
    hysteresis:
        Minimum predicted relative improvement before moving the
        cut-off; damps oscillation between near-equal candidates.
    """

    def __init__(
        self,
        env: Environment,
        server: HybridServer,
        config: HybridConfig,
        period: float = 500.0,
        candidates: Optional[Sequence[int]] = None,
        window: int = 2_000,
        objective: Literal["delay", "cost"] = "delay",
        hysteresis: float = 0.02,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if window < 10:
            raise ValueError(f"window must be >= 10, got {window}")
        if objective not in ("delay", "cost"):
            raise ValueError(f"unknown objective {objective!r}")
        if hysteresis < 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        self.env = env
        self.server = server
        self.config = config
        self.period = float(period)
        if candidates is None:
            step = max(1, config.num_items // 10)
            candidates = list(range(step, config.num_items, step))
        self.candidates = sorted(set(int(c) for c in candidates))
        if not self.candidates:
            raise ValueError("candidate set is empty")
        self.objective = objective
        self.hysteresis = float(hysteresis)
        self._recent: deque[tuple[float, int]] = deque(maxlen=window)
        self.decisions: list[CutoffDecision] = []
        self._population = config.build_population()
        self._process = env.process(self._run())

    # -- demand observation ---------------------------------------------------
    def observe(self, request: Request) -> None:
        """Feed one live request into the demand estimator."""
        self._recent.append((request.time, request.item_id))

    def estimated_probabilities(self) -> np.ndarray:
        """Laplace-smoothed empirical access probabilities (rank order)."""
        counts = np.ones(self.config.num_items)  # Laplace prior
        for _, item_id in self._recent:
            counts[item_id] += 1
        return counts / counts.sum()

    def estimated_rate(self) -> float:
        """Empirical aggregate arrival rate over the window."""
        if len(self._recent) < 2:
            return self.config.arrival_rate
        span = self._recent[-1][0] - self._recent[0][0]
        if span <= 0:
            return self.config.arrival_rate
        return (len(self._recent) - 1) / span

    # -- decision loop ----------------------------------------------------------
    def _estimated_catalog(self) -> ItemCatalog:
        """The true lengths paired with the *estimated* popularity law.

        Item identity is preserved: a candidate cut-off ``K`` always
        pushes items ``0..K-1``, exactly like the static system, so the
        estimate feeds the same split the server can actually enact.
        """
        return ItemCatalog(
            lengths=self.server.catalog.lengths.copy(),
            probabilities=self.estimated_probabilities(),
        )

    def evaluate_candidate(self, cutoff: int, catalog: ItemCatalog, rate: float) -> float:
        """Predicted objective for one candidate cut-off."""
        config = replace(self.config, cutoff=cutoff, arrival_rate=rate)
        result = analyze_hybrid(
            config, mode="corrected", catalog=catalog, population=self._population
        )
        return (
            result.overall_delay
            if self.objective == "delay"
            else result.total_prioritized_cost
        )

    def decide(self) -> CutoffDecision:
        """Admit buffered arrivals, evaluate all candidates, maybe reconfigure."""
        self.server.store.drain(self.env.now)
        catalog = self._estimated_catalog()
        rate = self.estimated_rate()
        scores = {
            k: self.evaluate_candidate(k, catalog, rate) for k in self.candidates
        }
        current = self.server.cutoff
        best = min(scores, key=scores.get)
        # Hysteresis: stay put unless the winner clearly beats the
        # incumbent's *predicted* objective.
        incumbent = scores.get(current, self.evaluate_candidate(current, catalog, rate))
        new_cutoff = current
        if best != current and scores[best] < incumbent * (1.0 - self.hysteresis):
            new_cutoff = best
            push = make_push_scheduler(
                self.config.push_scheduler, self.server.catalog, new_cutoff
            )
            self.server.reconfigure_cutoff(new_cutoff, push)
        decision = CutoffDecision(
            time=self.env.now,
            old_cutoff=current,
            new_cutoff=new_cutoff,
            predicted_objective=scores[new_cutoff] if new_cutoff in scores else incumbent,
            estimated_rate=rate,
        )
        self.decisions.append(decision)
        return decision

    def _run(self):
        while True:
            yield self.env.timeout(self.period)
            self.decide()


def build_adaptive_system(
    config: HybridConfig,
    seed: int = 0,
    warmup: float = 0.0,
    period: float = 500.0,
    candidates: Optional[Sequence[int]] = None,
    phases: Optional[Sequence] = None,
    objective: Literal["delay", "cost"] = "delay",
    hysteresis: float = 0.02,
    window: int = 2_000,
):
    """Wire a :class:`HybridSystem` with an adaptive cut-off controller.

    Parameters
    ----------
    phases:
        Optional :class:`~repro.workload.nonstationary.WorkloadPhase`
        sequence; when given, arrivals come from a
        :class:`~repro.workload.nonstationary.PhasedArrivalProcess`
        instead of the stationary Poisson source.

    Returns
    -------
    (system, controller):
        Run with ``system.run(horizon)``; inspect ``controller.decisions``
        afterwards.
    """
    from ..workload.nonstationary import PhasedArrivalProcess
    from .system import HybridSystem

    arrivals = None
    if phases is not None:
        # Build workload pieces exactly as HybridSystem would, then swap
        # in the phased demand law.
        from ..des import RandomStreams

        streams = RandomStreams(seed=seed)
        arrivals = PhasedArrivalProcess(
            catalog=config.build_catalog(),
            population=config.build_population(),
            phases=phases,
            default_rate=config.arrival_rate,
            rng=streams.stream("arrivals"),
        )
    system = HybridSystem(config, seed=seed, warmup=warmup, arrivals=arrivals)
    controller = AdaptiveCutoffController(
        env=system.env,
        server=system.server,
        config=config,
        period=period,
        candidates=candidates,
        window=window,
        objective=objective,
        hysteresis=hysteresis,
    )
    system.server.observers.append(controller.observe)
    return system, controller
