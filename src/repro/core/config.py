"""Configuration objects for the hybrid scheduling system.

:class:`HybridConfig` is the single source of truth for an experiment: it
captures every assumption of the paper's Section 5.1 with the paper's
values as defaults, and is consumed by the simulator (``repro.sim``), the
analytical models (``repro.analysis``) and the optimisers (``repro.core``).

A simulation run is a pure function of ``(HybridConfig, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from ..workload.clients import ClientPopulation, ServiceClass
from ..workload.items import ItemCatalog, LengthLaw
from .faults import FaultConfig
from .overload import OverloadConfig

__all__ = ["ClassSpec", "HybridConfig", "ServiceRateConvention"]

#: How the push/pull service rates (μ₁, μ₂) are derived from the catalog.
#:
#: * ``"paper"`` — §5.1 assumption 2 verbatim: ``μ₁ = Σ_{i≤K} P_i·L_i`` and
#:   ``μ₂ = Σ_{i>K} P_i·L_i``.  These are popularity-weighted *workloads*
#:   (dimension: time), which the paper nevertheless plugs in as rates.
#: * ``"rate"`` — the dimensionally consistent reading: service *rates*
#:   are reciprocals of mean service times, ``μ₂ = 1 / E[L | pull]`` with
#:   the expectation under the conditional pull-access law, and
#:   ``μ₁ = 1 / E[L | push]`` likewise.
ServiceRateConvention = Literal["paper", "rate"]


@dataclass(frozen=True)
class ClassSpec:
    """Specification of one client service class.

    Attributes
    ----------
    name:
        Class label ("A" is the paper's premium class).
    priority:
        Weight ``q_j`` contributed to an item's total priority ``Q_i``.
        Larger = more important.
    bandwidth_share:
        Fraction of the total downlink bandwidth reserved for pull
        services attributed to this class.  Shares should sum to <= 1.
    """

    name: str
    priority: float
    bandwidth_share: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not 0 < self.priority < math.inf:
            raise ValueError(f"class {self.name!r}: priority must be finite and > 0")
        if not 0 < self.bandwidth_share <= 1:
            raise ValueError(f"class {self.name!r}: bandwidth share outside (0, 1]")


def _paper_class_specs() -> tuple[ClassSpec, ...]:
    """Paper defaults: A/B/C with priority ratio 3:2:1, premium-weighted bandwidth."""
    return (
        ClassSpec(name="A", priority=3.0, bandwidth_share=0.5),
        ClassSpec(name="B", priority=2.0, bandwidth_share=0.3),
        ClassSpec(name="C", priority=1.0, bandwidth_share=0.2),
    )


@dataclass(frozen=True)
class HybridConfig:
    """Full description of one hybrid-scheduling system instance.

    Defaults reproduce the paper's Section 5.1 assumptions.

    Attributes
    ----------
    num_items:
        Database size ``D`` (paper: 100).
    cutoff:
        Cut-off point ``K``: items ``0..K-1`` are pushed, the rest pulled.
    arrival_rate:
        Aggregate Poisson arrival rate ``λ'`` (paper: 5).
    theta:
        Zipf access skew (paper sweeps {0.20, 0.60, 1.0, 1.40}).
    alpha:
        Stretch-vs-priority weight in the importance factor (Eq. 1):
        ``α = 1`` is stretch-optimal, ``α = 0`` pure priority scheduling.
    min_length, max_length, mean_length, length_law:
        Item-length law (paper: 1..5, mean 2).
    num_clients:
        Total client population ``C``.
    class_specs:
        Service classes, most important first.
    population_skew:
        Zipf skew of class populations (fewest clients in Class-A).
    total_bandwidth:
        Downlink bandwidth pool partitioned among classes for pull service.
    bandwidth_demand_mean:
        Mean of the Poisson bandwidth demand per pull transmission (§3).
    pull_scheduler, push_scheduler:
        Registry names of the scheduling policies.
    rate_convention:
        How μ₁/μ₂ are derived (see :data:`ServiceRateConvention`).
    length_seed:
        Seed for the deterministic item-length draw (part of the system,
        not of a replication).
    """

    num_items: int = 100
    cutoff: int = 40
    arrival_rate: float = 5.0
    theta: float = 0.60
    alpha: float = 0.75
    min_length: int = 1
    max_length: int = 5
    mean_length: float = 2.0
    length_law: LengthLaw = "truncated_geometric"
    num_clients: int = 300
    class_specs: tuple[ClassSpec, ...] = field(default_factory=_paper_class_specs)
    population_skew: float = 1.0
    total_bandwidth: float = 20.0
    bandwidth_demand_mean: float = 4.0
    pull_scheduler: str = "importance"
    push_scheduler: str = "flat"
    rate_convention: ServiceRateConvention = "paper"
    length_seed: int = 0
    #: Uplink (back-channel) capacity in requests per broadcast unit.
    #: ``inf`` models the ideal channel the paper's evaluation assumes;
    #: finite values enable the Acharya-style limited back-channel.
    uplink_rate: float = math.inf
    #: Uplink waiting-room size (requests beyond it are lost client-side).
    uplink_buffer: int = 64
    #: If true, clients request at rates proportional to their priority
    #: weight (the §4.2 demand decomposition ``λ_i = λ·p_i·q_j``); the §5
    #: evaluation draws clients uniformly (default).
    priority_weighted_demand: bool = False
    #: Fault-injection and graceful-degradation model.  The default
    #: (all rates zero, unbounded queue, no deadlines) is inert and
    #: reproduces the paper's ideal-channel behaviour exactly.
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Server-side overload controller layered on the bounded pull
    #: queue: class-aware admission that sheds lowest-priority entries
    #: first above a queue-occupancy threshold.  The default (no
    #: threshold) is inert and reproduces pre-overload results exactly.
    overload: OverloadConfig = field(default_factory=OverloadConfig)

    def __post_init__(self) -> None:
        if self.num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {self.num_items}")
        if not 0 <= self.cutoff <= self.num_items:
            raise ValueError(f"cutoff {self.cutoff} outside [0, {self.num_items}]")
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError(f"arrival_rate must be finite and > 0, got {self.arrival_rate}")
        if not self.theta >= 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.num_clients < len(self.class_specs):
            raise ValueError(
                f"need >= {len(self.class_specs)} clients, got {self.num_clients}"
            )
        if not self.class_specs:
            raise ValueError("at least one service class is required")
        priorities = [s.priority for s in self.class_specs]
        if priorities != sorted(priorities, reverse=True):
            raise ValueError("class_specs must be ordered most-important (highest q) first")
        names = [s.name for s in self.class_specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        share_sum = sum(s.bandwidth_share for s in self.class_specs)
        if share_sum > 1.0 + 1e-9:
            raise ValueError(f"bandwidth shares sum to {share_sum} > 1")
        if not self.total_bandwidth > 0:
            raise ValueError(f"total_bandwidth must be > 0, got {self.total_bandwidth}")
        if not 0 <= self.bandwidth_demand_mean < math.inf:
            raise ValueError(
                f"bandwidth_demand_mean must be finite and >= 0, got {self.bandwidth_demand_mean}"
            )
        if not self.uplink_rate > 0:
            raise ValueError(f"uplink_rate must be > 0, got {self.uplink_rate}")
        if self.uplink_buffer < 0:
            raise ValueError(f"uplink_buffer must be >= 0, got {self.uplink_buffer}")
        if self.min_length < 1:
            raise ValueError(f"min_length must be >= 1, got {self.min_length}")
        if self.max_length < self.min_length:
            raise ValueError(
                f"max_length {self.max_length} below min_length {self.min_length}"
            )
        if not self.min_length <= self.mean_length <= self.max_length:
            raise ValueError(
                f"mean_length {self.mean_length} outside the length support "
                f"[{self.min_length}, {self.max_length}]; no length law can "
                "realise it"
            )
        if self.overload.active and self.faults.queue_capacity is None:
            raise ValueError(
                "overload admission control needs a bounded pull queue: set "
                "faults.queue_capacity (the admission threshold is a fraction "
                "of that capacity) or disable it with OverloadConfig()"
            )

    # -- derived objects -----------------------------------------------------
    def build_catalog(self) -> ItemCatalog:
        """Instantiate the item catalog this config describes."""
        return ItemCatalog.generate(
            num_items=self.num_items,
            theta=self.theta,
            min_length=self.min_length,
            max_length=self.max_length,
            mean_length=self.mean_length,
            length_law=self.length_law,
            rng=np.random.Generator(np.random.PCG64(self.length_seed)),
        )

    def build_population(self) -> ClientPopulation:
        """Instantiate the client population this config describes."""
        classes = [
            ServiceClass(name=s.name, priority=s.priority, rank=i)
            for i, s in enumerate(self.class_specs)
        ]
        return ClientPopulation.generate(
            num_clients=self.num_clients,
            classes=classes,
            population_skew=self.population_skew,
        )

    # -- paper quantities ---------------------------------------------------------
    def service_rates(self, catalog: ItemCatalog | None = None) -> tuple[float, float]:
        """The (μ₁, μ₂) pair under the configured convention.

        Returns
        -------
        (mu1, mu2):
            Push and pull service parameters.  See
            :data:`ServiceRateConvention` for the two interpretations.
        """
        cat = catalog if catalog is not None else self.build_catalog()
        if self.rate_convention == "paper":
            mu1 = cat.weighted_push_length(self.cutoff)
            mu2 = cat.weighted_pull_length(self.cutoff)
        else:
            push_mass = cat.push_probability(self.cutoff)
            pull_mass = cat.pull_probability(self.cutoff)
            mean_push = (
                cat.weighted_push_length(self.cutoff) / push_mass if push_mass > 0 else float("nan")
            )
            mean_pull = (
                cat.weighted_pull_length(self.cutoff) / pull_mass if pull_mass > 0 else float("nan")
            )
            mu1 = 1.0 / mean_push if mean_push and mean_push > 0 else float("nan")
            mu2 = 1.0 / mean_pull if mean_pull and mean_pull > 0 else float("nan")
        return (mu1, mu2)

    def class_names(self) -> list[str]:
        """Class labels, most important first."""
        return [s.name for s in self.class_specs]

    def class_priorities(self) -> np.ndarray:
        """Per-class priority weights, most important first."""
        return np.array([s.priority for s in self.class_specs], dtype=float)

    def class_bandwidth(self) -> np.ndarray:
        """Absolute bandwidth reserved per class (rank order)."""
        return np.array(
            [s.bandwidth_share * self.total_bandwidth for s in self.class_specs], dtype=float
        )

    # -- variation helpers ---------------------------------------------------------
    def with_cutoff(self, cutoff: int) -> "HybridConfig":
        """Copy of this config at a different cut-off point ``K``."""
        return replace(self, cutoff=cutoff)

    def with_alpha(self, alpha: float) -> "HybridConfig":
        """Copy of this config at a different stretch/priority weight ``α``."""
        return replace(self, alpha=alpha)

    def with_theta(self, theta: float) -> "HybridConfig":
        """Copy of this config at a different access skew ``θ``."""
        return replace(self, theta=theta)

    def with_faults(self, faults: FaultConfig) -> "HybridConfig":
        """Copy of this config under a different fault/degradation model."""
        return replace(self, faults=faults)

    def with_overload(self, overload: OverloadConfig) -> "HybridConfig":
        """Copy of this config under a different overload controller."""
        return replace(self, overload=overload)

    def with_bandwidth_shares(self, shares: Sequence[float]) -> "HybridConfig":
        """Copy with new per-class bandwidth shares (rank order)."""
        if len(shares) != len(self.class_specs):
            raise ValueError(f"expected {len(self.class_specs)} shares, got {len(shares)}")
        specs = tuple(
            ClassSpec(name=s.name, priority=s.priority, bandwidth_share=float(b))
            for s, b in zip(self.class_specs, shares)
        )
        return replace(self, class_specs=specs)
