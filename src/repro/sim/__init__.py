"""``repro.sim`` — the hybrid broadcast server simulator.

Discrete-event model of the paper's system: a server alternating flat
push broadcasts with importance-factor pull services, per-class bandwidth
admission, Poisson clients and a metrics pipeline, plus replication
helpers for confidence intervals.
"""

from .adaptive import AdaptiveCutoffController, CutoffDecision, build_adaptive_system
from .bandwidth_pool import BandwidthPool
from .client import FaultAwareFront, drive_arrivals
from .faults import (
    ConservationWatchdog,
    FaultConfig,
    FaultInjector,
    InvariantViolation,
)
from .metrics import MetricsCollector, SimulationResult
from .parallel import ParallelExecutor, resolve_jobs
from .preemptive import PreemptiveHybridServer
from .qos import DelayRecorder, QoSReport, jain_fairness
from .runner import (
    ReplicatedResult,
    run_replications,
    run_single,
    run_traced,
    run_until_precision,
    spawn_seeds,
)
from .server import HybridServer, PullMode
from .system import Engine, HybridSystem
from .uplink import UplinkChannel

__all__ = [
    "AdaptiveCutoffController",
    "CutoffDecision",
    "build_adaptive_system",
    "BandwidthPool",
    "drive_arrivals",
    "FaultAwareFront",
    "FaultConfig",
    "FaultInjector",
    "ConservationWatchdog",
    "InvariantViolation",
    "MetricsCollector",
    "SimulationResult",
    "PreemptiveHybridServer",
    "DelayRecorder",
    "QoSReport",
    "jain_fairness",
    "HybridServer",
    "PullMode",
    "HybridSystem",
    "Engine",
    "UplinkChannel",
    "ParallelExecutor",
    "resolve_jobs",
    "ReplicatedResult",
    "run_replications",
    "run_single",
    "run_traced",
    "run_until_precision",
    "spawn_seeds",
]
