"""Resilience layer: checkpointed sweeps and fault-tolerant execution.

Long replication sweeps fail in boring ways — a machine reboot, an OOM
kill, one hung worker — and restarting from scratch wastes everything
already computed.  This package makes sweeps survivable without
compromising reproducibility:

* :class:`CheckpointStore` persists every completed replication
  atomically (JSON keyed by spawned seed, stamped with the sweep's
  config hash) so a killed sweep resumes **bit-identically** and a
  resume against a different sweep is refused
  (:class:`CheckpointMismatch`).
* :class:`ResilienceConfig` is the fault-tolerance policy of the one
  sweep executor, :class:`~repro.sim.parallel.ParallelExecutor`:
  per-run wall-clock timeouts, bounded retry on worker crashes, and a
  :class:`QuarantinedRun` list for runs that keep failing (always
  reported, never silently dropped).

Both plug into :func:`repro.sim.runner.run_replications` /
:func:`~repro.sim.runner.run_until_precision` via their
``checkpoint_dir=``, ``resume=`` and ``resilience=`` parameters; a
checkpointed sweep without ``resilience=`` runs under the default
:class:`ResilienceConfig`.  The model-level half of the robustness
story (overload admission control) lives in :mod:`repro.sim.overload`.
"""

from ..sim.parallel import QuarantinedRun, ResilienceConfig, SweepOutcome
from .checkpoint import (
    CheckpointMismatch,
    CheckpointStore,
    result_from_json,
    result_to_json,
    results_identical,
)

__all__ = [
    "CheckpointMismatch",
    "CheckpointStore",
    "result_from_json",
    "result_to_json",
    "results_identical",
    "QuarantinedRun",
    "ResilienceConfig",
    "SweepOutcome",
]
