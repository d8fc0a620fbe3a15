"""Checkpointed sweeps: atomic per-run persistence and exact resume.

A multi-hour replication sweep should survive a kill.  The checkpoint
store persists every completed :class:`~repro.sim.metrics.SimulationResult`
as its own JSON file, keyed by the run's spawned seed and stamped with
the sweep's config hash, so that

* a killed sweep resumes from the completed prefix and produces results
  **bit-identical** to an uninterrupted run (replications are pure
  functions of ``(config, seed)`` and the JSON encoding round-trips
  floats exactly via ``repr``-shortest serialisation);
* a resume against a *different* configuration is refused with
  :class:`CheckpointMismatch` instead of silently mixing experiments.

Layout of a checkpoint directory::

    checkpoint.json        # provenance manifest (config hash, seed schedule)
    run-<seed>.json        # one completed replication each

Every write lands in a temporary file first and is published with
``os.replace``, so a crash mid-write can never leave a torn run file —
the checkpoint only ever contains complete results.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Sequence

from ..des.monitor import Tally
from ..obs.manifest import build_manifest, config_hash, manifest_mismatches, read_manifest
from ..sim.metrics import SimulationResult

__all__ = [
    "CheckpointMismatch",
    "CheckpointStore",
    "result_to_json",
    "result_from_json",
]

#: Bumped when the run-file schema changes incompatibly.
CHECKPOINT_FORMAT = 1


class CheckpointMismatch(RuntimeError):
    """The checkpoint on disk belongs to a different experiment.

    Raised instead of resuming when the stored config hash (or any other
    provenance field) disagrees with the sweep being run — mixing
    results across configs would silently corrupt the aggregate.
    """


def _tally_to_json(tally: Tally) -> dict:
    return {
        "n": tally._n,
        "mean": tally._mean,
        "m2": tally._m2,
        "min": tally._min,
        "max": tally._max,
        "values": tally._values,
    }


def _tally_from_json(payload: dict) -> Tally:
    tally = Tally(keep_values=payload["values"] is not None)
    tally._n = int(payload["n"])
    tally._mean = float(payload["mean"])
    tally._m2 = float(payload["m2"])
    tally._min = float(payload["min"])
    tally._max = float(payload["max"])
    if payload["values"] is not None:
        tally._values = [float(v) for v in payload["values"]]
    return tally


def result_to_json(result: SimulationResult) -> dict:
    """Encode a :class:`SimulationResult` as JSON-ready plain data.

    Floats survive exactly (JSON uses shortest-round-trip ``repr``;
    ``NaN``/``Infinity`` are emitted as their non-standard JSON tokens,
    which :func:`json.loads` accepts back), so a decoded result compares
    bit-for-bit equal to the original.
    """
    payload = asdict(result)
    payload["delay_tallies"] = {
        name: _tally_to_json(tally) for name, tally in result.delay_tallies.items()
    }
    return payload


def result_from_json(payload: dict) -> SimulationResult:
    """Decode :func:`result_to_json` output back into a result record."""
    known = {f.name for f in fields(SimulationResult)}
    data = {k: v for k, v in payload.items() if k in known}
    data["delay_tallies"] = {
        name: _tally_from_json(tally)
        for name, tally in payload.get("delay_tallies", {}).items()
    }
    return SimulationResult(**data)


class CheckpointStore:
    """Atomic per-run result persistence for one replication sweep.

    Parameters
    ----------
    directory:
        Checkpoint directory (created on :meth:`open`).  One store maps
        to exactly one ``(config, base_seed, horizon, warmup, pull_mode,
        engine, slo)`` sweep; opening it for anything else raises
        :class:`CheckpointMismatch`.
    """

    MANIFEST_NAME = "checkpoint.json"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._hash: Optional[str] = None

    @property
    def manifest_path(self) -> Path:
        """Location of the sweep's provenance manifest."""
        return self.directory / self.MANIFEST_NAME

    def run_path(self, seed: int) -> Path:
        """Run file holding the replication of ``seed``."""
        return self.directory / f"run-{int(seed)}.json"

    # -- lifecycle -------------------------------------------------------------
    def open(
        self,
        config,
        base_seed: int,
        seeds: Sequence[int],
        horizon: float,
        warmup: Optional[float],
        pull_mode: str,
        resume: bool = False,
        extra: Optional[dict] = None,
    ) -> None:
        """Bind the store to one sweep; verify or (re)initialise the dir.

        ``resume=True`` requires an existing manifest whose provenance
        (config hash, base seed, horizon, warm-up, pull mode, and the
        ``engine`` and ``slo`` entries of ``extra`` when given) matches
        exactly; any disagreement raises :class:`CheckpointMismatch`
        naming each field that differs.  ``resume=False`` starts fresh:
        stale run files are deleted and a new manifest is written.
        """
        self._hash = config_hash(config)
        self.directory.mkdir(parents=True, exist_ok=True)
        expected = {
            "config_hash": self._hash,
            "base_seed": int(base_seed),
            "horizon": float(horizon),
            "pull_mode": str(pull_mode),
            # A manifest written without a warm-up reads back ``None``;
            # comparing it every time keeps a resume from mixing two
            # warm-ups in one aggregate.
            "warmup": None if warmup is None else float(warmup),
        }
        # The engine and the SLO spec shape every run as much as the
        # config does, so they identify the sweep too.
        expected.update({k: v for k, v in (extra or {}).items() if k in ("engine", "slo")})
        if resume:
            if not self.manifest_path.exists():
                raise CheckpointMismatch(
                    f"cannot resume: no checkpoint manifest at {self.manifest_path}; "
                    "run once without resume to create the checkpoint"
                )
            manifest = read_manifest(self.manifest_path)
            problems = manifest_mismatches(manifest, **expected)
            if problems:
                raise CheckpointMismatch(
                    "refusing to resume from a checkpoint of a different sweep:\n  "
                    + "\n  ".join(problems)
                )
            return
        for stale in self.directory.glob("run-*.json"):
            stale.unlink()
        manifest = build_manifest(
            config=config,
            base_seed=base_seed,
            seeds=list(seeds),
            horizon=horizon,
            warmup=warmup,
            pull_mode=pull_mode,
            extra={"kind": "sweep-checkpoint", **(extra or {})},
        )
        self._write_atomic(self.manifest_path, manifest)

    # -- per-run persistence ---------------------------------------------------
    def save(self, seed: int, result: SimulationResult) -> Path:
        """Atomically persist one completed replication."""
        if self._hash is None:
            raise RuntimeError("CheckpointStore.open() must be called before save()")
        payload = {
            "format": CHECKPOINT_FORMAT,
            "config_hash": self._hash,
            "seed": int(seed),
            "result": result_to_json(result),
        }
        path = self.run_path(seed)
        self._write_atomic(path, payload)
        return path

    def load(self, seed: int) -> Optional[SimulationResult]:
        """Load one completed replication; ``None`` if not checkpointed.

        A run file stamped with a different config hash raises
        :class:`CheckpointMismatch` (it belongs to another sweep).
        """
        path = self.run_path(seed)
        if not path.exists():
            return None
        payload = json.loads(path.read_text())
        if self._hash is not None and payload.get("config_hash") != self._hash:
            raise CheckpointMismatch(
                f"run file {path} was produced under config "
                f"{payload.get('config_hash')!r}, not {self._hash!r}"
            )
        return result_from_json(payload["result"])

    def completed_seeds(self) -> set[int]:
        """Seeds whose replication is already persisted (complete files only)."""
        seeds = set()
        for path in self.directory.glob("run-*.json"):
            stem = path.stem[len("run-") :]
            try:
                seeds.add(int(stem))
            except ValueError:  # pragma: no cover - foreign file in the dir
                continue
        return seeds

    @staticmethod
    def _write_atomic(path: Path, payload: dict) -> None:
        """Publish ``payload`` at ``path`` without ever exposing a torn file."""
        text = json.dumps(payload, sort_keys=True, default=str, allow_nan=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<CheckpointStore {self.directory} ({len(self.completed_seeds())} runs)>"


def _nan_equal(left, right) -> bool:
    """Structural equality where NaN == NaN (for checkpoint verification)."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _nan_equal(v, right[k]) for k, v in left.items()
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            _nan_equal(a, b) for a, b in zip(left, right)
        )
    return left == right


def results_identical(left: SimulationResult, right: SimulationResult) -> bool:
    """Bit-for-bit equality of two results, treating NaN as equal to NaN.

    ``SimulationResult``'s dataclass ``==`` is stricter (NaN never equals
    NaN), which wrongly reports divergence for empty-class delays; this
    is the comparison checkpoint tests and the chaos harness should use.
    """
    return _nan_equal(result_to_json(left), result_to_json(right))
