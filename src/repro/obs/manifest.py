"""Run manifests: the provenance record written next to every artifact.

A manifest answers "what exactly produced this file?": a content hash of
the full :class:`~repro.core.config.HybridConfig`, the seed schedule
(base seed and the SeedSequence-spawned per-run seeds), run parameters,
and the software versions involved.  Two artifacts with equal config
hashes and seeds are claims about the same experiment; differing hashes
explain a diff before any event-level comparison is needed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "config_hash",
    "package_versions",
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "manifest_mismatches",
]


def config_hash(config) -> str:
    """SHA-256 over the canonical JSON form of a config dataclass.

    Stable across processes and sessions: keys are sorted and
    non-JSON-native values (e.g. ``inf`` deadlines) serialise via
    ``str``.
    """
    payload = dataclasses.asdict(config)
    canonical = json.dumps(payload, sort_keys=True, default=str, allow_nan=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def package_versions() -> dict[str, str]:
    """Versions of the packages whose behaviour shapes results.

    Read from the installed distributions' metadata, so that writing a
    manifest does not import scipy.
    """
    from importlib import metadata

    versions: dict[str, str] = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:  # pragma: no cover - both are hard deps
            pass
    try:
        from .. import __version__ as repro_version

        versions["repro"] = repro_version
    except ImportError:  # pragma: no cover - package always importable here
        pass
    return versions


def build_manifest(
    config=None,
    base_seed: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    horizon: Optional[float] = None,
    warmup: Optional[float] = None,
    pull_mode: Optional[str] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a manifest dictionary for one run or artifact set.

    Every argument is optional so the same schema covers single traced
    runs, replication sweeps and whole figure-export batches; ``extra``
    merges caller-specific fields (e.g. experiment scale) at top level.
    """
    manifest: dict = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "packages": package_versions(),
        "platform": platform.platform(),
    }
    if config is not None:
        manifest["config_hash"] = config_hash(config)
        manifest["config"] = json.loads(
            json.dumps(dataclasses.asdict(config), default=str, allow_nan=True)
        )
    if base_seed is not None:
        manifest["base_seed"] = int(base_seed)
    if seeds is not None:
        manifest["seeds"] = [int(seed) for seed in seeds]
    if horizon is not None:
        manifest["horizon"] = float(horizon)
    if warmup is not None:
        manifest["warmup"] = float(warmup)
    if pull_mode is not None:
        manifest["pull_mode"] = str(pull_mode)
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(manifest: dict, path: str | Path) -> Path:
    """Persist a manifest as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))
    return path


def read_manifest(path: str | Path) -> dict:
    """Load a manifest written by :func:`write_manifest`."""
    return json.loads(Path(path).read_text())


def manifest_mismatches(manifest: dict, **expected) -> list[str]:
    """Compare provenance fields of ``manifest`` against expected values.

    Returns one human-readable line per mismatching key (empty list =
    full agreement).  Used by consumers that must *refuse* to mix
    artifacts from different experiments — e.g. the sweep checkpoint
    store, which rejects a resume when the stored ``config_hash``
    disagrees with the config being resumed.
    """
    problems = []
    for key, want in expected.items():
        have = manifest.get(key)
        if have != want:
            problems.append(f"{key}: checkpoint has {have!r}, run requests {want!r}")
    return problems
