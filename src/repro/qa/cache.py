"""Content-hash incremental cache for the whole-program analysis.

``repro lint --analyze`` parses every file, runs the per-file rules and
extracts a :class:`~repro.qa.callgraph.ModuleSummary` — all three are
pure functions of the file's bytes and the active rule set, so they are
cached under the SHA-256 of the source keyed by file path.  On a warm
run only changed files are re-parsed; the flow-aware tier re-runs every
time but consumes summaries, never source, which is why warm-cache
whole-repo analysis is near-instant (a pinned perf test keeps it that
way).

Invalidation is deliberately blunt:

* ``ANALYZER_VERSION`` bumps whenever extraction or finding semantics
  change — any mismatch discards the whole cache file.
* The *fingerprint* folds in the sorted codes of the active per-file
  rules, so ``--select``/``--ignore`` runs do not poison each other.
* A corrupt or unreadable cache file is silently treated as empty; the
  cache is an accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .callgraph import ModuleSummary
from .engine import Finding, LintResult, Rule

__all__ = ["ANALYZER_VERSION", "AnalysisCache", "DEFAULT_CACHE_NAME"]

#: Bump on any change to summary extraction or per-file rule semantics.
ANALYZER_VERSION = 2

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_NAME = ".reprolint-cache.json"


def fingerprint_of(rules: Sequence[Rule]) -> str:
    """Cache fingerprint of an analyzer configuration."""
    codes = ",".join(sorted(rule.code for rule in rules))
    digest = hashlib.sha256(f"v{ANALYZER_VERSION}|{codes}".encode()).hexdigest()
    return digest[:16]


def _hash_source(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _findings_to_rows(findings: Sequence[Finding]) -> list[list[object]]:
    return [
        [f.rule, f.code, f.path, f.line, f.col, f.message] for f in findings
    ]


def _findings_from_rows(rows: object) -> list[Finding]:
    result: list[Finding] = []
    if not isinstance(rows, list):
        return result
    for row in rows:
        rule, code, path, line, col, message = row
        result.append(
            Finding(
                rule=str(rule),
                code=str(code),
                path=str(path),
                line=int(line),
                col=int(col),
                message=str(message),
            )
        )
    return result


class AnalysisCache:
    """Per-file (lint result, module summary) store keyed by content hash."""

    def __init__(self, path: Path, *, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self._entries: dict[str, dict[str, object]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("version") != ANALYZER_VERSION:
            return
        if payload.get("fingerprint") != self.fingerprint:
            return
        files = payload.get("files")
        if isinstance(files, dict):
            self._entries = {
                str(path): dict(entry)
                for path, entry in files.items()
                if isinstance(entry, dict)
            }

    def lookup(
        self, path: str, source: str
    ) -> Optional[tuple[LintResult, ModuleSummary]]:
        """Cached (per-file result, summary) if ``source`` is unchanged."""
        entry = self._entries.get(path)
        if entry is None or entry.get("hash") != _hash_source(source):
            self.misses += 1
            return None
        try:
            summary = ModuleSummary.from_dict(entry["summary"])  # type: ignore[arg-type]
            result = LintResult(
                findings=_findings_from_rows(entry.get("findings")),
                suppressed=_findings_from_rows(entry.get("suppressed")),
                exempted=_findings_from_rows(entry.get("exempted")),
                files_scanned=1,
            )
        except (KeyError, TypeError, ValueError):
            # A malformed entry is a miss, never an error.
            self.misses += 1
            return None
        self.hits += 1
        return result, summary

    def store(
        self, path: str, source: str, result: LintResult, summary: ModuleSummary
    ) -> None:
        """Record the analysis products of one file."""
        self._entries[path] = {
            "hash": _hash_source(source),
            "findings": _findings_to_rows(result.findings),
            "suppressed": _findings_to_rows(result.suppressed),
            "exempted": _findings_to_rows(result.exempted),
            "summary": summary.to_dict(),
        }
        self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache (best effort; failures are silent)."""
        if not self._dirty:
            return
        payload: Mapping[str, object] = {
            "version": ANALYZER_VERSION,
            "fingerprint": self.fingerprint,
            "files": self._entries,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, separators=(",", ":"))
                os.replace(tmp_name, self.path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        except OSError:  # pragma: no cover - read-only filesystems only
            return
        self._dirty = False
