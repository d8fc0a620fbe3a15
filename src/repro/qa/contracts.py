"""Structural contract rule: trace-schema coverage.

RL017 — **trace-schema exhaustiveness**.  Every event kind registered
in ``repro.obs.events`` must be either *handled* (its kind string
appears in the consumer) or *explicitly passed* via a module-level
``EVENT_KINDS_PASSED`` tuple in each registered consumer module.  A new
event kind then fails lint in every consumer that has not decided what
to do about it, and stale pass-list entries are flagged when a kind is
retired.
"""

from __future__ import annotations

from typing import Iterator

from .callgraph import ModuleSummary, ProjectIndex
from .engine import Finding, ProjectRule
from .rules import _register_project

__all__ = ["TraceExhaustiveness"]


@_register_project
class TraceExhaustiveness(ProjectRule):
    """Every registered event kind is handled or explicitly passed."""

    name = "trace-exhaustiveness"
    code = "RL017"
    summary = "trace consumer silently ignores a registered event kind"
    rationale = (
        "The validator, diff and timeline consumers dispatch on event-kind "
        "strings; a kind added to the registry but unknown to a consumer "
        "is silently dropped, which is exactly how conservation checks "
        "develop blind spots. Handling must be total: touch the kind "
        "string, or list it in EVENT_KINDS_PASSED with the reason it is "
        "safe to skip."
    )

    #: Modules whose classes register event kinds (``kind: ClassVar[str]``).
    registry_scopes = ("repro.obs.events",)
    #: Consumers that must declare a pass list even if they handle nothing
    #: by name — deleting the declaration must not disable the check.
    required_consumers = ("repro.obs.validate", "repro.obs.diff", "repro.obs.timeline")

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        kinds: dict[str, str] = {}
        for summary in project:
            if not self._in_registry(summary.module):
                continue
            for cls in summary.classes.values():
                if cls.event_kind is not None:
                    kinds[cls.event_kind] = cls.name
        if not kinds:
            # No registry in this run (partial tree): nothing to check.
            return
        for summary in project:
            required = summary.module in self.required_consumers
            declared = summary.event_kinds_passed
            if declared is None:
                if required:
                    yield self._finding(
                        summary, 1,
                        f"{summary.module} consumes trace events but "
                        "declares no EVENT_KINDS_PASSED; exhaustiveness "
                        "cannot be checked",
                    )
                continue
            passed = set(declared)
            line = summary.event_kinds_passed_line
            for kind in sorted(kinds):
                if kind in passed or kind in summary.string_literals:
                    continue
                yield self._finding(
                    summary, line,
                    f"event kind '{kind}' (class {kinds[kind]}) is neither "
                    "handled here nor listed in EVENT_KINDS_PASSED",
                )
            for entry in sorted(passed):
                if entry not in kinds:
                    yield self._finding(
                        summary, line,
                        f"EVENT_KINDS_PASSED lists '{entry}', which is not "
                        "a registered event kind — remove the stale entry",
                    )

    def _in_registry(self, module: str) -> bool:
        return any(
            module == scope or module.startswith(scope + ".")
            for scope in self.registry_scopes
        )

    def _finding(self, summary: ModuleSummary, line: int, message: str) -> Finding:
        return Finding(
            rule=self.name,
            code=self.code,
            path=summary.path,
            line=line,
            col=1,
            message=message,
        )
