"""reprolint — determinism & invariant static analysis for this repo.

Every guarantee the reproduction ships (bit-identical serial/parallel
sweeps, heap==scan scheduler equivalence, checkpoint-resume equality,
Eq. 1 gamma tie-breaks) is a *determinism* property.  The golden tests
catch regressions after they land; this package catches the classes of
bug that cause them — unseeded RNG, wall-clock leakage, set-iteration
order dependence, float ``==`` on accumulated values — statically, at
lint time.

The analyzer has two tiers:

* **Per-file rules** (RL001–RL007) inspect one module at a time:
  :func:`~repro.qa.engine.lint_paths` + :data:`~repro.qa.rules.REGISTRY`.
* **Whole-program rules** (RL010–RL017) consume a project-wide symbol
  table and call graph — RNG seed-provenance taint, async hazards,
  trace-schema exhaustiveness:
  :func:`~repro.qa.engine.analyze_paths` +
  :data:`~repro.qa.rules.PROJECT_REGISTRY`, content-hash cached by
  :class:`~repro.qa.cache.AnalysisCache`.

``repro lint`` is the CLI (:mod:`repro.qa.cli`); ``--analyze`` enables
the flow tier, ``--format sarif`` emits GitHub-code-scanning output.

Suppress a finding inline with ``# reprolint: disable=<rule>`` on the
flagged line, or ``# reprolint: disable-file=<rule>`` anywhere in the
file.  Every suppression is counted and reported, in both tiers.
"""

from .cache import AnalysisCache
from .engine import (
    FileContext,
    Finding,
    LintResult,
    ProjectRule,
    Rule,
    analyze_paths,
    analyze_sources,
    lint_paths,
    lint_source,
)
from .rules import PROJECT_REGISTRY, REGISTRY, all_project_rules, all_rules

__all__ = [
    "PROJECT_REGISTRY",
    "REGISTRY",
    "AnalysisCache",
    "FileContext",
    "Finding",
    "LintResult",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "analyze_paths",
    "analyze_sources",
    "lint_paths",
    "lint_source",
]
