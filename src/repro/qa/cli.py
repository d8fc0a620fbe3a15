"""``repro lint`` — run the determinism rule set over the tree.

Two tiers:

* default — the per-file rules (RL001–RL007), exactly as before;
* ``--analyze`` — per-file rules *plus* the whole-program flow tier
  (RL010–RL017: seed-provenance taint, async hazards, trace-schema
  exhaustiveness), with a content-hash cache
  (``--cache``/``--no-cache``) so warm repeat runs are near-instant.

Exit codes (pinned by tests):

* ``0`` — scan completed, no unsuppressed findings
* ``1`` — scan completed, at least one finding
* ``2`` — usage error (unknown rule, unreadable path, bad flags)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .cache import DEFAULT_CACHE_NAME, AnalysisCache, fingerprint_of
from .engine import LintError, ProjectRule, Rule, analyze_paths, lint_paths
from .reporter import render_json, render_sarif, render_text
from .rules import PROJECT_REGISTRY, REGISTRY, all_project_rules, all_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "reprolint: determinism & invariant static analysis. "
            "Suppress inline with `# reprolint: disable=<rule>`."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "enable the whole-program flow tier (RL010+): call-graph, "
            "seed-provenance taint, async hazards, trace-schema coverage"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names/codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule names/codes to skip",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        default=DEFAULT_CACHE_NAME,
        help=(
            "analysis cache file used with --analyze "
            f"(default: {DEFAULT_CACHE_NAME})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the analysis cache (always re-parse everything)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules with their rationale and exit",
    )
    return parser


def _resolve_rules(spec: str) -> list[Rule]:
    """Turn a comma list of names/codes into rules; LintError on unknowns.

    Both tiers resolve here (``RL012`` and ``no-literal-seed-flow`` are
    valid tokens); selecting a flow rule without ``--analyze`` is caught
    later, with a dedicated message.
    """
    # Touch the project registry so its rules are importable by name.
    all_project_rules()
    by_name: dict[str, Rule] = {**REGISTRY, **PROJECT_REGISTRY}
    by_code = {rule.code: rule for rule in by_name.values()}
    chosen: list[Rule] = []
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        rule = by_name.get(token) or by_code.get(token)
        if rule is None:
            known = ", ".join(sorted(by_name))
            raise LintError(f"unknown rule {token!r} (known: {known})")
        if rule not in chosen:
            chosen.append(rule)
    if not chosen:
        raise LintError("empty rule selection")
    return chosen


def _render_rule_listing() -> str:
    lines = ["Registered rules:", ""]
    for rule in [*all_rules(), *all_project_rules()]:
        tier = "project" if isinstance(rule, ProjectRule) else "file"
        lines.append(f"  {rule.code}  {rule.name:<24} [{tier}] {rule.summary}")
        lines.append(f"         {' ' * 24} why: {rule.rationale}")
        if rule.scopes:
            lines.append(f"         {' ' * 24} scope: {', '.join(rule.scopes)}")
        if rule.exempt_scopes or rule.exempt_path_parts:
            exempt = ", ".join([*rule.exempt_scopes, *rule.exempt_path_parts])
            lines.append(f"         {' ' * 24} exempt: {exempt}")
    return "\n".join(lines)


def _split_tiers(rules: Sequence[Rule]) -> tuple[list[Rule], list[ProjectRule]]:
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    return file_rules, project_rules


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_render_rule_listing())
        return 0
    try:
        rules: Sequence[Rule]
        if args.analyze:
            rules = [*all_rules(), *all_project_rules()]
        else:
            rules = all_rules()
        if args.select:
            rules = _resolve_rules(args.select)
        if args.ignore:
            dropped = {r.name for r in _resolve_rules(args.ignore)}
            rules = [r for r in rules if r.name not in dropped]
            if not rules:
                raise LintError("--ignore removed every rule")
        file_rules, project_rules = _split_tiers(rules)
        if project_rules and not args.analyze:
            names = ", ".join(r.name for r in project_rules)
            raise LintError(
                f"rule(s) {names} need the whole-program tier; pass --analyze"
            )
        paths = [Path(p) for p in args.paths]
        if args.analyze:
            cache: AnalysisCache | None = None
            if not args.no_cache:
                cache = AnalysisCache(
                    Path(args.cache), fingerprint=fingerprint_of(file_rules)
                )
            result = analyze_paths(
                paths, file_rules, project_rules, cache=cache
            )
            if cache is not None:
                cache.save()
        else:
            result = lint_paths(paths, file_rules)
    except LintError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result, list(rules)))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
