"""The zero-violation baseline, gated: the tree must lint clean forever.

This is the teeth of the static-analysis pass — any future commit that
reads the wall clock on a simulated path, draws from global RNG state or
iterates a bare set in scheduler code fails the test suite, not just a
separately-invoked CI job.
"""

from __future__ import annotations

from pathlib import Path

from repro.qa import all_project_rules, all_rules, analyze_paths, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

_ALL_TREES = (
    REPO_ROOT / "src" / "repro",
    REPO_ROOT / "tests",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "examples",
    REPO_ROOT / "scripts",
)


def test_src_lints_clean() -> None:
    result = lint_paths([REPO_ROOT / "src" / "repro"], all_rules())
    assert result.clean, "\n".join(f.render() for f in result.findings)
    assert result.files_scanned >= 90


def test_whole_repo_analysis_clean() -> None:
    """The flow-aware tier's zero-violation baseline, over every tree.

    This is ``repro lint --analyze`` as CI runs it: per-file rules plus
    seed-provenance taint, async hazards and trace-schema exhaustiveness,
    across the whole project at once (the contract rule only sees the real
    event registry here).
    """
    result = analyze_paths(
        [p for p in _ALL_TREES if p.exists()], all_rules(), all_project_rules()
    )
    assert result.clean, "\n".join(f.render() for f in result.findings)
    assert result.files_scanned >= 250


def test_wider_tree_lints_clean() -> None:
    paths = [
        REPO_ROOT / "tests",
        REPO_ROOT / "benchmarks",
        REPO_ROOT / "examples",
        REPO_ROOT / "scripts",
    ]
    result = lint_paths([p for p in paths if p.exists()], all_rules())
    assert result.clean, "\n".join(f.render() for f in result.findings)


def test_suppressions_stay_audited() -> None:
    """Every inline suppression is deliberate; additions must be reviewed.

    If this number grows, the new suppression needs the same scrutiny the
    existing fourteen got.  The audited set: operator-facing timing —
    including the N-ladder's rung wall-clock, whose minutes-not-hours
    budget is part of the scale acceptance — watchdog deadlines, the
    chaos drills' wait-for-service loops, and (new in the analysis tier)
    the lint-perf guard in ``tests/qa/test_cache.py``, which times the
    analyzer itself with ``perf_counter`` to detect cache bypass.  If the
    number shrinks, a suppression went stale — delete the comment too.
    """
    result = lint_paths([p for p in _ALL_TREES if p.exists()], all_rules())
    suppressed = sorted({(Path(f.path).name, f.line, f.rule) for f in result.suppressed})
    assert len(suppressed) == 14, suppressed


def test_audited_exemptions_stay_pinned() -> None:
    """The audited wall-clock budget: 2 reads in the service clock, 12 in benches.

    ``repro.service`` runs against real time and ``repro.perf`` *measures*
    real time, so RL001 findings there are *exempted* rather than
    suppressed — but they are still collected, and this pin is the audit:
    a new ``time.monotonic()``/``perf_counter()`` call anywhere in either
    package fails here until the budget is deliberately re-reviewed.
    Service timestamps must flow through
    :class:`repro.service.clock.ServiceClock`; benchmark timings live only
    in :mod:`repro.perf.benches`.
    """
    result = lint_paths([REPO_ROOT / "src" / "repro"], all_rules())
    exempted = sorted((Path(f.path).name, f.line, f.rule) for f in result.exempted)
    per_file = {name: sum(1 for n, _, _ in exempted if n == name) for name, _, _ in exempted}
    assert all(rule == "no-wallclock" for _, _, rule in exempted), exempted
    assert per_file == {"clock.py": 2, "benches.py": 12}, (
        "wall-clock reads outside the audited budget "
        f"(service clock + perf benches): {exempted}"
    )
