"""Golden fixture tests: every rule fires where expected and nowhere else.

Each fixture under ``fixtures/`` is a Python source (``.py.txt`` so that
neither pytest nor external linters collect it) whose violating lines are
tagged ``# EXPECT[<rule>]``.  The test asserts the *exact* set of
``(rule, line)`` findings equals the tagged set — which proves both that
the rule fires (positive cases) and that it does not over-fire on the
clean counterparts sharing the same file (negative cases).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.qa import (
    PROJECT_REGISTRY,
    REGISTRY,
    all_project_rules,
    all_rules,
    analyze_sources,
    lint_source,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture stem -> module name the file is linted under (drives scoping).
FIXTURE_MODULES = {
    "RL001_no_wallclock": "repro.sim.fixture",
    "RL002_no_global_rng": "repro.sim.fixture",
    "RL003_no_unseeded_rng": "repro.des.fixture",
    "RL004_no_unordered_iteration": "repro.schedulers.fixture",
    "RL005_no_float_equality": "repro.sim.fixture",
    "RL006_no_mutable_default": "repro.sim.fixture",
    "RL007_no_bare_dataclass_eq": "repro.des.monitor",
}

#: Project-tier fixtures run through :func:`analyze_sources` so the
#: flow-aware rules see a real (if tiny) project index.
PROJECT_FIXTURE_MODULES = {
    "RL010_no_seed_arithmetic": "repro.sim.fixture",
    "RL011_no_ambient_stream": "repro.workload.fixture",
    "RL012_no_literal_seed_flow": "repro.des.fixture",
    "RL013_no_blocking_in_async": "repro.service.fixture",
    "RL014_no_unawaited_coroutine": "repro.service.fixture",
    "RL015_no_stale_async_write": "repro.service.fixture",
    "RL017_trace_exhaustiveness": "repro.obs.fixture_consumer",
}

_EVENTS_COMPANION = '''\
"""Companion registry for the RL017 fixture (three event kinds)."""

from typing import ClassVar


class FixtureArrived:
    kind: ClassVar[str] = "fixture_arrived"


class FixtureServed:
    kind: ClassVar[str] = "fixture_served"


class FixtureDropped:
    kind: ClassVar[str] = "fixture_dropped"
'''

#: Extra modules a project fixture needs in its index (module -> source).
COMPANION_SOURCES: dict[str, dict[str, str]] = {
    "RL017_trace_exhaustiveness": {"repro.obs.events": _EVENTS_COMPANION},
}

_EXPECT_RE = re.compile(r"#\s*EXPECT\[(?P<rule>[a-z\-]+)\]")


def _expected_findings(source: str) -> set[tuple[str, int]]:
    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _EXPECT_RE.finditer(line):
            expected.add((match.group("rule"), lineno))
    return expected


@pytest.mark.parametrize("stem", sorted(FIXTURE_MODULES))
def test_fixture_fires_exactly_where_tagged(stem: str) -> None:
    source = (FIXTURES / f"{stem}.py.txt").read_text(encoding="utf-8")
    expected = _expected_findings(source)
    assert expected, f"fixture {stem} has no EXPECT tags"
    result = lint_source(
        source,
        all_rules(),
        path=f"{stem}.py",
        module=FIXTURE_MODULES[stem],
    )
    actual = {(f.rule, f.line) for f in result.findings}
    assert actual == expected
    # Each fixture also exercises one inline suppression.
    assert result.suppressed, f"fixture {stem} should demonstrate a suppression"


@pytest.mark.parametrize("stem", sorted(PROJECT_FIXTURE_MODULES))
def test_project_fixture_fires_exactly_where_tagged(stem: str) -> None:
    source = (FIXTURES / f"{stem}.py.txt").read_text(encoding="utf-8")
    expected = _expected_findings(source)
    assert expected, f"fixture {stem} has no EXPECT tags"
    module = PROJECT_FIXTURE_MODULES[stem]
    result = analyze_sources(
        {module: source, **COMPANION_SOURCES.get(stem, {})},
        all_rules(),
        all_project_rules(),
    )
    fixture_path = module.replace(".", "/") + ".py"
    # Companion modules exist only to feed the index; they must be clean.
    assert all(f.path == fixture_path for f in result.findings), result.findings
    actual = {(f.rule, f.line) for f in result.findings}
    assert actual == expected
    # Each fixture also exercises one inline suppression.
    assert result.suppressed, f"fixture {stem} should demonstrate a suppression"


def test_every_registered_rule_has_a_fixture() -> None:
    covered = {stem.split("_", 1)[0] for stem in FIXTURE_MODULES}
    assert covered == {rule.code for rule in REGISTRY.values()}
    assert len(REGISTRY) >= 6
    project_covered = {stem.split("_", 1)[0] for stem in PROJECT_FIXTURE_MODULES}
    assert project_covered == {rule.code for rule in PROJECT_REGISTRY.values()}
    assert len(PROJECT_REGISTRY) >= 7


def test_rules_carry_documentation() -> None:
    for rule in list(all_rules()) + list(all_project_rules()):
        assert rule.name and rule.code and rule.summary and rule.rationale


def test_scoped_rules_stay_silent_out_of_scope() -> None:
    """The RNG ban is scoped: analysis/plotting code may not need it."""
    source = "import random\nx = random.random()\n"
    in_scope = lint_source(source, all_rules(), module="repro.sim.something")
    out_of_scope = lint_source(source, all_rules(), module="repro.analysis.plots")
    assert [f.rule for f in in_scope.findings] == ["no-global-rng"]
    assert out_of_scope.findings == []


def test_wallclock_exempts_profiler_and_benchmarks() -> None:
    source = "import time\nx = time.perf_counter()\n"
    profiler = lint_source(source, all_rules(), module="repro.obs.profiling")
    bench = lint_source(
        source, all_rules(), path="benchmarks/perf/run_bench.py", module="run_bench"
    )
    elsewhere = lint_source(source, all_rules(), module="repro.sim.server")
    assert profiler.findings == []
    assert bench.findings == []
    assert [f.rule for f in elsewhere.findings] == ["no-wallclock"]


def test_float_equality_exempts_tests_directory() -> None:
    """Golden tests pin bit-exact floats on purpose."""
    source = "def check(x):\n    return x == 1.5\n"
    in_tests = lint_source(
        source, all_rules(), path="tests/sim/test_x.py", module="tests.sim.test_x"
    )
    in_src = lint_source(source, all_rules(), module="repro.sim.metrics")
    assert in_tests.findings == []
    assert [f.rule for f in in_src.findings] == ["no-float-equality"]


def test_pytest_approx_comparisons_are_not_flagged() -> None:
    source = (
        "import pytest\n"
        "def check(x):\n"
        "    return x / 3 == pytest.approx(1.5)\n"
    )
    result = lint_source(source, all_rules(), module="repro.sim.metrics")
    assert result.findings == []


def test_aliased_imports_cannot_dodge_bans() -> None:
    source = "import numpy.random as nr\nnr.seed(42)\n"
    result = lint_source(source, all_rules(), module="repro.des.rng2")
    assert [f.rule for f in result.findings] == ["no-global-rng"]
