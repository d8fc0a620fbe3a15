"""Unit tests for the structural contract rule (RL017)."""

from __future__ import annotations

from pathlib import Path

from repro.qa import all_project_rules, all_rules, analyze_sources

SRC = Path(__file__).parents[2] / "src"


def _analyze(sources):
    return analyze_sources(sources, all_rules(), all_project_rules())


_REGISTRY = (
    "from typing import ClassVar\n"
    "\n"
    "\n"
    "class Arrived:\n"
    '    kind: ClassVar[str] = "arrived"\n'
    "\n"
    "\n"
    "class Served:\n"
    '    kind: ClassVar[str] = "served"\n'
)


def test_trace_consumer_missing_kind_flagged() -> None:
    result = _analyze(
        {
            "repro.obs.events": _REGISTRY,
            "repro.obs.sink": (
                "EVENT_KINDS_PASSED: tuple[str, ...] = ()\n"
                "\n"
                "\n"
                "def consume(event):\n"
                '    return event.kind == "arrived"\n'
            ),
        }
    )
    assert [(f.rule, f.line) for f in result.findings] == [
        ("trace-exhaustiveness", 1)
    ]
    assert "'served'" in result.findings[0].message


def test_trace_consumer_stale_pass_entry_flagged() -> None:
    result = _analyze(
        {
            "repro.obs.events": _REGISTRY,
            "repro.obs.sink": (
                'EVENT_KINDS_PASSED: tuple[str, ...] = ("served", "retired_kind")\n'
                "\n"
                "\n"
                "def consume(event):\n"
                '    return event.kind == "arrived"\n'
            ),
        }
    )
    assert [(f.rule, f.line) for f in result.findings] == [
        ("trace-exhaustiveness", 1)
    ]
    assert "stale" in result.findings[0].message


def test_required_consumer_must_declare_pass_list() -> None:
    result = _analyze(
        {
            "repro.obs.events": _REGISTRY,
            "repro.obs.diff": (
                "def diff(events):\n"
                '    return [e for e in events if e.kind == "arrived" or e.kind == "served"]\n'
            ),
        }
    )
    assert [(f.rule, f.path, f.line) for f in result.findings] == [
        ("trace-exhaustiveness", "repro/obs/diff.py", 1)
    ]
    assert "EVENT_KINDS_PASSED" in result.findings[0].message


def test_non_required_module_without_declaration_is_clean() -> None:
    result = _analyze(
        {
            "repro.obs.events": _REGISTRY,
            "repro.analysis.report": (
                "def summarize(events):\n"
                "    return len(events)\n"
            ),
        }
    )
    assert result.findings == []


def test_no_registry_in_partial_tree_disables_check() -> None:
    result = _analyze(
        {
            "repro.obs.sink": (
                "EVENT_KINDS_PASSED: tuple[str, ...] = ()\n"
                "\n"
                "\n"
                "def consume(event):\n"
                "    return event.kind\n"
            ),
        }
    )
    assert result.findings == []


def test_real_obs_consumers_are_exhaustive() -> None:
    obs = SRC / "repro" / "obs"
    sources = {
        f"repro.obs.{path.stem}": path.read_text(encoding="utf-8")
        for path in sorted(obs.glob("*.py"))
        if path.stem != "__init__"
    }
    sources["repro.obs"] = (obs / "__init__.py").read_text(encoding="utf-8")
    result = _analyze(sources)
    assert [f for f in result.findings if f.rule == "trace-exhaustiveness"] == []
