"""Unit tests for the whole-program extraction layer (``repro.qa.callgraph``).

These use tiny synthetic multi-module packages so every assertion is
about *extraction and resolution* mechanics — the rules that consume the
index are covered by the golden fixtures and their own unit tests.
"""

from __future__ import annotations

import pytest

from repro.qa.callgraph import ModuleSummary, build_project

_CORE = """\
import numpy as np


def make_rng(seed):
    return np.random.default_rng(seed)


def replicate(rep_seed, horizon):
    rng = make_rng(rep_seed)
    return rng.random() * horizon


class Engine:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def submit(self, item):
        return item
"""

_INIT = """\
from .core import make_rng, Engine
"""

_APP = """\
import asyncio

from pkg import make_rng
from .core import Engine


async def worker():
    await asyncio.sleep(0)


async def main():
    worker()
    task = asyncio.create_task(worker())
    await task
"""


@pytest.fixture()
def project():
    index, _ = build_project(
        {
            "pkg": ("pkg/__init__.py", _INIT),
            "pkg.core": ("pkg/core.py", _CORE),
            "pkg.app": ("pkg/app.py", _APP),
        }
    )
    return index


def test_function_and_class_extraction(project) -> None:
    core = project.modules["pkg.core"]
    assert set(core.functions) == {
        "make_rng",
        "replicate",
        "Engine.__init__",
        "Engine.submit",
    }
    engine = core.classes["Engine"]
    assert set(engine.methods) == {"__init__", "submit"}


def test_direct_seed_params_detected(project) -> None:
    core = project.modules["pkg.core"]
    assert core.functions["make_rng"].seed_params == ("seed",)
    assert core.functions["Engine.__init__"].seed_params == ("seed",)
    # `replicate` only *forwards* its seed; direct detection stays empty.
    assert core.functions["replicate"].seed_params == ()
    assert ("rep_seed", "pkg.core.make_rng", "0") in core.functions[
        "replicate"
    ].seed_flows


def test_relative_imports_resolve_against_package(project) -> None:
    app = project.modules["pkg.app"]
    assert app.imports["Engine"] == "pkg.core.Engine"
    # Absolute import through the package root is kept as written...
    assert app.imports["make_rng"] == "pkg.make_rng"


def test_resolution_chases_reexports(project) -> None:
    # ...and resolution chases the __init__ re-export to the definition.
    fn = project.resolve_function("pkg.make_rng")
    assert fn is not None and fn.qualname == "make_rng"
    assert project.module_of("pkg.core.make_rng") == "pkg.core"


def test_class_target_resolves_to_init(project) -> None:
    fn = project.resolve_function("pkg.core.Engine")
    assert fn is not None and fn.qualname == "Engine.__init__"


def test_is_async(project) -> None:
    assert project.is_async("pkg.app.worker")
    assert not project.is_async("pkg.core.make_rng")
    assert not project.is_async("pkg.nowhere")


def test_call_site_classification(project) -> None:
    app = project.modules["pkg.app"]
    worker_calls = [
        c for c in app.functions["main"].calls if c.target == "pkg.app.worker"
    ]
    assert not any(c.awaited for c in worker_calls)
    # One bare fire-and-forget discard, one create_task-wrapped call.
    assert sorted((c.discarded, c.wrapped) for c in worker_calls) == [
        (False, True),
        (True, False),
    ]


def test_transitive_seed_fixpoint_crosses_modules(project) -> None:
    seeds = project.transitive_seed_params()
    assert seeds["pkg.core.make_rng"] == frozenset({"seed"})
    assert seeds["pkg.core.replicate"] == frozenset({"rep_seed"})


def test_seed_param_positions_strip_self(project) -> None:
    assert project.seed_param_positions("pkg.core.make_rng") == frozenset(
        {"0", "kw:seed"}
    )
    # Engine(seed): caller-side position 0 once self is stripped.
    assert project.seed_param_positions("pkg.core.Engine") == frozenset(
        {"0", "kw:seed"}
    )
    assert project.seed_param_positions("pkg.core.replicate") == frozenset(
        {"0", "kw:rep_seed"}
    )
    assert project.seed_param_positions("pkg.app.worker") == frozenset()


def test_summary_roundtrips_through_json(project) -> None:
    for summary in project:
        clone = ModuleSummary.from_dict(summary.to_dict())
        assert clone == summary
