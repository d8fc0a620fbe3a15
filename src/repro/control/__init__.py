"""``repro.control`` — the closed-loop SLO control plane.

Declarative per-class SLO targets (:mod:`~repro.control.slo`), bounded
knobs with a provable monotone guardrail (:mod:`~repro.control.knobs`),
a pure hysteretic feedback controller with NaN/stall/oscillation
watchdogs and last-known-good failsafe
(:mod:`~repro.control.controller`), and the DES bridge that retunes any
of the three engines online (:mod:`~repro.control.loop`).

The live service hosts the same controller in
:mod:`repro.service.control`, and both hosts install its decisions on
the one policy kernel through :func:`~repro.control.loop.install_knobs`,
so every property the Hypothesis suite pins for the simulator holds
verbatim in production.
"""

from .controller import (
    ClassWindow,
    ControlSettings,
    Decision,
    SLOController,
    WindowObservation,
    find_violations,
)
from .knobs import KnobBounds, KnobState, clamp_step, project_shares
from .loop import (
    ControlLoop,
    MetricsWindower,
    WindowRecorder,
    build_controlled_system,
    default_bounds,
    empirical_percentile,
    observations_from_trace,
)
from .slo import ClassSLO, SLOError, SLOSpec, load_slo

__all__ = [
    "ClassSLO",
    "ClassWindow",
    "ControlLoop",
    "ControlSettings",
    "Decision",
    "KnobBounds",
    "KnobState",
    "MetricsWindower",
    "SLOController",
    "SLOError",
    "SLOSpec",
    "WindowObservation",
    "WindowRecorder",
    "build_controlled_system",
    "clamp_step",
    "default_bounds",
    "empirical_percentile",
    "find_violations",
    "load_slo",
    "observations_from_trace",
    "project_shares",
]
