"""The population engine's vectorised fold equals its per-request path.

``FoldedStore.drain`` folds all of a drain's arrivals at once when nothing
can act between two of them.  An arrival observer in
``server.observers`` sends every arrival through the kernel's
per-request path (``PolicyKernel._arrive``) instead, and a no-op observer
changes nothing else.  So a run with one must equal the run without it
bit for bit: the ``SimulationResult`` (NaN equal to NaN), the
queue-length integrator, and every pending folded group in dict order.

Each scenario also runs with 7-arrival blocks, so drains cross block
boundaries and the warm-up boundary falls inside a drain.
"""

import dataclasses
import functools
import math
from collections.abc import Mapping

import pytest

from repro.core import HybridConfig
from repro.core.faults import FaultConfig
from repro.experiments.n_ladder import ladder_config
from repro.scale.folded import FoldedStore
from repro.schedulers.flat import FlatScheduler
from repro.sim import HybridSystem, system as system_module
from repro.workload.population import PopulationArrivals

#: name -> (config, pull mode, horizon, mid-run cutoff moves (time, K)).
SCENARIOS = {
    "ladder-1e4": (ladder_config(10_000), "serial", 60.0, ()),
    "default": (HybridConfig(), "serial", 300.0, ()),
    "K=0": (HybridConfig().with_cutoff(0), "serial", 300.0, ()),
    "K=90": (HybridConfig().with_cutoff(90), "serial", 300.0, ()),
    "downlink-loss": (
        HybridConfig().with_faults(FaultConfig(downlink_loss=0.2)),
        "serial",
        300.0,
        (),
    ),
    "concurrent": (HybridConfig(), "concurrent", 300.0, ()),
    "reconfigure": (HybridConfig(), "serial", 300.0, ((80.0, 10), (160.0, 60), (240.0, 0))),
}


def _same(left, right) -> bool:
    """Exact equality of value and type, with NaN (an empty class's statistic) equal to NaN."""
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        return type(left) is type(right) and all(
            _same(getattr(left, f.name), getattr(right, f.name))
            for f in dataclasses.fields(left)
        )
    if isinstance(left, Mapping):
        return list(left) == list(right) and all(_same(left[k], right[k]) for k in left)
    if isinstance(left, (list, tuple)):
        return (
            type(left) is type(right)
            and len(left) == len(right)
            and all(_same(a, b) for a, b in zip(left, right))
        )
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return type(left) is type(right) and left == right


def _pending(groups) -> list:
    return [
        (g.item_id, g.first_arrival, g.num_requests, g.total_priority, g.counts,
         g.unmeasured, g.sum_t, g.sum_t2, g.min_t, g.max_t)
        for g in groups.values()
    ]


def _run(name: str, seed: int, observed: bool):
    config, pull_mode, horizon, moves = SCENARIOS[name]
    system = HybridSystem(
        config, seed=seed, warmup=horizon / 10, pull_mode=pull_mode, engine="population"
    )
    server = system.server
    if observed:
        server.observers.append(lambda request: None)
    env = system.env
    for when, cutoff in moves:

        def move(when=when, cutoff=cutoff):
            yield env.timeout(when - env.now)
            server.reconfigure_cutoff(cutoff, FlatScheduler(system.catalog, cutoff))

        env.process(move())
    result = system.run(horizon)
    tw = system.metrics.queue_length
    store = server.store
    state = (
        (tw._area, tw._last_time, tw._level, tw._max),
        _pending(server.pull_queue._entries),
        _pending(store.open),
        _pending(store.sealed),
        server.pull_queue._total_requests,
    )
    return result, state


@pytest.fixture(params=[None, 7], ids=["blocks-8192", "blocks-7"])
def block_size(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(
            system_module,
            "PopulationArrivals",
            functools.partial(PopulationArrivals, chunk_size=request.param),
        )
    return request.param


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fold_equals_per_request_path(name, seed, block_size, monkeypatch):
    folds = []
    fold = FoldedStore._fold_arrivals

    def counted(store, pieces):
        folds.append(pieces)
        fold(store, pieces)

    monkeypatch.setattr(FoldedStore, "_fold_arrivals", counted)
    folded, folded_state = _run(name, seed, observed=False)
    assert folds, "the unobserved run never reached the vectorised fold"
    del folds[:]
    per_request, per_request_state = _run(name, seed, observed=True)
    assert not folds, "an observed run must admit arrivals one at a time"
    assert folded.satisfied_requests > 0
    assert _same(folded, per_request)
    assert _same(folded_state, per_request_state)
