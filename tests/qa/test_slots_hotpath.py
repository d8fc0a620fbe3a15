"""Hot-path allocation audit: per-event objects must not carry ``__dict__``.

The simulator allocates Requests, queue entries and calendar events by
the hundred thousand per sweep; a stray ``__dict__`` on any of them
costs ~100 bytes and an extra dict lookup per attribute access.  Two
layers of protection:

* an explicit hot-set check — every class the event loop allocates per
  request/event is fully slotted through its MRO, so instances have no
  ``__dict__`` at all;
* a module audit — any *new* dataclass added to a hot module must
  either declare ``slots=True`` or be added to the allow-list below
  (reserved for construct-once containers and result records, where a
  dict is harmless).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

from repro.des.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.des.process import Process
from repro.schedulers.base import PendingEntry
from repro.workload.arrivals import Request
from repro.workload.clients import Client, ServiceClass
from repro.workload.items import Item

#: Classes the event loop allocates per request / per event.
HOT_CLASSES = [
    Request,
    PendingEntry,
    Item,
    ServiceClass,
    Client,
    Event,
    Timeout,
    Condition,
    AllOf,
    AnyOf,
    Process,
]

#: Hot modules → dataclasses allowed to keep a ``__dict__`` (build-once
#: containers and user-facing result records, never per-event objects).
AUDITED_MODULES = {
    "repro.workload.items": {"ItemCatalog"},
    "repro.workload.clients": {"ClientPopulation"},
    "repro.workload.arrivals": set(),
    "repro.workload.batched": set(),
    "repro.schedulers.base": set(),
    "repro.des.events": set(),
    "repro.des.process": set(),
    "repro.sim.server": set(),
    "repro.sim.client": set(),
    "repro.sim.policy": set(),
    "repro.scale.folded": set(),
    "repro.scale.server": set(),
}


def _fully_slotted(cls: type) -> bool:
    """True when no class in the MRO (bar object) lacks ``__slots__``."""
    return all("__slots__" in klass.__dict__ for klass in cls.__mro__ if klass is not object)


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_has_no_instance_dict(cls):
    assert _fully_slotted(cls), (
        f"{cls.__module__}.{cls.__name__} (or one of its bases) lacks __slots__; "
        "instances carry a __dict__ on the per-event hot path"
    )


def test_request_instance_really_has_no_dict():
    request = Request(time=0.0, item_id=1, client_id=2, class_rank=0, priority=1.0)
    with pytest.raises(AttributeError):
        request.__dict__  # noqa: B018 - the access itself is the assertion


@pytest.mark.parametrize("module_name", sorted(AUDITED_MODULES), ids=str)
def test_hot_module_dataclasses_are_slotted(module_name):
    module = importlib.import_module(module_name)
    allowed_plain = AUDITED_MODULES[module_name]
    offenders = []
    for name, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ != module_name or not dataclasses.is_dataclass(cls):
            continue
        if name in allowed_plain:
            continue
        if "__slots__" not in cls.__dict__:
            offenders.append(name)
    assert not offenders, (
        f"dataclasses in {module_name} without slots=True: {offenders} — "
        "add slots=True or, for a build-once container, extend the allow-list"
    )
