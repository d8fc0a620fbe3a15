"""Generator-driven simulation processes.

A *process* wraps a Python generator: every value the generator yields must
be an :class:`~repro.des.events.Event`, and the process resumes when that
event triggers.  A process is itself an event — it triggers with the
generator's return value when the generator finishes — so processes can wait
for each other and be composed with ``&`` / ``|``.

Processes support *interrupts*: :meth:`Process.interrupt` raises an
:class:`Interrupt` inside the target process at its current yield point,
which the process may catch to model preemption, failures or cancellation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import NORMAL, PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process", "Interrupt", "ProcessGenerator"]

#: Type alias for the generators accepted by :class:`Process`.
ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    Attributes
    ----------
    cause:
        Arbitrary object passed to :meth:`Process.interrupt`, describing why
        the interruption happened.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __str__(self) -> str:
        return f"Interrupt({self.cause!r})"


class _Initialize(Event):
    """Internal immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, priority=URGENT)


class _Interruption(Event):
    """Internal immediate event delivering an :class:`Interrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process._value is not PENDING:
            raise RuntimeError(f"{process!r} has terminated and cannot be interrupted")
        if process is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.env.schedule(self, priority=URGENT)
        self.callbacks.append(self._deliver)

    def _deliver(self, event: Event) -> None:
        # If the process terminated between scheduling and delivery, the
        # interrupt silently evaporates (matching simpy semantics).
        process = self.process
        if process._value is not PENDING:
            return
        # Unsubscribe the process from whatever event it currently waits on,
        # then resume it with the failure outcome (the Interrupt).
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
            # If the abandoned event is a store put or get, withdraw it —
            # otherwise a later put could satisfy a waiter that no longer
            # exists and silently lose the item.
            cancel = getattr(target, "cancel", None)
            if callable(cancel) and not target.triggered:
                cancel()
        process._resume(self)


class Process(Event):
    """An event that drives a generator through the simulation.

    Parameters
    ----------
    env:
        Host environment.
    generator:
        The generator to execute.  Each yielded value must be an untriggered
        or triggered :class:`Event` belonging to the same environment.

    Notes
    -----
    The process event succeeds with the generator's return value, or fails
    with any uncaught exception the generator raises.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: Event the process currently waits on (``None`` before start/after end).
        self._target: Optional[Event] = _Initialize(env, self)
        self.name = getattr(generator, "__name__", repr(generator))

    # -- introspection ----------------------------------------------------
    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return self._value is PENDING

    # -- control -----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Raise an :class:`Interrupt` inside this process.

        The interrupt is delivered as soon as possible (at the current
        simulation time, before any scheduled timeout fires).  Interrupting
        a dead process raises :class:`RuntimeError`.
        """
        _Interruption(self, cause)

    # -- execution ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        This is the single driver loop for the process: it keeps stepping
        the generator while the yielded events are already processed, and
        subscribes to the first pending one.
        """
        self.env._active_proc = self
        while True:
            try:
                if event._ok:
                    result = self._generator.send(event._value)
                else:
                    # Mark the failure as handled; the generator sees it.
                    event.defused = True
                    result = self._generator.throw(event._value)
            except StopIteration as exc:
                # Generator finished: the process event succeeds.
                self._ok = True
                self._value = exc.value
                self.env.schedule(self)
                break
            except BaseException as exc:
                # Uncaught exception: the process event fails.
                self._ok = False
                self._value = exc
                self._defused = False
                self.env.schedule(self)
                break

            if not isinstance(result, Event):
                exc2 = RuntimeError(f"process {self.name!r} yielded non-event {result!r}")
                event = Event(self.env)
                event._ok = False
                event._value = exc2
                event._defused = True
                continue
            if result.env is not self.env:
                raise ValueError("cannot wait for an event from another environment")

            if result.callbacks is not None:
                # Event not yet processed: wait for it.
                result.callbacks.append(self._resume)
                self._target = result
                break
            # Event already processed: loop immediately with its outcome.
            event = result

        self.env._active_proc = None
        if self._value is not PENDING:
            self._target = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process({self.name}) object at {id(self):#x} [{state}]>"
