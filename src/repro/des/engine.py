"""The simulation environment: event calendar and execution loop.

:class:`Environment` owns the simulation clock and a priority queue of
scheduled records (the *calendar*).  A record is either an
:class:`~repro.des.events.Event`, whose callbacks resume generator
processes, or a flat ``(fn, arg)`` call from :meth:`Environment.schedule_call`,
which costs one tuple unpack and one function call to dispatch.
:meth:`Environment.step` pops and processes one record;
:meth:`Environment.run` loops over it until a stop condition.

The calendar orders records of both kinds by ``(time, priority,
sequence)`` so that same-time records process in deterministic FIFO
order within a priority band.  :data:`~repro.des.events.URGENT` records
(process initialisation, interrupts) run before
:data:`~repro.des.events.NORMAL` ones at equal time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional, Union

from .events import NORMAL, PENDING, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]

#: A flat calendar payload: ``fn(arg)`` runs at the scheduled time.
CallRecord = tuple[Callable[[Any], None], Any]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`.

    Carries the value of the event that stopped the run.
    """

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that stops the simulation with the event's value."""
        if event._ok:
            raise cls(event._value)
        raise event._value


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0``).

    Examples
    --------
    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(3)
    ...     return env.now
    >>> proc = env.process(hello(env))
    >>> env.run()
    >>> proc.value
    3.0
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Union[Event, CallRecord]]] = []
        self._eid = 0
        self._active_proc: Optional[Process] = None

    # -- clock & introspection ----------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        """Number of scheduled (not yet processed) records in the calendar."""
        return len(self._queue)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Insert a triggered ``event`` into the calendar after ``delay``."""
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def schedule_call(
        self,
        delay: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` after ``delay``: no Event, nothing to wait on.

        The call runs exactly once when the clock reaches ``now + delay``,
        ordered with events by ``(time, priority, sequence)``.  Use
        :meth:`timeout`/:meth:`process` when another component needs to
        observe or join the activity.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, (fn, arg)))

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that triggers after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new :class:`Process` executing ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled record: call it, or run an event's callbacks.

        Raises
        ------
        EmptySchedule
            If the calendar is empty.
        BaseException
            A failed event whose exception nobody defused aborts the run
            by re-raising that exception here.
        """
        try:
            self._now, _, _, record = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        if isinstance(record, tuple):
            fn, arg = record
            fn(arg)
            return

        callbacks, record.callbacks = record.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive; cannot normally happen
            return
        for callback in callbacks:
            callback(record)

        if record._ok is False and not record._defused:
            # Nobody handled this failure: abort the simulation loudly.
            exc = record._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar empties.
            * a number — run until the clock reaches that time (the clock is
              advanced exactly to ``until`` even if no event sits there).
            * an :class:`Event` — run until that event is processed, and
              return its value.

        Returns
        -------
        Any
            The stopping event's value when ``until`` is an event, else
            ``None``.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} lies in the past (now={self._now})")
            until = Event(self)
            until._ok = True
            until._value = None
            # Priority below NORMAL ensures all events at `at` run first.
            self.schedule(until, priority=NORMAL + 1, delay=at - self._now)
        elif isinstance(until, Event):
            if until.callbacks is None:
                # Already processed — nothing to run.
                return until.value

        if isinstance(until, Event):
            until.callbacks.append(StopSimulation.callback)

        try:
            while True:
                self.step()
        except StopSimulation as exc:
            return exc.args[0]
        except EmptySchedule:
            if isinstance(until, Event) and until._value is PENDING:
                raise RuntimeError(
                    "no more events scheduled but the `until` event never triggered"
                ) from None
            return None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Environment t={self._now} queued={len(self._queue)}>"
