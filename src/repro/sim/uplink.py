"""Finite-capacity uplink (back-channel) for client requests.

The asymmetric environments the paper targets give clients only "a
limited back-channel capacity to make requests" (Acharya et al. [2],
quoted in §2).  This substrate models that channel as a single-server
finite-buffer queue:

* transmitting one request takes ``1/rate`` time units;
* at most ``buffer`` requests may wait; a request arriving to a full
  buffer is *lost at the uplink* (it never reaches the server — the
  client must rely on the push cycle or retry later);
* delivered requests reach the server after their queueing + transmit
  delay, so heavy uplink contention also *ages* the demand the pull
  scheduler sees.

An infinite ``rate`` short-circuits the channel (the paper's §5 setup,
which models the uplink as ideal).
"""

from __future__ import annotations

import math
from typing import Callable

from ..des import Environment, Store
from ..des.monitor import Counter
from ..workload.arrivals import Request

__all__ = ["UplinkChannel"]


class UplinkChannel:
    """Single-server finite-buffer request channel.

    Parameters
    ----------
    env:
        Simulation environment.
    deliver:
        Callback invoked with each request that survives the uplink
        (normally ``server.submit``).
    rate:
        Requests transmitted per time unit (``inf`` = ideal channel).
    buffer:
        Waiting-room size (excluding the request in transmission).
    injector:
        Optional :class:`~repro.sim.faults.FaultInjector`; when armed,
        each offer may additionally be corrupted in transit (random-access
        collisions), rejected exactly like a buffer overflow so clients
        can retry.
    """

    def __init__(
        self,
        env: Environment,
        deliver: Callable[[Request], None],
        rate: float = math.inf,
        buffer: int = 64,
        injector=None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"uplink rate must be > 0, got {rate}")
        if buffer < 0:
            raise ValueError(f"uplink buffer must be >= 0, got {buffer}")
        self.env = env
        self.deliver = deliver
        self.rate = float(rate)
        self.buffer = int(buffer)
        self.injector = injector
        self.delivered = Counter()
        self.dropped = Counter()
        self.corrupted = Counter()
        self.accepted = Counter()
        self._queue: Store | None = None
        if not math.isinf(self.rate):
            # +1 slot holds the request accepted while the channel is idle,
            # until the transmit loop takes it on air.
            self._queue = Store(env, capacity=self.buffer + 1)
            env.process(self._transmit_loop())

    @property
    def ideal(self) -> bool:
        """Whether the channel forwards requests instantaneously."""
        return self._queue is None

    def offer(self, request: Request) -> bool:
        """Submit a request to the uplink.

        Returns ``True`` if accepted (delivery may still be delayed),
        ``False`` if corrupted in transit or dropped at a full buffer.
        """
        if self.injector is not None and self.injector.uplink_lost():
            self.corrupted.increment()
            return False
        if self._queue is None:
            self.accepted.increment()
            self.delivered.increment()
            self.deliver(request)
            return True
        # ``Store.get`` has already removed the request on air from the
        # store, so count it through ``in_transit``.
        if self.in_transit > self.buffer:
            self.dropped.increment()
            return False
        self.accepted.increment()
        self._queue.put(request)
        return True

    def _transmit_loop(self):
        """Serve queued requests one at a time at the channel rate."""
        assert self._queue is not None
        while True:
            request = yield self._queue.get()
            yield self.env.timeout(1.0 / self.rate)
            self.delivered.increment()
            self.deliver(request)

    @property
    def offered(self) -> int:
        """Total offers made to the channel (accepted, dropped or corrupted)."""
        return self.accepted.count + self.dropped.count + self.corrupted.count

    @property
    def in_transit(self) -> int:
        """Accepted requests not yet handed to ``deliver`` (queued or on air)."""
        return self.accepted.count - self.delivered.count

    def drop_fraction(self) -> float:
        """Fraction of offered requests lost at the uplink (buffer or channel)."""
        offered = self.offered
        lost = self.dropped.count + self.corrupted.count
        return lost / offered if offered else float("nan")
