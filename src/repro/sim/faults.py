"""Fault injection and graceful degradation for the hybrid simulator.

This module hosts the runtime half of the robustness layer configured by
:class:`~repro.core.faults.FaultConfig`:

* :class:`FaultInjector` — a seeded Gilbert–Elliott two-state bursty loss
  process for the downlink (shared by push slots and pull transmissions,
  so losses correlate across consecutive transfers) plus an independent
  Bernoulli corruption model for uplink request offers.
* :func:`select_shed_victim` — the class-aware policies a bounded pull
  queue uses to decide which entry to sacrifice under overload.
* :class:`ConservationWatchdog` — a DES monitor that continuously checks
  the request-conservation invariant (every generated request is exactly
  one of: satisfied, blocked, reneged, shed, lost at the uplink, queued,
  parked, in backoff, in uplink transit, or riding an in-flight
  transmission) and the no-preemption invariant of pull service, raising
  a structured :class:`InvariantViolation` on any imbalance.

All randomness is drawn from dedicated named streams ("fault-downlink",
"fault-uplink", "client-backoff"), so arming the fault layer never
perturbs the draws of the seed simulator, and a zero-fault configuration
reproduces the paper's ideal-channel results exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.faults import SHEDDING_POLICIES, FaultConfig
from ..des import Environment, RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..schedulers.base import PendingEntry, PullQueue, PullScheduler

__all__ = [
    "FaultConfig",
    "SHEDDING_POLICIES",
    "FaultInjector",
    "select_shed_victim",
    "ConservationSnapshot",
    "ConservationWatchdog",
    "InvariantViolation",
]


class FaultInjector:
    """Seeded source of channel-corruption decisions.

    The downlink is a Gilbert–Elliott chain stepped once per transmission
    (push slot or pull transfer): the current state decides this
    transmission's loss probability, then the state transitions for the
    next one.  The uplink is memoryless per offer.

    Parameters
    ----------
    config:
        The fault model parameters.
    streams:
        Named random streams of the replication; the injector draws only
        from its own streams.
    """

    def __init__(self, config: FaultConfig, streams: RandomStreams) -> None:
        self.config = config
        self._down = streams.stream("fault-downlink") if config.downlink_loss > 0 else None
        self._up = streams.stream("fault-uplink") if config.uplink_loss > 0 else None
        #: Whether the downlink chain currently sits in the bad state.
        self.bad_state = False
        if self._down is not None:
            # Start from the stationary distribution so short runs are unbiased.
            self.bad_state = bool(self._down.random() < config.bad_occupancy)
        self.downlink_draws = 0
        self.downlink_losses = 0
        self.uplink_draws = 0
        self.uplink_losses = 0

    def downlink_lost(self) -> bool:
        """Decide one downlink transmission; steps the Gilbert–Elliott chain."""
        if self._down is None:
            return False
        cfg = self.config
        loss_p = cfg.bad_state_loss if self.bad_state else cfg.good_state_loss
        lost = bool(self._down.random() < loss_p)
        if self.bad_state:
            if self._down.random() < cfg.bad_to_good:
                self.bad_state = False
        elif self._down.random() < cfg.good_to_bad:
            self.bad_state = True
        self.downlink_draws += 1
        self.downlink_losses += int(lost)
        return lost

    def uplink_lost(self) -> bool:
        """Decide whether one uplink request offer is corrupted."""
        if self._up is None:
            return False
        lost = bool(self._up.random() < self.config.uplink_loss)
        self.uplink_draws += 1
        self.uplink_losses += int(lost)
        return lost


def select_shed_victim(
    policy: str,
    queue: "PullQueue",
    candidate: "PendingEntry",
    scheduler: "PullScheduler",
    now: float,
) -> Optional[int]:
    """Pick the pull-queue entry to shed so ``candidate`` can be admitted.

    Returns the ``item_id`` of the queued entry to evict, or ``None`` when
    the candidate itself loses (it is never inserted).  Deterministic:
    ties break toward the larger item id.

    Parameters
    ----------
    policy:
        One of :data:`~repro.core.faults.SHEDDING_POLICIES`.
    queue:
        The full pull queue (at capacity).
    candidate:
        A transient entry holding the incoming request, *not* inserted.
    scheduler:
        The active pull scheduler, whose ``score`` defines γ for
        ``"drop-lowest-gamma"``.
    now:
        Current simulation time (γ may be time-dependent, e.g. RxW).
    """
    if policy == "drop-newest":
        return None
    if policy == "drop-lowest-gamma":

        def key(entry: "PendingEntry") -> tuple[float, int]:
            return (scheduler.score(entry, now), -entry.item_id)

    elif policy == "drop-lowest-priority":

        def key(entry: "PendingEntry") -> tuple[float, int, int]:
            return (entry.total_priority, entry.num_requests, -entry.item_id)

    else:  # pragma: no cover - rejected upstream by FaultConfig validation
        raise ValueError(f"unknown shedding policy {policy!r}")
    victim = min([*queue, candidate], key=key)
    return None if victim is candidate else victim.item_id


class InvariantViolation(RuntimeError):
    """A structural invariant of the simulation failed.

    Attributes
    ----------
    invariant:
        Short name of the failed invariant ("request-conservation" or
        "no-preemption").
    snapshot:
        The :class:`ConservationSnapshot` at detection time.
    seed:
        Root seed of the offending replication, when known.
    """

    def __init__(
        self,
        message: str,
        invariant: str,
        snapshot: Optional["ConservationSnapshot"] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.invariant = invariant
        self.snapshot = snapshot
        self.seed = seed


@dataclass(frozen=True)
class ConservationSnapshot:
    """One instant of the request-conservation ledger.

    ``generated`` counts every request the client population created;
    the remaining fields partition them into terminal outcomes and live
    locations.  :attr:`balance` must be zero at all times.
    """

    time: float
    generated: int
    satisfied: int
    blocked: int
    reneged: int
    shed: int
    uplink_lost: int
    uplink_in_transit: int
    retry_pending: int
    parked: int
    queued: int
    in_flight: int

    @property
    def accounted(self) -> int:
        """Requests in a terminal outcome or a live location."""
        return (
            self.satisfied
            + self.blocked
            + self.reneged
            + self.shed
            + self.uplink_lost
            + self.uplink_in_transit
            + self.retry_pending
            + self.parked
            + self.queued
            + self.in_flight
        )

    @property
    def balance(self) -> int:
        """``generated - accounted``; zero when conservation holds."""
        return self.generated - self.accounted

    def describe(self) -> str:
        """One-line ledger rendering for diagnostics."""
        return (
            f"t={self.time:g}: generated={self.generated} = "
            f"satisfied {self.satisfied} + blocked {self.blocked} + "
            f"reneged {self.reneged} + shed {self.shed} + "
            f"uplink-lost {self.uplink_lost} + uplink-transit {self.uplink_in_transit} + "
            f"backoff {self.retry_pending} + parked {self.parked} + "
            f"queued {self.queued} + in-flight {self.in_flight} "
            f"(balance {self.balance:+d})"
        )


class ConservationWatchdog:
    """Continuous auditor of the simulator's structural invariants.

    Checks run periodically while the simulation advances (one DES event
    per ``interval``) and once more at the horizon via
    :meth:`~ConservationWatchdog.check`.  The watchdog only *reads* state
    — it draws no randomness and mutates nothing — so arming it cannot
    change simulation results.

    Parameters
    ----------
    env:
        Simulation environment.
    server:
        The :class:`~repro.sim.server.HybridServer` under audit.
    metrics:
        The metrics collector (source of the raw outcome counters).
    uplink:
        Optional uplink channel (transit/loss accounting).
    front:
        Optional client-side fault front (generated/backoff accounting).
    seed:
        Replication seed, attached to violations for reproducibility.
    config_hash:
        Content hash of the run's :class:`~repro.core.config.HybridConfig`
        (see :func:`repro.obs.manifest.config_hash`), embedded in every
        violation message so a broken ledger is reproducible from the
        message alone: ``(config_hash, seed)`` pins the exact run.
    interval:
        Period of continuous checks; ``None`` disables the periodic
        process (explicit :meth:`check` calls still work).
    """

    def __init__(
        self,
        env: Environment,
        server,
        metrics,
        uplink=None,
        front=None,
        seed: Optional[int] = None,
        config_hash: Optional[str] = None,
        interval: Optional[float] = None,
    ) -> None:
        self.env = env
        self.server = server
        self.metrics = metrics
        self.uplink = uplink
        self.front = front
        self.seed = seed
        self.config_hash = config_hash
        self.checks_performed = 0
        self.last_snapshot: Optional[ConservationSnapshot] = None
        if interval is not None:
            env.process(self._watch(float(interval)))

    # -- ledger ----------------------------------------------------------------
    def _generated(self) -> int:
        if self.front is not None:
            return self.front.generated
        if self.uplink is not None and not self.uplink.ideal:
            return self.uplink.offered
        return self.metrics.raw_arrivals

    def _terminal_uplink_losses(self) -> int:
        lost = self.metrics.raw_uplink_abandoned
        if self.front is None and self.uplink is not None:
            # Without client-side recovery, every channel drop is terminal.
            lost += self.uplink.dropped.count + self.uplink.corrupted.count
        return lost

    def snapshot(self) -> ConservationSnapshot:
        """Capture the conservation ledger at the current instant.

        Buffered arrivals up to now are admitted first, so the ledger
        reads as it would under one calendar event per arrival.
        """
        self.server.store.drain(self.env.now)
        return ConservationSnapshot(
            time=self.env.now,
            generated=self._generated(),
            satisfied=self.metrics.raw_satisfied,
            blocked=self.metrics.raw_blocked,
            reneged=self.metrics.raw_reneged,
            shed=self.metrics.raw_shed,
            uplink_lost=self._terminal_uplink_losses(),
            uplink_in_transit=(self.uplink.in_transit if self.uplink is not None else 0),
            retry_pending=(self.front.retry_pending if self.front is not None else 0),
            parked=self.server.pending_push_requests,
            queued=self.server.pending_pull_requests,
            in_flight=self.server.in_flight_pull_requests,
        )

    def _provenance(self) -> str:
        """``[seed=... config=...]`` suffix making violations reproducible.

        The pair identifies the exact run: re-simulating the config with
        that hash under the same seed replays the violated ledger.
        """
        parts = []
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.config_hash is not None:
            parts.append(f"config={self.config_hash}")
        return f" [{' '.join(parts)}]" if parts else ""

    # -- checks ----------------------------------------------------------------
    def check(self) -> ConservationSnapshot:
        """Audit both invariants now; raises :class:`InvariantViolation`."""
        snap = self.snapshot()
        self.checks_performed += 1
        self.last_snapshot = snap
        if snap.balance != 0:
            raise InvariantViolation(
                f"request conservation violated: {snap.describe()}" + self._provenance(),
                invariant="request-conservation",
                snapshot=snap,
                seed=self.seed,
            )
        active = self.server.active_pull_transmissions
        implied = (
            self.server.pull_tx_started
            - self.server.pull_tx_completed
            - self.server.pull_tx_corrupted
            - self.server.pull_tx_preempted
        )
        if active != implied or active < 0:
            raise InvariantViolation(
                f"pull service accounting broken at t={snap.time:g}: {active} active "
                f"transmissions but started-completed-corrupted-preempted={implied}"
                + self._provenance(),
                invariant="no-preemption",
                snapshot=snap,
                seed=self.seed,
            )
        if self.server.pull_mode == "serial" and active > 1:
            raise InvariantViolation(
                f"no-preemption violated at t={snap.time:g}: {active} concurrent pull "
                "transmissions in serial mode" + self._provenance(),
                invariant="no-preemption",
                snapshot=snap,
                seed=self.seed,
            )
        return snap

    def _watch(self, interval: float):
        while True:
            yield self.env.timeout(interval)
            self.check()
