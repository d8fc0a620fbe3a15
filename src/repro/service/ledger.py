"""The live conservation ledger: every request ends in exactly one state.

The simulator's :class:`~repro.sim.faults.ConservationWatchdog` audits a
DES run; :class:`ServiceLedger` is its wall-clock twin for the live
service.  Every submitted request must, at any instant, be exactly one
of: served, blocked (bandwidth admission), rejected (backpressure),
shed (brownout), timed out (deadline), failed (drain bound), still
queued, or riding an in-flight transmission.  :meth:`check` proves the
balance and raises :class:`LedgerViolation` otherwise — the graceful
shutdown test calls it *after* drain, when the two live terms must also
be zero.

All counters are plain ints mutated from the event loop only, so no
locking is needed; the ledger never reads the clock and draws no
randomness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["ServiceLedger", "LedgerSnapshot", "LedgerViolation"]

#: Terminal outcome names, in reporting order.
OUTCOMES = ("served", "blocked", "rejected", "shed", "timed_out", "failed")


class LedgerViolation(RuntimeError):
    """The service lost or double-counted a request."""


@dataclass(frozen=True)
class LedgerSnapshot:
    """One instant of the ledger (immutable, JSON-ready)."""

    submitted: int
    served: int
    blocked: int
    rejected: int
    shed: int
    timed_out: int
    failed: int
    queued: int
    in_flight: int

    @property
    def terminal(self) -> int:
        """Requests in a terminal outcome."""
        return (
            self.served + self.blocked + self.rejected
            + self.shed + self.timed_out + self.failed
        )

    @property
    def balance(self) -> int:
        """``submitted - terminal - live``; zero when conservation holds."""
        return self.submitted - self.terminal - self.queued - self.in_flight

    def describe(self) -> str:
        """One-line ledger rendering for diagnostics and logs."""
        return (
            f"submitted={self.submitted} = served {self.served} + "
            f"blocked {self.blocked} + rejected {self.rejected} + "
            f"shed {self.shed} + timed-out {self.timed_out} + "
            f"failed {self.failed} + queued {self.queued} + "
            f"in-flight {self.in_flight} (balance {self.balance:+d})"
        )

    def to_dict(self) -> dict[str, int]:
        """JSON payload for ``/metrics`` and the drain report."""
        return {**asdict(self), "balance": self.balance}


@dataclass
class ServiceLedger:
    """Mutable request accounting with per-class breakdowns.

    ``num_classes`` sizes the per-class counters (rank order, A first).
    """

    num_classes: int = 3
    submitted: int = 0
    served: int = 0
    blocked: int = 0
    rejected: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    queued: int = 0
    in_flight: int = 0
    submitted_by_rank: list[int] = field(default_factory=list)
    served_by_rank: list[int] = field(default_factory=list)
    blocked_by_rank: list[int] = field(default_factory=list)
    shed_by_rank: list[int] = field(default_factory=list)
    rejected_by_rank: list[int] = field(default_factory=list)
    timed_out_by_rank: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        for name in (
            "submitted_by_rank", "served_by_rank", "blocked_by_rank",
            "shed_by_rank", "rejected_by_rank", "timed_out_by_rank",
        ):
            if not getattr(self, name):
                setattr(self, name, [0] * self.num_classes)

    # -- transitions ---------------------------------------------------------
    def submit(self, class_rank: int) -> None:
        """A request entered the service (pre-admission)."""
        self.submitted += 1
        self.submitted_by_rank[class_rank] += 1

    def enqueue(self) -> None:
        """An admitted request joined the queue (or push waiters)."""
        self.queued += 1

    def start_flight(self, count: int) -> None:
        """``count`` queued requests boarded a transmission."""
        self.queued -= count
        self.in_flight += count

    def requeue(self, count: int) -> None:
        """``count`` in-flight requests fell back to the queue (ARQ)."""
        self.in_flight -= count
        self.queued += count

    def finish(self, outcome: str, class_rank: int, from_flight: bool = False) -> None:
        """One request reached a terminal outcome.

        ``from_flight`` distinguishes requests leaving an on-air
        transmission from requests leaving the queue; pre-admission
        rejections (never enqueued) pass ``outcome`` in
        {"rejected", "shed"} and touch neither live counter.
        """
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}; known: {OUTCOMES}")
        setattr(self, outcome, getattr(self, outcome) + 1)
        if outcome == "served":
            self.served_by_rank[class_rank] += 1
        elif outcome == "blocked":
            self.blocked_by_rank[class_rank] += 1
        elif outcome == "shed":
            self.shed_by_rank[class_rank] += 1
        elif outcome == "rejected":
            self.rejected_by_rank[class_rank] += 1
        elif outcome == "timed_out":
            self.timed_out_by_rank[class_rank] += 1
        if outcome in ("rejected", "shed"):
            return  # refused pre-admission; never held a live slot
        if from_flight:
            self.in_flight -= 1
        else:
            self.queued -= 1

    # -- audit ----------------------------------------------------------------
    def snapshot(self) -> LedgerSnapshot:
        """Freeze the current counters."""
        return LedgerSnapshot(
            submitted=self.submitted,
            served=self.served,
            blocked=self.blocked,
            rejected=self.rejected,
            shed=self.shed,
            timed_out=self.timed_out,
            failed=self.failed,
            queued=self.queued,
            in_flight=self.in_flight,
        )

    def check(self, drained: bool = False) -> LedgerSnapshot:
        """Prove conservation now; with ``drained`` also prove emptiness.

        Raises :class:`LedgerViolation` on any imbalance.
        """
        snap = self.snapshot()
        if snap.balance != 0 or snap.queued < 0 or snap.in_flight < 0:
            raise LedgerViolation(
                f"request conservation violated: {snap.describe()}"
            )
        if drained and (snap.queued or snap.in_flight):
            raise LedgerViolation(
                f"drain incomplete: {snap.queued} queued and "
                f"{snap.in_flight} in-flight requests remain — {snap.describe()}"
            )
        return snap

    def to_dict(self) -> dict[str, object]:
        """Full JSON payload including per-class breakdowns."""
        payload: dict[str, object] = dict(self.snapshot().to_dict())
        payload["by_rank"] = {
            "submitted": list(self.submitted_by_rank),
            "served": list(self.served_by_rank),
            "blocked": list(self.blocked_by_rank),
            "shed": list(self.shed_by_rank),
            "rejected": list(self.rejected_by_rank),
            "timed_out": list(self.timed_out_by_rank),
        }
        return payload
