"""The paper's contribution: importance-factor pull scheduling.

Two variants, matching the paper's two formulations:

* :class:`ImportanceFactorScheduler` — the *online* rule of Eq. 1,

      γ_i = α·S_i + (1 − α)·Q_i,     S_i = R_i / L_i²,  Q_i = Σ_j q_j

  evaluated on observed queue state.  ``α = 1`` degenerates to
  stretch-optimal scheduling, ``α = 0`` to pure priority scheduling.

* :class:`ExpectedImportanceScheduler` — the *expected-value* rule of
  Eq. 6, which weights both terms by the expected number of copies of
  item ``i`` in the pull queue, ``E[L_pull]·p_i``:

      ϱ_i = α·E[L_pull]·p_i / L_i² + (1 − α)·E[L_pull]·p_i·Q_i

  The paper notes Eq. 6 reduces to Eq. 1 when ``E[L_pull]·p_i = 1``; a
  unit test pins that equivalence.

Because stretch and priority live on different numeric scales, a linear
blend is scale-sensitive; the optional ``normalize`` flag rescales both
terms by their current queue maxima before blending (an ablation — the
paper itself blends raw values, which remains the default).
"""

from __future__ import annotations

from .base import PendingEntry, PullQueue, PullScheduler

__all__ = ["ImportanceFactorScheduler", "ExpectedImportanceScheduler"]


class ImportanceFactorScheduler(PullScheduler):
    """Eq. 1 online importance factor ``γ_i = α·S_i + (1−α)·Q_i``.

    Parameters
    ----------
    alpha:
        Stretch weight ``α ∈ [0, 1]``.
    normalize:
        If true, divide each term by its current maximum over the queue
        before blending (scale-free ablation; default off = paper).
    """

    name = "importance"

    def __init__(self, alpha: float, normalize: bool = False) -> None:
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._one_minus_alpha = 1.0 - self.alpha
        self.normalize = bool(normalize)
        # Raw Eq. 1 is a pure function of (R_i, L_i, Q_i) and qualifies for
        # the queue's heap index; normalisation couples entries through the
        # queue-wide maxima, so it must keep the scan.
        self.incremental = not self.normalize
        self._stretch_scale = 1.0
        self._priority_scale = 1.0

    def set_alpha(self, alpha: float) -> None:
        """Retune the stretch weight in place (control-plane knob).

        Any heap index built over the old scores is stale afterwards —
        callers must re-attach the scorer so
        :meth:`~repro.schedulers.base.PullQueue.attach_scorer` re-scores
        every entry (the servers' ``reconfigure_alpha`` does exactly
        that).
        """
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._one_minus_alpha = 1.0 - self.alpha

    def gamma(self, entry: PendingEntry) -> float:
        """The importance factor of one entry (Eq. 1)."""
        return (
            self.alpha * entry.stretch / self._stretch_scale
            + self._one_minus_alpha * entry.total_priority / self._priority_scale
        )

    def score(self, entry: PendingEntry, now: float) -> float:
        """Eq. 1, inlined; time plays no role.

        The heap index calls this once per changed entry per selection,
        so the ``stretch`` property and the :meth:`gamma` dispatch are
        flattened into one expression — keep in sync with :meth:`gamma`.
        """
        return (
            self.alpha
            * (entry.num_requests / (entry.length * entry.length))
            / self._stretch_scale
            + self._one_minus_alpha * entry.total_priority / self._priority_scale
        )

    def select(self, queue: PullQueue, now: float) -> PendingEntry | None:
        """Max-γ entry; refreshes normalisation scales first if enabled."""
        if self.normalize:
            # Scales stay pinned at 1.0 whenever normalisation is off, so
            # only this branch ever needs to touch them.
            if queue:
                self._stretch_scale = max((e.stretch for e in queue), default=1.0) or 1.0
                self._priority_scale = max((e.total_priority for e in queue), default=1.0) or 1.0
            else:
                self._stretch_scale = 1.0
                self._priority_scale = 1.0
        return super().select(queue, now)


class ExpectedImportanceScheduler(ImportanceFactorScheduler):
    """Eq. 6 expected importance ``ϱ_i`` with the ``E[L_pull]·p_i`` weight.

    ``E[L_pull]`` is estimated online as an exponential moving average of
    the observed pull-queue length (distinct pending items), so the policy
    needs no analytical pre-computation.

    Parameters
    ----------
    alpha:
        Stretch weight as in Eq. 1.
    ema:
        Smoothing factor of the queue-length moving average in (0, 1].
    """

    name = "importance-expected"

    def __init__(self, alpha: float, ema: float = 0.05) -> None:
        super().__init__(alpha=alpha, normalize=False)
        # The E[L_pull] estimate drifts between selections, so scores
        # recorded at mutation time would be stale: keep the scan.
        self.incremental = False
        if not 0 < ema <= 1:
            raise ValueError(f"ema must be in (0, 1], got {ema}")
        self.ema = float(ema)
        self._expected_len = 1.0

    def gamma(self, entry: PendingEntry) -> float:
        """The expected importance factor ϱ_i (Eq. 6)."""
        weight = self._expected_len * entry.probability
        return (
            self.alpha * weight / (entry.length * entry.length)
            + (1.0 - self.alpha) * weight * entry.total_priority
        )

    def score(self, entry: PendingEntry, now: float) -> float:
        """Eq. 6 via :meth:`gamma` (the parent inlines Eq. 1 instead)."""
        return self.gamma(entry)

    def select(self, queue: PullQueue, now: float) -> PendingEntry | None:
        """Update the E[L_pull] estimate, then pick the max-ϱ entry."""
        if queue:
            self._expected_len += self.ema * (len(queue) - self._expected_len)
        return PullScheduler.select(self, queue, now)
