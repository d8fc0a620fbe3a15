"""Exact steady state of the paper's §4.1 hybrid birth-death chain.

The model (Figure 2 of the paper): the pull queue holds ``i`` items and
the server phase ``j`` is 0 (broadcasting a push item) or 1 (serving a
pull item).  Transitions

* arrival (rate λ):          ``(i, j) → (i+1, j)``
* push completion (rate μ₁): ``(i, 0) → (i, 1)``   for ``i ≥ 1``
* pull completion (rate μ₂): ``(i, 1) → (i−1, 0)``

with ``(0, 0)`` the idle state (an arrival there starts a push phase:
``(0,0) → (1,0)``).  The paper derives, via z-transforms,

* idle probability  ``p(0,0) = 1 − ρ − ρ/f``  with ``ρ = λ/μ₂``,
  ``f = μ₁/μ₂``;
* pull-phase occupancy ``Σ p(i,1) = ρ`` and busy push-phase occupancy
  ``ρ/f``.

We instead solve the truncated CTMC *numerically* (sparse direct solve),
which yields every stationary quantity — including the mean pull-queue
length ``E[L_pull]`` that the paper's Eq. 5 leaves in terms of an
unevaluated unknown — and lets tests verify the paper's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HybridBirthDeathChain", "BirthDeathSolution"]


@dataclass(frozen=True)
class BirthDeathSolution:
    """Stationary distribution and summary statistics of the chain.

    Attributes
    ----------
    pi_push:
        ``π(i, 0)`` for ``i = 0..C`` (index 0 is the idle state).
    pi_pull:
        ``π(i, 1)`` for ``i = 0..C`` (``π(0,1) = 0`` structurally).
    """

    pi_push: np.ndarray
    pi_pull: np.ndarray

    @property
    def idle_probability(self) -> float:
        """``p(0,0)`` — paper closed form ``1 − ρ − ρ/f``."""
        return float(self.pi_push[0])

    @property
    def pull_occupancy(self) -> float:
        """Fraction of time serving pull items — paper: ``ρ``."""
        return float(self.pi_pull.sum())

    @property
    def push_busy_occupancy(self) -> float:
        """Fraction of time broadcasting while pull work waits — paper: ``ρ/f``."""
        return float(self.pi_push[1:].sum())

    @property
    def mean_pull_queue_length(self) -> float:
        """``E[L_pull] = Σ_i i·(π(i,0) + π(i,1))``."""
        i = np.arange(len(self.pi_push), dtype=float)
        return float(i @ self.pi_push + i @ self.pi_pull)

    @property
    def mean_queue_during_push(self) -> float:
        """The paper's ``N``: mean pull-queue length while in push phase.

        Conditional expectation ``E[i | j = 0, i ≥ 1]``-weighted as the
        paper uses it — the derivative of ``P₁(z)`` at 1, i.e. the
        *unconditional* sum ``Σ i·π(i,0)``.
        """
        i = np.arange(len(self.pi_push), dtype=float)
        return float(i @ self.pi_push)


class HybridBirthDeathChain:
    """Truncated CTMC solver for the §4.1 model.

    Parameters
    ----------
    lam:
        Pull arrival rate ``λ`` (already thinned by the pull mass).
    mu1:
        Push service rate ``μ₁``.
    mu2:
        Pull service rate ``μ₂``.
    truncation:
        Largest pull-queue length ``C`` represented.  Pick large enough
        that the tail mass is negligible; :meth:`solve` reports the mass
        at the boundary for a self-check.
    """

    def __init__(self, lam: float, mu1: float, mu2: float, truncation: int = 400) -> None:
        if min(lam, mu1, mu2) <= 0:
            raise ValueError(f"rates must be > 0, got lam={lam}, mu1={mu1}, mu2={mu2}")
        if truncation < 2:
            raise ValueError(f"truncation must be >= 2, got {truncation}")
        self.lam = float(lam)
        self.mu1 = float(mu1)
        self.mu2 = float(mu2)
        self.truncation = int(truncation)

    # -- paper quantities -------------------------------------------------------
    @property
    def rho(self) -> float:
        """``ρ = λ/μ₂`` — pull occupancy."""
        return self.lam / self.mu2

    @property
    def f(self) -> float:
        """``f = μ₁/μ₂``."""
        return self.mu1 / self.mu2

    @property
    def total_load(self) -> float:
        """``ρ + ρ/f = λ(1/μ₂ + 1/μ₁)`` — must be < 1 for stability."""
        return self.rho + self.rho / self.f

    def is_stable(self) -> bool:
        """Whether the alternating system has a stationary distribution."""
        return self.total_load < 1.0

    def idle_probability_closed_form(self) -> float:
        """The paper's ``p(0,0) = 1 − ρ − ρ/f``."""
        return 1.0 - self.rho - self.rho / self.f

    # -- numeric solution ----------------------------------------------------------
    def _state_index(self, i: int, j: int) -> int:
        """Pack state (i, j) into a flat index.

        Layout: index 0 = (0,0); then for i = 1..C: (i,0) ↦ 2i−1,
        (i,1) ↦ 2i.
        """
        if i == 0:
            if j != 0:
                raise ValueError("state (0,1) does not exist")
            return 0
        return 2 * i - 1 + j

    def solve(self) -> BirthDeathSolution:
        """Stationary distribution by direct sparse solve of ``πQ = 0``.

        Raises
        ------
        ValueError
            If the chain is unstable (no stationary distribution).
        """
        if not self.is_stable():
            raise ValueError(
                f"unstable chain: rho + rho/f = {self.total_load:.4f} >= 1"
            )
        from scipy.sparse import lil_matrix
        from scipy.sparse.linalg import spsolve

        C = self.truncation
        n = 2 * C + 1
        Q = lil_matrix((n, n))

        def add(src: int, dst: int, rate: float) -> None:
            Q[src, dst] += rate
            Q[src, src] -= rate

        idx = self._state_index
        # Idle state: arrival starts a push phase.
        add(idx(0, 0), idx(1, 0), self.lam)
        for i in range(1, C + 1):
            # Push phase (i, 0).
            if i < C:
                add(idx(i, 0), idx(i + 1, 0), self.lam)
            add(idx(i, 0), idx(i, 1), self.mu1)
            # Pull phase (i, 1).
            if i < C:
                add(idx(i, 1), idx(i + 1, 1), self.lam)
            add(idx(i, 1), idx(i - 1, 0) if i > 1 else idx(0, 0), self.mu2)

        # Solve pi Q = 0 with sum(pi) = 1: replace the last balance
        # equation with the normalisation condition.
        A = Q.transpose().tocsr().tolil()
        A[n - 1, :] = 1.0
        b = np.zeros(n)
        b[n - 1] = 1.0
        pi = spsolve(A.tocsr(), b)
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()

        pi_push = np.zeros(C + 1)
        pi_pull = np.zeros(C + 1)
        pi_push[0] = pi[0]
        for i in range(1, C + 1):
            pi_push[i] = pi[idx(i, 0)]
            pi_pull[i] = pi[idx(i, 1)]
        return BirthDeathSolution(pi_push=pi_push, pi_pull=pi_pull)

    def boundary_mass(self, solution: BirthDeathSolution) -> float:
        """Probability mass at the truncation boundary (should be ≈ 0)."""
        return float(solution.pi_push[-1] + solution.pi_pull[-1])

    def mean_pull_waiting_time(self) -> float:
        """``E[W_pull]`` via Little's law on the numeric ``E[L_pull]``."""
        solution = self.solve()
        return solution.mean_pull_queue_length / self.lam
