"""Exact two-class non-preemptive priority queue (§4.2.1).

The paper attacks the two-class case with a two-dimensional z-transform
(Eqs. 7–13) and concedes that "obtaining a reasonable solution to these
set of stationary equations is almost impossible", settling for expected
values.  Here we instead solve the underlying CTMC *exactly* on a
truncated state space ``(m, n, r)``:

* ``m`` — class-1 (most important) jobs in system,
* ``n`` — class-2 jobs in system,
* ``r`` — class currently in service (0 idle, 1, 2), non-preemptive:
  a finishing server always picks a waiting class-1 job first.

The mean queue sizes ``L₁ = ∂H/∂y``, ``L₂ = ∂H/∂z`` that the paper reads
off its transform are here plain expectations over the stationary
distribution, and the expected waits follow from Little's formula exactly
as in the paper (``E[W_i] = L_i/λ_i``).  Tests verify the solver against
Cobham's closed form (Eq. 18), closing the loop between §4.2.1 and §4.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TwoClassPriorityQueue", "TwoClassSolution"]


@dataclass(frozen=True)
class TwoClassSolution:
    """Stationary summary of the exact two-class chain.

    ``L`` values count jobs *in system* (queue + service); waits are
    sojourn times from Little's formula and ``waiting_times`` the
    queue-only waits (sojourn minus own mean service).
    """

    mean_jobs: tuple[float, float]
    sojourn_times: tuple[float, float]
    waiting_times: tuple[float, float]
    idle_probability: float
    boundary_mass: float


class TwoClassPriorityQueue:
    """Exact truncated-CTMC solver for two priority classes.

    Parameters
    ----------
    lam1, lam2:
        Poisson arrival rates (class 1 = most important).
    mu1, mu2:
        Exponential service rates of class-1 and class-2 jobs.  The paper
        uses a common rate ``μ₂`` for both; passing distinct rates is
        allowed (non-preemptive Cobham still applies).
    truncation:
        Per-class population cap ``C``.
    """

    def __init__(
        self, lam1: float, lam2: float, mu1: float, mu2: float, truncation: int = 60
    ) -> None:
        if min(lam1, lam2, mu1, mu2) <= 0:
            raise ValueError("all rates must be > 0")
        if truncation < 2:
            raise ValueError(f"truncation must be >= 2, got {truncation}")
        self.lam1, self.lam2 = float(lam1), float(lam2)
        self.mu1, self.mu2 = float(mu1), float(mu2)
        self.truncation = int(truncation)
        rho = lam1 / mu1 + lam2 / mu2
        if rho >= 1.0:
            raise ValueError(f"unstable queue: total occupancy {rho:.4f} >= 1")

    def solve(self) -> TwoClassSolution:
        """Stationary distribution via sparse direct solve."""
        from scipy.sparse import lil_matrix
        from scipy.sparse.linalg import spsolve

        C = self.truncation
        valid: list[tuple[int, int, int]] = [(0, 0, 0)]
        for m in range(C + 1):
            for n in range(C + 1):
                if m >= 1:
                    valid.append((m, n, 1))
                if n >= 1:
                    valid.append((m, n, 2))
        index = {state: i for i, state in enumerate(valid)}
        size = len(valid)
        Q = lil_matrix((size, size))

        def idx(m: int, n: int, r: int) -> int:
            return index[(m, n, r)]

        def add(src: int, dst: int, rate: float) -> None:
            Q[src, dst] += rate
            Q[src, src] -= rate

        for m, n, r in valid:
            s = idx(m, n, r)
            # Arrivals.
            if m < C:
                dst_r = 1 if r == 0 else r
                add(s, idx(m + 1, n, dst_r), self.lam1)
            if n < C:
                dst_r = 2 if r == 0 else r
                add(s, idx(m, n + 1, dst_r), self.lam2)
            # Service completion (non-preemptive head-of-line pick-next).
            if r == 1:
                m2 = m - 1
                if m2 >= 1:
                    add(s, idx(m2, n, 1), self.mu1)
                elif n >= 1:
                    add(s, idx(m2, n, 2), self.mu1)
                else:
                    add(s, idx(0, 0, 0), self.mu1)
            elif r == 2:
                n2 = n - 1
                if m >= 1:
                    add(s, idx(m, n2, 1), self.mu2)
                elif n2 >= 1:
                    add(s, idx(m, n2, 2), self.mu2)
                else:
                    add(s, idx(0, 0, 0), self.mu2)

        A = Q.transpose().tocsr().tolil()
        A[size - 1, :] = 0.0
        for m, n, r in valid:
            A[size - 1, idx(m, n, r)] = 1.0
        b = np.zeros(size)
        b[size - 1] = 1.0
        pi = spsolve(A.tocsr(), b)
        pi = np.maximum(pi, 0.0)
        total = pi.sum()
        if total <= 0:
            raise RuntimeError("degenerate stationary solve")
        pi /= total

        # Expectations over valid states.
        l1 = l2 = idle = boundary = 0.0
        for m, n, r in valid:
            p = float(pi[idx(m, n, r)])
            l1 += m * p
            l2 += n * p
            if (m, n, r) == (0, 0, 0):
                idle = p
            if m == C or n == C:
                boundary += p

        w1 = l1 / self.lam1
        w2 = l2 / self.lam2
        return TwoClassSolution(
            mean_jobs=(l1, l2),
            sojourn_times=(w1, w2),
            waiting_times=(w1 - 1.0 / self.mu1, w2 - 1.0 / self.mu2),
            idle_probability=idle,
            boundary_mass=boundary,
        )
