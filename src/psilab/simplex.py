"""Self-contained phase-1 simplex for equality-constrained feasibility.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with a dense tableau and Bland's anti-cycling rule.
Small and dependency-free on purpose: feasibility verdicts double as
certificates in the no-go analysis and must be reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class LpStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Phase1Result:
    status: LpStatus
    x: np.ndarray | None  # feasible point for the original variables
    objective: float  # residual sum of artificials at termination
    iterations: int


def phase1(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 10**6,
) -> Phase1Result:
    """Phase-1 feasibility for A x = b, x >= 0, via artificial variables."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = a.shape
    a = a.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Tableau rows: [A | I | b]; artificial variables start basic.
    t = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    # Reduced costs for min sum(artificials): cbar_j = c_j - sum over rows of
    # column j (artificial columns start with cbar = 0).
    cbar = np.concatenate([-np.sum(a, axis=0), np.zeros(m)])

    piv_tol = 1e-11
    it = 0
    while it < max_iter:
        entering = -1
        for j in range(n + m):
            if cbar[j] < -piv_tol:
                entering = j  # Bland: smallest eligible index
                break
        if entering < 0:
            break
        col = t[:, entering]
        rows = np.flatnonzero(col > piv_tol)
        if rows.size == 0:
            # Unbounded direction cannot happen with artificials bounded by
            # the objective, but guard anyway.
            break
        ratios = t[rows, -1] / col[rows]
        best = np.min(ratios)
        # Bland tie-break: smallest basis index among minimizing rows.
        cand = rows[ratios <= best + 1e-15]
        leave = cand[np.argmin(basis[cand])]

        piv = t[leave, entering]
        t[leave] /= piv
        for r in range(m):
            if r != leave and t[r, entering] != 0.0:
                t[r] -= t[r, entering] * t[leave]
        cbar = cbar - cbar[entering] * t[leave, :-1]
        cbar[entering] = 0.0
        basis[leave] = entering
        it += 1
    else:
        return Phase1Result(LpStatus.INDETERMINATE, None, np.nan, it)

    # Objective value: artificials still basic contribute their row values.
    obj = float(np.sum(t[basis >= n, -1]))
    if obj <= tol:
        x = np.zeros(n)
        in_range = basis < n
        x[basis[in_range]] = t[in_range, -1]
        np.clip(x, 0.0, None, out=x)
        return Phase1Result(LpStatus.FEASIBLE, x, obj, it)
    return Phase1Result(LpStatus.INFEASIBLE, None, obj, it)
