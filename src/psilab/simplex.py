"""Certified phase-1 feasibility for equality-constrained nonnegative systems.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables s in [A D][x; s] = b, x, s >= 0 (D = diag(sign b), so
x = 0, s = |b| is always feasible), solved by scipy's HiGHS.  A verdict is
accepted only after a numpy check that does not trust the solver:

- FEASIBLE: the clipped witness x >= 0 satisfies ||A x - b||_inf <= LP_TOL;
- INFEASIBLE: the phase-1 equality duals y pass ``is_farkas``,
  max(A^T y) <= LP_TOL and b^T y > LP_TOL;
- anything else is INDETERMINATE.

The duals are returned whenever HiGHS solves the LP, whatever the verdict.
``is_farkas`` alone proves infeasibility only when A^T y <= 0: for x >= 0
with A x = b, b^T y = x^T A^T y <= sum(x) max(A^T y), so a positive
max(A^T y) within LP_TOL can hide a feasible system.  A caller that knows
how to bound sum(x) repairs y first (``nogo.lp_feasibility``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

# Acceptance tolerance of both checks, and the solver's iteration limit.
LP_TOL = 1e-9
LP_MAX_ITER = 10**6


class LpStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Phase1Result:
    status: LpStatus
    x: np.ndarray | None  # checked feasible point for the original variables
    y: np.ndarray | None  # phase-1 equality duals, unchecked (None if feasible or failed)
    objective: float  # phase-1 optimum: sum of artificials
    iterations: int


def is_farkas(a, b: np.ndarray, y: np.ndarray) -> bool:
    """The numpy check of a Farkas vector: max(A^T y) <= LP_TOL < b^T y."""
    return bool(np.max(a.T @ y, initial=-np.inf) <= LP_TOL and b @ y > LP_TOL)


def phase1(a, b: np.ndarray) -> Phase1Result:
    """Phase-1 feasibility for A x = b, x >= 0 (A dense or scipy.sparse)."""
    # Deferred: scipy.optimize costs ~0.2 s and ~19 MB at import, which every
    # process that never solves an LP would otherwise pay.
    from scipy.optimize import linprog

    a = sparse.csr_matrix(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    sign = np.where(b < 0, -1.0, 1.0)
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(m)]),
        A_eq=sparse.hstack([a, sparse.diags(sign)], format="csr"),
        b_eq=b,
        bounds=(0, None),
        method="highs",
        options={"maxiter": LP_MAX_ITER},
    )
    if res.status != 0:
        return Phase1Result(LpStatus.INDETERMINATE, None, None, np.nan, res.nit)
    x = np.clip(res.x[:n], 0.0, None)
    if np.max(np.abs(a @ x - b), initial=0.0) <= LP_TOL:
        return Phase1Result(LpStatus.FEASIBLE, x, None, res.fun, res.nit)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    status = LpStatus.INFEASIBLE if is_farkas(a, b, y) else LpStatus.INDETERMINATE
    return Phase1Result(status, None, y, res.fun, res.nit)
