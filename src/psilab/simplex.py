"""Certified phase-1 feasibility for equality-constrained nonnegative systems.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables s in [A D][x; s] = b, x, s >= 0 (D = diag(sign b), so
x = 0, s = |b| is always feasible), solved by scipy's HiGHS.  A verdict is
accepted only after a numpy check that does not trust the solver:

- FEASIBLE: the clipped witness x >= 0 satisfies ||A x - b||_inf <= tol;
- INFEASIBLE: the phase-1 equality duals y form a Farkas certificate,
  max(A^T y) <= tol and b^T y > tol (for x >= 0 with A x = b,
  b^T y = x^T A^T y <= 0 up to tol);
- anything else is INDETERMINATE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse


class LpStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Phase1Result:
    status: LpStatus
    x: np.ndarray | None  # checked feasible point for the original variables
    y: np.ndarray | None  # checked Farkas vector: A^T y <= tol, b^T y > tol
    objective: float  # phase-1 optimum: sum of artificials
    iterations: int


def phase1(
    a,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 10**6,
) -> Phase1Result:
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
        options={"maxiter": max_iter},
    )
    if res.status != 0:
        return Phase1Result(LpStatus.INDETERMINATE, None, None, np.nan, res.nit)
    x = np.clip(res.x[:n], 0.0, None)
    if np.max(np.abs(a @ x - b), initial=0.0) <= tol:
        return Phase1Result(LpStatus.FEASIBLE, x, None, res.fun, res.nit)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    if np.max(a.T @ y, initial=-np.inf) <= tol and b @ y > tol:
        return Phase1Result(LpStatus.INFEASIBLE, None, y, res.fun, res.nit)
    return Phase1Result(LpStatus.INDETERMINATE, None, None, res.fun, res.nit)
