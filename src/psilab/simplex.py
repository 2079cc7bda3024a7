"""Phase-1 LP plus the numpy Farkas check, answer unjudged.

``phase1`` minimizes the sum of artificial variables s in [A D][x; s] = b,
x, s >= 0 (D = diag(sign b), so x = 0, s = |b| is always feasible) with
scipy's HiGHS.  Whenever HiGHS solves the LP it returns both the clipped
primal x >= 0 and the phase-1 equality duals y, and checks neither: the
verdict is ``nogo.lp_feasibility``'s.

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

# Tolerance of the residual and Farkas checks, and the solver's iteration limit.
LP_TOL = 1e-9
LP_MAX_ITER = 10**6


class LpStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Phase1Result:
    x: np.ndarray | None  # clipped primal for the original variables, unchecked
    y: np.ndarray | None  # phase-1 equality duals, unchecked
    objective: float  # phase-1 optimum: sum of artificials
    iterations: int


def is_farkas(a, b: np.ndarray, y: np.ndarray) -> bool:
    """The numpy check of a Farkas vector: max(A^T y) <= LP_TOL < b^T y."""
    return bool(np.max(a.T @ y, initial=-np.inf) <= LP_TOL and b @ y > LP_TOL)


def phase1(a, b: np.ndarray) -> Phase1Result:
    """Phase-1 LP for A x = b, x >= 0 (A dense or scipy.sparse); x and y are
    None unless HiGHS solves it."""
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
        return Phase1Result(None, None, np.nan, res.nit)
    return Phase1Result(np.clip(res.x[:n], 0.0, None),
                        np.asarray(res.eqlin.marginals, dtype=float), res.fun, res.nit)
