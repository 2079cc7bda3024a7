"""No-go engine for hidden-variable response functions.

Extracts zero-probability constraints from product states and a measurement
basis, derives the support-disjointness contradiction analytically, decides
existence of preparation-independent response functions by linear
feasibility, and constructs both the disjoint-support model and the
contextual (preparation-conditioned) escape.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import product

import numpy as np
from scipy import sparse

from . import ontology as ont
from . import qcore
from .simplex import LpStatus, phase1

ZERO_TOL = 1e-10
LP_TOL = 1e-9
LP_MAX_ITER = 10**6


class NogoError(ValueError):
    pass


class ContextualModelError(NogoError):
    """Raised when a preparation-independent argument is applied to a
    contextual model: the responses of different preparations cannot be
    compared, so no forcing argument across preparations is available."""


@dataclass(frozen=True)
class ZeroConstraint:
    """Born probability that vanishes: outcome i for the given preparation tuple."""

    outcome_index: int
    preps: tuple[int, ...]
    born_value: float


@dataclass(frozen=True)
class ContradictionCertificate:
    """A lambda tuple at which every response entry is forced to zero.

    At ``witness`` each constraint listed in ``forced`` applies (all densities
    in its preparation tuple are positive there), so the response entries for
    all outcomes vanish while they must sum to one.
    """

    witness: tuple[int, ...]
    forced: tuple[ZeroConstraint, ...]


@dataclass(frozen=True)
class NoContradiction:
    """No lambda tuple is simultaneously constrained for every outcome."""

    reason: str = "supports admit no forcing tuple"


def zero_constraints(
    states: list[qcore.QState],
    basis: qcore.MeasurementBasis,
    tol: float = ZERO_TOL,
) -> list[ZeroConstraint]:
    """All (outcome, preparation tuple) pairs with Born probability below tol."""
    state_dims = states[0].dims
    if basis.dims % state_dims != 0:
        raise qcore.DimensionMismatch(
            f"basis dims {basis.dims} not a multiple of state dims {state_dims}"
        )
    arity = basis.dims // state_dims
    out = []
    for combo in product(range(len(states)), repeat=arity):
        joint = qcore.tensor([states[j] for j in combo])
        for i, phi in enumerate(basis.vectors):
            p = qcore.born(phi, joint)
            if p < tol:
                out.append(ZeroConstraint(i, combo, p))
    out.sort(key=lambda z: (z.outcome_index, z.preps))
    return out


def analytic_contradiction(
    model: ont.OntModel,
    constraints: list[ZeroConstraint],
    eps: float | None = None,
) -> ContradictionCertificate | NoContradiction:
    """Search for a lambda tuple where the zero constraints force every outcome.

    Preparation indices in the constraints refer to the model's preparation
    insertion order.  Requires a universal (preparation-independent) response:
    for contextual models the forcing step is unavailable and
    ContextualModelError is raised.
    """
    if isinstance(model.response, ont.ContextualResponse):
        raise ContextualModelError(
            "contextual response: outcome probabilities are conditioned on the "
            "preparation, so zero constraints from different preparations never "
            "apply to the same response entry"
        )
    labels = model.prep_labels
    supports = []
    for label in labels:
        mask = np.zeros(model.space.size, dtype=bool)
        mask[ont.support(model.preparations[label], eps)] = True
        supports.append(mask)

    arity = model.product_arity
    n_out = len(model.response.outcomes)
    for tup in product(range(model.space.size), repeat=arity):
        forced = []
        seen = set()
        for z in constraints:
            if len(z.preps) != arity:
                raise NogoError("constraint arity does not match the model")
            if all(supports[j][lam] for j, lam in zip(z.preps, tup)):
                forced.append(z)
                seen.add(z.outcome_index)
        if len(seen) == n_out:
            return ContradictionCertificate(tup, tuple(forced))
    return NoContradiction()


# ---------------------------------------------------------------------------
# Linear feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityProblem:
    """Existence of a universal response reproducing given Born values.

    Variables are response entries xi(outcome i | lambda tuple) over the
    ``cells`` (cells of the lambda space lying in some preparation support).
    Equalities: per-tuple normalization over outcomes, and one reproduction
    constraint per (outcome, preparation tuple).
    """

    space: ont.LambdaSpace
    densities: tuple[ont.PreparationDensity, ...]
    n_outcomes: int
    arity: int
    cells: np.ndarray  # active lambda cells (indices into the space)
    born: dict  # (outcome index, prep tuple) -> probability
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.n_outcomes * len(self.cells) ** self.arity

    def xi_shape(self) -> tuple[int, ...]:
        return (self.n_outcomes,) + (len(self.cells),) * self.arity


def build_feasibility_problem(
    space: ont.LambdaSpace,
    densities: list[ont.PreparationDensity],
    born: dict,
    n_outcomes: int,
    arity: int,
) -> FeasibilityProblem:
    """Assemble the equality system for a universal-response existence check."""
    union = np.zeros(space.size, dtype=bool)
    for d in densities:
        union[ont.support(d)] = True
    cells = np.flatnonzero(union)
    n_tuples = len(cells) ** arity

    # Normalization: sum over outcomes at each lambda tuple.
    norm = sparse.hstack([sparse.identity(n_tuples, format="csr")] * n_outcomes)
    # Reproduction: the Kronecker product of the weighted densities of the
    # preparation tuple (flattened in itertools.product order), placed in its
    # outcome's block of columns.
    rho_w = [d.values[cells] * space.weights[cells] for d in densities]
    keys = sorted(born)
    kron = np.array(
        [reduce(np.kron, [rho_w[j] for j in combo]) for _, combo in keys]
    ).reshape(len(keys), n_tuples)
    r, t = np.nonzero(kron)  # stored entries only, as in the dense count
    outcome = np.array([i for i, _ in keys], dtype=int)
    repro = sparse.csr_matrix(
        (kron[r, t], (r, outcome[r] * n_tuples + t)),
        shape=(len(keys), n_outcomes * n_tuples),
    )
    return FeasibilityProblem(
        space=space,
        densities=tuple(densities),
        n_outcomes=n_outcomes,
        arity=arity,
        cells=cells,
        born=dict(born),
        a_eq=sparse.vstack([norm, repro], format="csr"),
        b_eq=np.concatenate([np.ones(n_tuples), [born[k] for k in keys]]),
    )


def pbr_scene_problem(
    cells_per_support: int = 4,
    shared: int = 2,
    n: int = 2,
    basis: qcore.MeasurementBasis | None = None,
    states: list[qcore.QState] | None = None,
) -> FeasibilityProblem:
    """Feasibility scene for the two-state product construction.

    Uniform preparation densities on two supports of ``cells_per_support``
    cells overlapping in ``shared`` cells; Born values from tensor powers of
    the state pair against the basis.  Defaults to the fixed 2-qubit basis
    with the pair |0>, |+>.  Raises NogoError for ``cells_per_support < 1``,
    ``shared`` outside [0, cells_per_support], or a ``qcore.NotFound`` basis.
    """
    if cells_per_support < 1:
        raise NogoError(
            f"cells_per_support must be at least 1, got {cells_per_support}"
        )
    if not 0 <= shared <= cells_per_support:
        raise NogoError(
            f"shared must lie in [0, {cells_per_support}] cells, got {shared}"
        )
    if isinstance(basis, qcore.NotFound):
        raise NogoError(
            f"no {n}-copy basis: search ended at residual {basis.residual:.3g} "
            f"after {basis.attempts} attempts"
        )
    if states is None:
        states = [qcore.ket(0), qcore.ket_plus()]
    if basis is None:
        if n != 2:
            raise NogoError("a basis must be supplied for n != 2")
        basis = qcore.pbr_basis_2qubit()

    m = 2 * cells_per_support - shared
    space = ont.LambdaSpace(weights=np.ones(m))
    rho1 = ont.uniform_density(space, "psi1", np.arange(cells_per_support))
    rho2 = ont.uniform_density(
        space, "psi2", np.arange(cells_per_support - shared, m)
    )
    born = {}
    for combo in product(range(2), repeat=n):
        joint = qcore.tensor([states[j] for j in combo])
        for i, phi in enumerate(basis.vectors):
            born[(i, combo)] = qcore.born(phi, joint)
    return build_feasibility_problem(space, [rho1, rho2], born, len(basis), n)


@dataclass(frozen=True)
class FeasibilityReport:
    status: LpStatus
    witness: np.ndarray | None  # response table over (outcome, active-cell tuple)
    certificate: ContradictionCertificate | NoContradiction | None
    residual: float
    iterations: int
    farkas: np.ndarray | None  # checked dual y: A^T y <= tol, b^T y > tol
    certificate_margin: float | None  # b^T y of the Farkas vector


def _certificate_from_problem(
    problem: FeasibilityProblem,
) -> ContradictionCertificate | NoContradiction:
    constraints = [
        ZeroConstraint(i, combo, v)
        for (i, combo), v in problem.born.items()
        if v < ZERO_TOL
    ]
    resp = ont.UniversalResponse(
        tuple(str(i) for i in range(problem.n_outcomes)),
        np.full(
            (problem.n_outcomes,) + (problem.space.size,) * problem.arity,
            1.0 / problem.n_outcomes,
        ),
    )
    model = ont.OntModel(
        problem.space,
        {d.label: d for d in problem.densities},
        resp,
        product_arity=problem.arity,
    )
    return analytic_contradiction(model, constraints)


def lp_feasibility(problem: FeasibilityProblem, tol: float = LP_TOL) -> FeasibilityReport:
    """Phase-1 feasibility decision with checked evidence.

    Feasible: returns the response table found by the solver, whose residual
    against the equalities was checked to be within tol.  Infeasible: returns
    the Farkas vector y checked in numpy (max A^T y <= tol, margin b^T y >
    tol); the residual is the phase-1 optimum, and the analytic forcing tuple
    is attached as a cross-check when one exists.  Indeterminate when the
    solver stops early or neither check passes.
    """
    res = phase1(problem.a_eq, problem.b_eq, tol=tol, max_iter=LP_MAX_ITER)
    if res.status is LpStatus.FEASIBLE:
        xi = res.x.reshape(problem.xi_shape())
        residual = float(np.max(np.abs(problem.a_eq @ res.x - problem.b_eq)))
        return FeasibilityReport(
            res.status, xi, None, residual, res.iterations, None, None
        )
    if res.status is LpStatus.INFEASIBLE:
        return FeasibilityReport(
            res.status, None, _certificate_from_problem(problem), res.objective,
            res.iterations, res.y, float(problem.b_eq @ res.y),
        )
    return FeasibilityReport(res.status, None, None, np.nan, res.iterations, None, None)


# ---------------------------------------------------------------------------
# Model constructions
# ---------------------------------------------------------------------------


def construct_disjoint_model(
    psi1: qcore.QState,
    psi2: qcore.QState,
    basis: qcore.MeasurementBasis,
) -> ont.OntModel:
    """Lambda in bijection with the prepared state: deltas on two cells.

    The universal response simply stores the Born matrix, so all product
    probabilities are reproduced exactly while the supports stay disjoint.
    """
    if basis.dims != psi1.dims + psi2.dims:
        raise qcore.DimensionMismatch("basis does not match the product space")
    space = ont.LambdaSpace(weights=np.ones(2))
    preps = {
        "psi1": ont.delta_density(space, "psi1", 0),
        "psi2": ont.delta_density(space, "psi2", 1),
    }
    states = (psi1, psi2)
    table = np.empty((len(basis), 2, 2))
    for j in range(2):
        for k in range(2):
            joint = qcore.tensor([states[j], states[k]])
            for i, phi in enumerate(basis.vectors):
                table[i, j, k] = qcore.born(phi, joint)
    resp = ont.UniversalResponse(
        tuple(f"phi_{i + 1}" for i in range(len(basis))), table
    )
    return ont.OntModel(space, preps, resp, product_arity=2)


SQO_CONTEXT = "pm"
SQO_OUTCOMES = ("+", "-")


def contextual_escape(scene: str) -> ont.OntModel:
    """Deterministic contextual model with overlapping supports for a scene.

    'beam-splitter': the two-gate interferometer model.
    'single-qubit-orthogonal': two orthogonal preparations sharing one
    uniform lambda distribution; the response conditioned on the preparation
    routes every lambda to the certain outcome.
    """
    if scene == "beam-splitter":
        return ont.build_beam_splitter_model()
    if scene == "single-qubit-orthogonal":
        m = 4
        space = ont.LambdaSpace(weights=np.full(m, 0.25))
        preps = {
            "psi1": ont.uniform_density(space, "psi1", np.arange(m)),
            "psi2": ont.uniform_density(space, "psi2", np.arange(m)),
        }
        all_minus = np.vstack([np.zeros(m), np.ones(m)])
        all_plus = np.vstack([np.ones(m), np.zeros(m)])
        resp = ont.ContextualResponse(
            SQO_OUTCOMES,
            {
                ("psi1", SQO_CONTEXT): all_minus,
                ("psi2", SQO_CONTEXT): all_plus,
            },
        )
        return ont.OntModel(space, preps, resp)
    raise NogoError(f"unknown scene {scene!r}")


def scene_born(scene: str) -> dict:
    """Quantum predictions reproduced by the corresponding escape model,
    keyed (preparation label, context, outcome)."""
    if scene == "beam-splitter":
        g = ont.BS_CONTEXT
        return {
            ("plus", g, "3"): 1.0,
            ("plus", g, "4"): 0.0,
            ("minus", g, "3"): 0.0,
            ("minus", g, "4"): 1.0,
            ("psi1", g, "3"): 0.5,
            ("psi1", g, "4"): 0.5,
            ("psi2", g, "3"): 0.5,
            ("psi2", g, "4"): 0.5,
        }
    if scene == "single-qubit-orthogonal":
        c = SQO_CONTEXT
        return {
            ("psi1", c, "+"): 0.0,
            ("psi1", c, "-"): 1.0,
            ("psi2", c, "+"): 1.0,
            ("psi2", c, "-"): 0.0,
        }
    raise NogoError(f"unknown scene {scene!r}")


def determinism_check(model: ont.OntModel, tol: float = 1e-9):
    """True iff every response entry is within tol of 0 or 1.

    Returns (flag, offenders); each offender is (key, value) where key locates
    the entry in the response table.
    """
    offenders = []
    resp = model.response
    if isinstance(resp, ont.UniversalResponse):
        it = np.nditer(resp.table, flags=["multi_index"])
        for v in it:
            val = float(v)
            if min(val, 1.0 - val) > tol:
                outcome = resp.outcomes[it.multi_index[0]]
                offenders.append(((outcome,) + it.multi_index[1:], val))
    else:
        for key, table in sorted(resp.tables.items()):
            it = np.nditer(table, flags=["multi_index"])
            for v in it:
                val = float(v)
                if min(val, 1.0 - val) > tol:
                    outcome = resp.outcomes[it.multi_index[0]]
                    offenders.append((key + (outcome, it.multi_index[1]), val))
    return len(offenders) == 0, offenders
