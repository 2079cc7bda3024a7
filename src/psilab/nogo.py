"""No-go engine for hidden-variable response functions.

Extracts zero-probability constraints from product states and a measurement
basis, derives the support-disjointness contradiction analytically, decides
existence of preparation-independent response functions by linear
feasibility, and constructs the contextual (preparation-conditioned) escape.
The forcing verdict and the LP's reproduction rows share one Kronecker rule,
``_kron_rows``, applied to the densities stacked as one array; supports come
from ``ontology.support_mask``, so each no-go verdict costs a fixed number of
array operations whatever the constraints.
A psi-ontic model with disjoint supports needs no construction here: the
witness of a FEASIBLE verdict on disjoint supports is its response.
Each scene fact is stated once: ``_zero_set`` is the one selection of the
Born values below ZERO_TOL (``zero_constraints`` and ``FeasibilityProblem.
zeros``), and ``ESCAPE_SCENES`` maps each escape scene to its model builder
and the Born values that model must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import sparse

from . import ontology as ont
from . import qcore
from .simplex import LpStatus, is_farkas, phase1

ZERO_TOL = 1e-10
# A response entry within this of 0 or 1 counts as deterministic.
DETERMINISM_TOL = 1e-9


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
    all outcomes vanish while they must sum to one.  ``margin`` is b^T y of
    PBR's closed-form Farkas vector, q^n when n copies share mass q.
    """

    witness: tuple[int, ...]
    forced: tuple[ZeroConstraint, ...]
    margin: float


@dataclass(frozen=True)
class NoContradiction:
    """No lambda tuple is simultaneously constrained for every outcome."""


def _born_values(states, basis: qcore.MeasurementBasis, arity: int) -> dict:
    """Born value of each (outcome index, preparation tuple).

    Tuples run in itertools.product order over the indices of ``states``.
    """
    born = {}
    for combo in product(range(len(states)), repeat=arity):
        joint = qcore.tensor([states[j] for j in combo])
        for i, phi in enumerate(basis.vectors):
            born[(i, combo)] = qcore.born(phi, joint)
    return born


def zero_constraints(
    states: list[qcore.QState],
    basis: qcore.MeasurementBasis,
) -> list[ZeroConstraint]:
    """All (outcome, preparation tuple) pairs with Born value below ZERO_TOL."""
    state_dims = states[0].dims
    if basis.dims % state_dims != 0:
        raise qcore.DimensionMismatch(
            f"basis dims {basis.dims} not a multiple of state dims {state_dims}"
        )
    return list(_zero_set(_born_values(states, basis, basis.dims // state_dims)))


def _zero_set(born: dict) -> tuple[ZeroConstraint, ...]:
    """The Born values below ZERO_TOL as zero constraints, in key order."""
    return tuple(ZeroConstraint(i, combo, p)
                 for (i, combo), p in sorted(born.items()) if p < ZERO_TOL)


def _kron_rows(factors: np.ndarray, combos, arity: int) -> np.ndarray:
    """Per tuple of row indices into the 2-D ``factors``, the Kronecker
    product of those rows, flattened in itertools.product order over their
    cells: one row per tuple, built by arity - 1 broadcast multiplies."""
    idx = np.array(combos, dtype=int).reshape(len(combos), arity).T
    rows = factors.take(idx[0], axis=0)
    for j in idx[1:]:
        rows = (rows[:, :, None] * factors.take(j, axis=0)[:, None, :]).reshape(
            len(combos), rows.shape[1] * factors.shape[1])
    return rows


def _forcing(densities, cells, constraints, n_outcomes: int, arity: int):
    """PBR's forcing step as a closed-form Farkas vector: (y_norm, verdict).

    Over the lambda tuples t of ``cells`` in itertools.product order, w_z(t)
    is the Kronecker row of constraint z's weighted densities, each restricted
    to its support, and y_norm(t) = min over outcomes of the max of w_z(t)
    over that outcome's constraints.  With y_norm on the normalization rows
    and -1 on the zero rows, A^T y <= 0 and b^T y = sum(y_norm) less the
    vanishing Born values.  The witness is the first t with y_norm(t) > 0.
    """
    values = np.array([d.values for d in densities])
    weights = np.array([d.space.weights for d in densities])
    factors = np.where(ont.support_mask(values), values * weights, 0.0).take(
        cells, axis=1)
    w = _kron_rows(factors, [z.preps for z in constraints], arity)
    best = np.zeros((n_outcomes, len(cells) ** arity))
    np.maximum.at(best, np.array([z.outcome_index for z in constraints], int), w)
    y_norm = best.min(axis=0)
    hits = np.flatnonzero(y_norm > 0.0)
    if hits.size == 0:
        return y_norm, NoContradiction()
    witness = np.unravel_index(hits[0], (len(cells),) * arity)
    return y_norm, ContradictionCertificate(
        tuple(int(cells[k]) for k in witness),
        tuple(z for z, wz in zip(constraints, w[:, hits[0]].tolist()) if wz > 0.0),
        float(y_norm.sum()),
    )


def analytic_contradiction(
    model: ont.OntModel,
    constraints: list[ZeroConstraint],
) -> ContradictionCertificate | NoContradiction:
    """Find a lambda tuple where the zero constraints force every outcome.

    Preparation indices in the constraints refer to the model's preparation
    insertion order.  Requires a universal (preparation-independent) response:
    for contextual models the forcing step is unavailable and
    ContextualModelError is raised.  NogoError is raised for a constraint
    whose arity, outcome index or preparation indices do not fit the model.
    """
    if isinstance(model.response, ont.ContextualResponse):
        raise ContextualModelError(
            "contextual response: outcome probabilities are conditioned on the "
            "preparation, so zero constraints from different preparations never "
            "apply to the same response entry"
        )
    arity, n_out = model.product_arity, len(model.response.outcomes)
    n_preps = len(model.preparations)
    for z in constraints:
        if (len(z.preps) != arity or not 0 <= z.outcome_index < n_out
                or not all(0 <= j < n_preps for j in z.preps)):
            raise NogoError(f"constraint {z} does not fit arity {arity}, "
                            f"{n_out} outcomes and {n_preps} preparations")
    densities, cells = list(model.preparations.values()), np.arange(model.space.size)
    return _forcing(densities, cells, constraints, n_out, arity)[1]


# ---------------------------------------------------------------------------
# Linear feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityProblem:
    """Existence of a universal response reproducing given Born values.

    Variables are response entries xi(outcome i | lambda tuple) over the
    ``cells`` (cells of the lambda space lying in some preparation support).
    Equalities: per-tuple normalization over outcomes, and one reproduction
    constraint per (outcome, preparation tuple).  ``zeros`` are the Born
    values below ZERO_TOL, as ``zero_constraints`` selects them.
    """

    space: ont.LambdaSpace
    densities: tuple[ont.PreparationDensity, ...]
    n_outcomes: int
    arity: int
    cells: np.ndarray  # active lambda cells (indices into the space)
    born: dict  # (outcome index, prep tuple) -> probability
    zeros: tuple[ZeroConstraint, ...]
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray


def build_feasibility_problem(
    space: ont.LambdaSpace,
    densities: list[ont.PreparationDensity],
    born: dict,
    n_outcomes: int,
    arity: int,
) -> FeasibilityProblem:
    """Assemble the equality system for a universal-response existence check."""
    values = np.array([d.values for d in densities])
    cells = np.flatnonzero(ont.support_mask(values).any(axis=0))
    n_tuples = len(cells) ** arity

    # Normalization: sum over outcomes at each lambda tuple.
    norm = sparse.hstack([sparse.identity(n_tuples, format="csr")] * n_outcomes)
    # Reproduction: the Kronecker row of the weighted densities of each
    # preparation tuple, placed in its outcome's block of columns.
    rho_w = values[:, cells] * space.weights[cells]
    keys = sorted(born)
    kron = _kron_rows(rho_w, [combo for _, combo in keys], arity)
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
        zeros=_zero_set(born),
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
            f"no {n}-copy PBR basis: the phases cannot close, the k = 0 side "
            f"exceeds the others by margin {basis.margin:.3g}"
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
    born = _born_values(states, basis, n)
    return build_feasibility_problem(space, [rho1, rho2], born, len(basis), n)


@dataclass(frozen=True)
class FeasibilityReport:
    status: LpStatus
    witness: np.ndarray | None  # response table over (outcome, active-cell tuple)
    certificate: ContradictionCertificate | NoContradiction | None
    residual: float
    iterations: int
    farkas: np.ndarray | None  # checked dual y: A^T y <= LP_TOL, b^T y > LP_TOL
    certificate_margin: float | None  # b^T y of the Farkas vector


def lp_feasibility(problem: FeasibilityProblem) -> FeasibilityReport:
    """Phase-1 feasibility decision with checked evidence.

    Feasible: returns the response table found by the solver, whose residual
    against the equalities was checked to be within simplex.LP_TOL.
    Infeasible: returns the Farkas vector y checked in numpy (max A^T y <=
    LP_TOL, margin b^T y > LP_TOL); the residual is the phase-1 optimum, and
    the closed-form forcing verdict is attached as a cross-check.  y is the
    solver's duals or, when they fail the check, PBR's closed-form vector
    (forcing weights, then -1 on the zero rows).  Else indeterminate.
    """
    res = phase1(problem.a_eq, problem.b_eq)
    if res.status is LpStatus.FEASIBLE:
        xi = res.x.reshape(problem.n_outcomes, *[len(problem.cells)] * problem.arity)
        residual = float(np.max(np.abs(problem.a_eq @ res.x - problem.b_eq)))
        return FeasibilityReport(
            res.status, xi, None, residual, res.iterations, None, None
        )
    y_norm, forcing = _forcing(problem.densities, problem.cells, problem.zeros,
                               problem.n_outcomes, problem.arity)
    y = res.y
    if res.status is LpStatus.INDETERMINATE:  # Born values follow y_norm in b_eq
        y = np.append(y_norm, np.where(problem.b_eq[len(y_norm):] < ZERO_TOL, -1.0, 0.0))
    if res.status is LpStatus.INFEASIBLE or is_farkas(problem.a_eq, problem.b_eq, y):
        return FeasibilityReport(
            LpStatus.INFEASIBLE, None, forcing, res.objective, res.iterations, y,
            float(problem.b_eq @ y),
        )
    return FeasibilityReport(res.status, None, None, np.nan, res.iterations, None, None)


# ---------------------------------------------------------------------------
# Contextual escapes
# ---------------------------------------------------------------------------


BS_CONTEXT = "gates"
BS_OUTCOMES = ("3", "4")
BS_CELLS_PER_GATE = 4
SQO_CONTEXT = "pm"
SQO_OUTCOMES = ("+", "-")


def _beam_splitter_model() -> ont.OntModel:
    """Deterministic contextual model of a 50-50 beam splitter.

    Lambda is the packet coordinate: two disjoint regions, one per input
    gate.  Preparations entering a single gate are uniform on their region;
    the two phased superpositions are uniform on both.  Responses are
    conditioned on the preparation: superposition '+' sends every lambda to
    exit 3 and '-' to exit 4, while single-gate preparations split their
    region in half by coordinate order (lower half to exit 3).  The choice
    of which half goes where is conventional; any fixed deterministic
    partition reproduces the 50-50 statistics.
    """
    cells_per_gate = BS_CELLS_PER_GATE
    m = 2 * cells_per_gate
    width = 1.0 / cells_per_gate
    centers = width * (np.arange(cells_per_gate) + 0.5)
    coords = np.concatenate([-2.0 + centers, 1.0 + centers])
    space = ont.LambdaSpace(weights=np.full(m, width), coords=coords)
    preparations = {
        "psi1": ont.uniform_density(space, "psi1", np.arange(cells_per_gate)),
        "psi2": ont.uniform_density(space, "psi2", np.arange(cells_per_gate, m)),
        "plus": ont.uniform_density(space, "plus", np.arange(m)),
        "minus": ont.uniform_density(space, "minus", np.arange(m)),
    }

    all_to3 = np.vstack([np.ones(m), np.zeros(m)])
    all_to4 = np.vstack([np.zeros(m), np.ones(m)])
    # Lower coordinate half of each region exits at gate 3.
    half = cells_per_gate // 2
    to3 = np.zeros(m, dtype=bool)
    to3[:half] = True
    to3[cells_per_gate : cells_per_gate + half] = True
    split = np.vstack([to3.astype(float), (~to3).astype(float)])

    tables = {
        ("plus", BS_CONTEXT): all_to3,
        ("minus", BS_CONTEXT): all_to4,
        ("psi1", BS_CONTEXT): split,
        ("psi2", BS_CONTEXT): split,
    }
    response = ont.ContextualResponse(BS_OUTCOMES, tables)
    return ont.OntModel(space, preparations, response)


def _single_qubit_orthogonal_model() -> ont.OntModel:
    """Two orthogonal preparations sharing one uniform lambda distribution;
    the response conditioned on the preparation routes every lambda to the
    certain outcome."""
    m = 4
    space = ont.LambdaSpace(weights=np.full(m, 0.25))
    preps = {
        "psi1": ont.uniform_density(space, "psi1", np.arange(m)),
        "psi2": ont.uniform_density(space, "psi2", np.arange(m)),
    }
    all_minus = np.vstack([np.zeros(m), np.ones(m)])
    all_plus = np.vstack([np.ones(m), np.zeros(m)])
    resp = ont.ContextualResponse(SQO_OUTCOMES, {("psi1", SQO_CONTEXT): all_minus,
                                                 ("psi2", SQO_CONTEXT): all_plus})
    return ont.OntModel(space, preps, resp)


# Each escape scene: its model builder, and the quantum predictions that
# model must reproduce, keyed (preparation label, context, outcome).
ESCAPE_SCENES = {
    "beam-splitter": (_beam_splitter_model, {
        ("plus", BS_CONTEXT, "3"): 1.0,
        ("plus", BS_CONTEXT, "4"): 0.0,
        ("minus", BS_CONTEXT, "3"): 0.0,
        ("minus", BS_CONTEXT, "4"): 1.0,
        ("psi1", BS_CONTEXT, "3"): 0.5,
        ("psi1", BS_CONTEXT, "4"): 0.5,
        ("psi2", BS_CONTEXT, "3"): 0.5,
        ("psi2", BS_CONTEXT, "4"): 0.5,
    }),
    "single-qubit-orthogonal": (_single_qubit_orthogonal_model, {
        ("psi1", SQO_CONTEXT, "+"): 0.0,
        ("psi1", SQO_CONTEXT, "-"): 1.0,
        ("psi2", SQO_CONTEXT, "+"): 1.0,
        ("psi2", SQO_CONTEXT, "-"): 0.0,
    }),
}


def _escape(scene: str):
    try:
        return ESCAPE_SCENES[scene]
    except KeyError:
        raise NogoError(f"unknown scene {scene!r}") from None


def contextual_escape(scene: str) -> ont.OntModel:
    """Deterministic contextual model with overlapping supports for a scene
    of ESCAPE_SCENES; NogoError for any other name."""
    return _escape(scene)[0]()


def scene_born(scene: str) -> dict:
    """Quantum predictions reproduced by the scene's escape model, keyed
    (preparation label, context, outcome); NogoError for an unknown scene."""
    return dict(_escape(scene)[1])


def determinism_check(model: ont.OntModel):
    """True iff every response entry is within DETERMINISM_TOL of 0 or 1.

    Returns (flag, offenders); each offender is (key, value) where key locates
    the entry: (outcome, lambda indices...) for a universal response, and
    (prep, context, outcome, lambda index) for a contextual one.
    """
    resp = model.response
    if isinstance(resp, ont.UniversalResponse):
        tables = [((), resp.table)]
    else:
        tables = sorted(resp.tables.items())
    offenders = []
    for key, table in tables:
        it = np.nditer(table, flags=["multi_index"])
        for v in it:
            val = float(v)
            if min(val, 1.0 - val) > DETERMINISM_TOL:
                outcome = resp.outcomes[it.multi_index[0]]
                offenders.append((key + (outcome,) + it.multi_index[1:], val))
    return len(offenders) == 0, offenders
