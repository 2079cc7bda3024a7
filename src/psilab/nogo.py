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
Born witness of a FEASIBLE verdict on disjoint supports is its response.
``pbr_scene_problem`` builds each PBR scene on its three cell classes, an
exact reduction to at most 3^n lambda tuples whatever the support size.
Each scene fact is stated once: ``_zero_set`` is the one selection of the
Born values below ZERO_TOL (``zero_constraints`` and ``FeasibilityProblem.
zeros``), and ``ESCAPE_SCENES`` holds each escape scene as data (outcomes,
context, cells, and per preparation its support, route and Born values),
which the one builder ``contextual_escape`` turns into a model through
``ontology.routed_response``.
``lp_feasibility`` alone judges an LP.  It checks the closed-form evidence
first (PBR's Farkas vector, then on disjoint supports the Born values as a
universal response) and asks ``simplex.phase1`` only when neither decides,
so a PBR scene never imports ``scipy.optimize``.  An INFEASIBLE verdict
rests on a Farkas vector repaired to A^T y <= 0 before ``is_farkas`` checks
its margin, so a dual whose small positive A^T y could hide a feasible
system is never the evidence; a FEASIBLE one on a witness whose residual
was checked, HiGHS's x polished on its support when it misses the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import sparse

from . import ontology as ont
from . import qcore
from .simplex import LP_TOL, LpStatus, is_farkas, phase1

ZERO_TOL = 1e-10
# A response entry within this of 0 or 1 counts as deterministic.
DETERMINISM_TOL = 1e-9
# Entries of a solver witness above this form the support that polish re-solves on.
POLISH_SUPPORT = 1e-12


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


def _check_keys(keys, n_outcomes: int, n_preps: int, arity: int) -> None:
    """NogoError for an (outcome index, preparation tuple) key whose tuple
    length is not ``arity`` or whose indices do not fit."""
    for i, preps in keys:
        if (len(preps) != arity or not 0 <= i < n_outcomes
                or not all(0 <= j < n_preps for j in preps)):
            raise NogoError(f"key {(i, preps)!r} does not fit arity {arity}, "
                            f"{n_outcomes} outcomes and {n_preps} preparations")


def _forcing(densities, cells, constraints, n_outcomes: int, arity: int):
    """PBR's forcing step as a closed-form Farkas vector: (y_norm,
    certificate), the certificate None when no tuple is forced.

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
        return y_norm, None
    witness = np.unravel_index(hits[0], (len(cells),) * arity)
    return y_norm, ContradictionCertificate(
        tuple(int(cells[k]) for k in witness),
        tuple(z for z, wz in zip(constraints, w[:, hits[0]].tolist()) if wz > 0.0),
        float(y_norm.sum()),
    )


def analytic_contradiction(
    model: ont.OntModel,
    constraints: list[ZeroConstraint],
) -> ContradictionCertificate | None:
    """Find a lambda tuple where the zero constraints force every outcome
    (None if there is none).

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
    _check_keys(((z.outcome_index, z.preps) for z in constraints), n_out,
                len(model.preparations), arity)
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
    """Assemble the equality system for a universal-response existence check.

    NogoError for a Born key whose outcome index, preparation indices or
    tuple length do not fit ``n_outcomes``, ``densities`` and ``arity``.
    """
    _check_keys(born, n_outcomes, len(densities), arity)
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
    cells_per_support: int,
    shared: int,
    n: int = 2,
    basis: qcore.MeasurementBasis | None = None,
    states: list[qcore.QState] | None = None,
) -> FeasibilityProblem:
    """Feasibility scene for the two-state product construction.

    Uniform preparation densities on two supports of ``cells_per_support``
    cells overlapping in ``shared`` cells; Born values from tensor powers of
    the state pair against the basis.  Defaults to the fixed 2-qubit basis
    with the pair |0>, |+>.  Raises NogoError for a cell count that is not an
    integer (``int`` or NumPy integer), ``cells_per_support < 1``, ``shared``
    outside [0, cells_per_support], or a ``qcore.NotFound`` basis.

    Cells whose density columns are equal are interchangeable, so the lambda
    space holds one cell per class, weighing its cell count: psi1 only
    (``cells_per_support - shared``), shared (``shared``) and psi2 only,
    each dropped at weight 0.  The densities keep their per-cell values, so
    the verdict, the zero constraints and the forcing margin q^n are those
    of the cell-level scene; the LP has at most 3^n tuples.  The reduction
    is exact both ways (Boedi, Herr & Joswig, Math. Program. 137, 65
    (2013)): a class witness X lifts to the cells as xi(i|t) = X(i|C(t)), and
    a class Farkas vector as y_t = y_C prod_j w(t_j)/W(C_j) with the same
    b^T y.  HiGHS's iterations, phase-1 optimum and dual margin belong to
    this formulation, not to the scene; the closed-form margin q^n, which
    ``lp_feasibility`` reports, does not.
    """
    counts = (cells_per_support, shared)
    if not all(isinstance(c, (int, np.integer)) for c in counts):
        raise NogoError(f"cell counts must be integers, got {counts!r}")
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

    private = cells_per_support - shared
    weights = np.array([private, shared, private], dtype=float)
    kept = np.flatnonzero(weights)  # class 0: psi1 only, 1: shared, 2: psi2 only
    space = ont.LambdaSpace(weights=weights[kept])
    rho1 = ont.uniform_density(space, "psi1", np.flatnonzero(kept <= 1))
    rho2 = ont.uniform_density(space, "psi2", np.flatnonzero(kept >= 1))
    born = _born_values(states, basis, n)
    return build_feasibility_problem(space, [rho1, rho2], born, len(basis), n)


@dataclass(frozen=True)
class FeasibilityReport:
    """A checked verdict and its evidence.

    ``iterations`` counts HiGHS iterations, 0 when a closed form decided.
    ``residual`` is max |A x - b| of the witness when FEASIBLE and, when
    INFEASIBLE, the l1 gap b^T y / ||y||_inf that the Farkas vector proves:
    for every x >= 0, ||A x - b||_1 >= b^T y / ||y||_inf, since A^T y <= 0.
    ``certificate_margin`` is b^T y of the checked Farkas vector, q^n on
    PBR's scenes.  PBR's closed-form vector is checked at a largest
    normalization weight of 1 and reported unscaled, so its margin is the
    forced mass, which may lie below LP_TOL.
    """

    status: LpStatus
    witness: np.ndarray | None  # response table over (outcome, active-cell tuple)
    certificate: ContradictionCertificate | None  # the forced tuple, if any
    residual: float
    iterations: int
    farkas: np.ndarray | None  # checked dual y: A^T y <= 0, b^T y > 0
    certificate_margin: float | None  # b^T y of the Farkas vector


def _checked_farkas(problem: FeasibilityProblem, y: np.ndarray,
                    scale: float) -> np.ndarray | None:
    """y repaired to A^T y <= 0 if ``is_farkas`` accepts y / ``scale``, else
    None.

    Every column meets exactly one normalization row, with coefficient 1,
    so taking eps = max(0, max A^T y) off the N normalization components
    gives A^T y <= 0.  A feasible x has sum(x) = N and b^T y = x^T A^T y,
    so the repaired margin b^T y - N eps is what y proves.  A positive
    multiple of a Farkas vector is one too, so ``scale`` only sets where the
    fixed tolerance LP_TOL is applied.
    """
    normalization = np.arange(y.size) < len(problem.cells) ** problem.arity
    y = y - normalization * max(0.0, float(np.max(problem.a_eq.T @ y)))
    return y if is_farkas(problem.a_eq, problem.b_eq, y / scale) else None


def _born_witness(problem: FeasibilityProblem) -> np.ndarray | None:
    """xi(i|t) = the sum of Born(i|c) over the preparation tuples c whose
    supports hold t (one Kronecker row of the support masks per c), when
    ``born`` holds every (outcome, preparation tuple); else None.  Unchecked:
    where supports overlap, the sum breaks normalization by at least 1."""
    combos = list(product(range(len(problem.densities)), repeat=problem.arity))
    keys = [(i, c) for i in range(problem.n_outcomes) for c in combos]
    if not all(k in problem.born for k in keys):
        return None
    mask = ont.support_mask(np.array([d.values for d in problem.densities]))
    table = np.array([problem.born[k] for k in keys]).reshape(problem.n_outcomes, -1)
    held = _kron_rows(mask[:, problem.cells].astype(float), combos, problem.arity)
    return (table @ held).reshape(-1)


def _polished(problem: FeasibilityProblem, x: np.ndarray) -> np.ndarray:
    """x re-solved on its support S = {x > POLISH_SUPPORT}: the least-squares
    solution of A_S x_S = b, clipped at 0 (the crossover idea of Megiddo,
    ORSA J. Comput. 3, 63 (1991)).  Unchecked."""
    s = np.flatnonzero(x > POLISH_SUPPORT)
    polished = np.zeros_like(x)
    polished[s] = np.linalg.lstsq(problem.a_eq[:, s].toarray(), problem.b_eq,
                                  rcond=None)[0]
    return np.clip(polished, 0.0, None)


def lp_feasibility(problem: FeasibilityProblem) -> FeasibilityReport:
    """The one judge of a no-go LP: evidence in, checked verdict out.

    Evidence is tried cheapest first, and the first that passes its numpy
    check decides:
    1. PBR's closed-form Farkas vector (the ``_forcing`` weights on the
       normalization rows, -1 on the zero rows), through ``_checked_farkas``
       at a largest normalization weight of 1, reported unscaled;
    2. the Born witness of ``_born_witness``, checked at simplex.LP_TOL
       (it breaks normalization where supports overlap);
    3. ``phase1``: HiGHS's x, then x polished on its support, each checked
       at LP_TOL, then HiGHS's duals through ``_checked_farkas``.
    Else INDETERMINATE.  So a scene that a closed form decides never imports
    ``scipy.optimize``.  An INFEASIBLE report carries the forcing
    certificate as a cross-check, None where HiGHS's duals proved what no
    forced tuple shows.
    """
    y_norm, forcing = _forcing(problem.densities, problem.cells, problem.zeros,
                               problem.n_outcomes, problem.arity)
    # Born values follow y_norm in b_eq.
    closed = np.append(y_norm, np.where(problem.b_eq[len(y_norm):] < ZERO_TOL, -1.0, 0.0))

    def infeasible(y, iterations):
        margin = float(problem.b_eq @ y)
        return FeasibilityReport(LpStatus.INFEASIBLE, None, forcing,
                                 margin / float(np.max(np.abs(y))), iterations, y, margin)

    def witnessed(x, iterations):
        if x is None:
            return None
        residual = float(np.max(np.abs(problem.a_eq @ x - problem.b_eq)))
        if residual > LP_TOL:
            return None
        xi = x.reshape(problem.n_outcomes, *[len(problem.cells)] * problem.arity)
        return FeasibilityReport(LpStatus.FEASIBLE, xi, None, residual, iterations,
                                 None, None)

    # Judged at a largest normalization weight of 1: unscaled, b^T y is the
    # forced mass, which a thin overlap drives below LP_TOL.  All zero, the
    # closed form forces nothing, and b^T y <= 0 fails at any scale.
    y = _checked_farkas(problem, closed, float(np.max(y_norm, initial=0.0)) or 1.0)
    if y is not None:
        return infeasible(y, 0)
    report = witnessed(_born_witness(problem), 0)
    if report is not None:
        return report
    res = phase1(problem.a_eq, problem.b_eq)
    if res.x is not None:
        report = (witnessed(res.x, res.iterations)
                  or witnessed(_polished(problem, res.x), res.iterations))
        if report is not None:
            return report
    y = None if res.y is None else _checked_farkas(problem, res.y, 1.0)
    if y is not None:
        return infeasible(y, res.iterations)
    return FeasibilityReport(LpStatus.INDETERMINATE, None, None, np.nan,
                             res.iterations, None, None)


# ---------------------------------------------------------------------------
# Contextual escapes
# ---------------------------------------------------------------------------


# Each escape scene as data: (outcomes, context, cell weights, cell coordinates
# or None, preparations).  Each preparation label maps to the support cells of
# its uniform density, its route (the outcome index of every cell, for
# ``ontology.routed_response``) and the Born value of each outcome, which the
# model must reproduce.
_BS_SPLIT = (0, 0, 1, 1, 0, 0, 1, 1)
ESCAPE_SCENES = {
    # Lambda is the packet coordinate: four cells of width 0.25 per input
    # gate, centred in [-2, -1] and [1, 2].  Single-gate preparations are
    # uniform on their gate and send the lower coordinate half of it to exit
    # 3 (any fixed deterministic half-split reproduces 50-50); the phased
    # superpositions '+' and '-' are uniform on both gates and send every
    # cell to exit 3 and 4 respectively.
    "beam-splitter": (
        ("3", "4"), "gates", (0.25,) * 8,
        (-1.875, -1.625, -1.375, -1.125, 1.125, 1.375, 1.625, 1.875), {
            "psi1": (range(4), _BS_SPLIT, (0.5, 0.5)),
            "psi2": (range(4, 8), _BS_SPLIT, (0.5, 0.5)),
            "plus": (range(8), (0,) * 8, (1.0, 0.0)),
            "minus": (range(8), (1,) * 8, (0.0, 1.0)),
        }),
    # Two orthogonal preparations share one uniform lambda distribution, and
    # each routes every cell to its certain outcome.
    "single-qubit-orthogonal": (
        ("+", "-"), "pm", (0.25,) * 4, None, {
            "psi1": (range(4), (1,) * 4, (0.0, 1.0)),
            "psi2": (range(4), (0,) * 4, (1.0, 0.0)),
        }),
}


def _escape(scene: str):
    try:
        return ESCAPE_SCENES[scene]
    except KeyError:
        raise NogoError(f"unknown scene {scene!r}") from None


def contextual_escape(scene: str) -> ont.OntModel:
    """Deterministic contextual model with overlapping supports for a scene
    of ESCAPE_SCENES, its responses routed by ``ontology.routed_response``;
    NogoError for any other name."""
    outcomes, context, weights, coords, rows = _escape(scene)
    space = ont.LambdaSpace(weights=weights, coords=coords)
    preps = {label: ont.uniform_density(space, label, cells)
             for label, (cells, _, _) in rows.items()}
    response = ont.routed_response(
        outcomes, {(label, context): route for label, (_, route, _) in rows.items()})
    return ont.OntModel(space, preps, response)


def scene_born(scene: str) -> dict:
    """Quantum predictions reproduced by the scene's escape model, keyed
    (preparation label, context, outcome); NogoError for an unknown scene."""
    outcomes, context, _, _, rows = _escape(scene)
    return {(label, context, outcome): p for label, (_, _, born) in rows.items()
            for outcome, p in zip(outcomes, born)}


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
        for idx in np.argwhere(np.minimum(table, 1.0 - table) > DETERMINISM_TOL):
            i = tuple(idx.tolist())
            offenders.append((key + (resp.outcomes[i[0]],) + i[1:], float(table[i])))
    return len(offenders) == 0, offenders
