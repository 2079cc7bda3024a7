"""Hidden-variable (ontological) models over finite lambda spaces.

A model carries a discretized space of ontic states, one preparation density
per quantum state label, and a response model that is either universal
(outcome probabilities depend on lambda only) or contextual (additionally
conditioned on the prepared state and the measurement setting).  Integrals
over lambda become weighted sums, so every prediction and every support
check is an exact finite computation.  The support cutoff has one rule,
``support_mask``, which tests a whole stack of densities row by row.  The
constructors reject NaN wherever they check a bound: every check is written
so that a comparison with NaN fails it.  A deterministic contextual response
has one rule, ``routed_response``: each (preparation, context) routes every
cell to one outcome index, and the one-hot tables follow.  The module holds
only generic model machinery; the scene-specific escape models live in
``nogo`` as data, and the Bohmian export in ``bohm``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

NORMALIZATION_TOL = 1e-10
RESPONSE_TOL = 1e-12
# Support cutoff, relative to the maximum density of the distribution.
SUPPORT_EPS_FACTOR = 1e-12


class OntologyError(ValueError):
    pass


class SpaceMismatch(OntologyError):
    pass


class UnknownLabel(KeyError):
    pass


class PsiClass(Enum):
    PSI_ONTIC = "psi-ontic"
    PSI_EPISTEMIC = "psi-epistemic"


@dataclass(frozen=True)
class LambdaSpace:
    """Finite ordered set of ontic states with positive cell weights."""

    weights: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size < 1:
            raise OntologyError("lambda space needs at least one point")
        if not w.min() > 0.0:
            raise OntologyError("cell weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.shape != w.shape:
                raise OntologyError("coords and weights must have equal length")
            object.__setattr__(self, "coords", c)

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class PreparationDensity:
    """Probability density over a lambda space for one prepared state."""

    space: LambdaSpace
    label: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.space.weights.shape:
            raise SpaceMismatch("density length does not match lambda space")
        if not v.min() >= 0.0:
            raise OntologyError(
                f"negative or NaN density for preparation {self.label!r}")
        total = float((v * self.space.weights).sum())
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise OntologyError(
                f"density for {self.label!r} integrates to {total!r}, expected 1"
            )
        object.__setattr__(self, "values", v)


def uniform_density(space: LambdaSpace, label: str, cells) -> PreparationDensity:
    """Uniform density supported on the given cell indices.

    Raises OntologyError unless the cells are a nonempty list of distinct
    integer indices in [0, space.size).
    """
    cells = np.asarray(cells)
    # Checked on a Python list: numpy's per-call overhead on a few cells is
    # several times larger, and support sweeps build thousands of densities.
    listed, size = cells.ravel().tolist(), space.size
    if not listed or len(set(listed)) < len(listed) or not all(
        type(c) is int and 0 <= c < size for c in listed
    ):
        raise OntologyError(f"cells {listed} are not a nonempty set of distinct "
                            f"integer indices in [0, {size})")
    v = np.zeros(size)
    total = float(space.weights[cells].sum())
    v[cells] = 1.0 / total
    return PreparationDensity(space, label, v)


def _check_response_table(table: np.ndarray, what: str):
    # The sums first: a table with no outcome rows fails here, before a
    # reduction over its zero entries could raise.
    if not abs(table.sum(axis=0) - 1.0).max() <= RESPONSE_TOL:
        raise OntologyError(f"{what}: outcome probabilities do not sum to 1")
    if not (table.min() >= -RESPONSE_TOL and table.max() <= 1.0 + RESPONSE_TOL):
        raise OntologyError(f"{what}: entries outside [0, 1]")


@dataclass(frozen=True)
class UniversalResponse:
    """Preparation-independent response: one table over outcomes x lambda^arity."""

    outcomes: tuple[str, ...]
    table: np.ndarray
    context: str = "default"

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape[0] != len(self.outcomes):
            raise OntologyError("response table first axis must index outcomes")
        _check_response_table(t, "universal response")
        object.__setattr__(self, "table", t)

    @property
    def arity(self) -> int:
        return self.table.ndim - 1


@dataclass(frozen=True)
class ContextualResponse:
    """Response conditioned on the prepared state and the measurement setting.

    ``tables`` maps (preparation label, context label) to an
    (outcomes, lambda) probability table.
    """

    outcomes: tuple[str, ...]
    tables: dict[tuple[str, str], np.ndarray]

    def __post_init__(self):
        checked = {}
        for key, t in self.tables.items():
            t = np.asarray(t, dtype=float)
            if t.ndim != 2 or t.shape[0] != len(self.outcomes):
                raise OntologyError(f"bad table shape for {key}")
            _check_response_table(t, f"contextual response {key}")
            checked[key] = t
        object.__setattr__(self, "tables", checked)


def routed_response(outcomes, routes: dict) -> ContextualResponse:
    """Deterministic contextual response from one route per table.

    ``routes`` maps (preparation label, context label) to the outcome index
    of every lambda cell; the table puts probability 1 on that outcome.
    Raises OntologyError unless each route is a nonempty 1-D array of
    integers in [0, len(outcomes)): NumPy indexing would read -1 as the last
    outcome.
    """
    outcomes = tuple(outcomes)
    rows = np.arange(len(outcomes))[:, None]
    tables = {}
    for key, route in routes.items():
        r = np.asarray(route)
        if not (r.ndim == 1 and r.size and r.dtype.kind in "iu"
                and r.min() >= 0 and r.max() < len(outcomes)):
            raise OntologyError(f"route for {key} is not a 1-D array of "
                                f"outcome indices in [0, {len(outcomes)})")
        tables[key] = (rows == r).astype(float)
    return ContextualResponse(outcomes, tables)


@dataclass(frozen=True)
class OntModel:
    space: LambdaSpace
    preparations: dict[str, PreparationDensity]
    response: UniversalResponse | ContextualResponse
    product_arity: int = 1

    def __post_init__(self):
        for label, dens in self.preparations.items():
            if dens.space is not self.space and not np.array_equal(
                dens.space.weights, self.space.weights
            ):
                raise SpaceMismatch(f"density {label!r} lives on a different space")
        if isinstance(self.response, ContextualResponse):
            for (prep, _ctx), t in self.response.tables.items():
                if prep not in self.preparations:
                    raise UnknownLabel(prep)
                if t.shape[1] != self.space.size:
                    raise SpaceMismatch(f"response table for {prep!r} does "
                                        "not match lambda space")
            if self.product_arity != 1:
                raise OntologyError("contextual responses are single-system only")
        else:
            if self.response.arity != self.product_arity:
                raise OntologyError(
                    f"response arity {self.response.arity} != "
                    f"product arity {self.product_arity}"
                )
            for t_dim in self.response.table.shape[1:]:
                if t_dim != self.space.size:
                    raise SpaceMismatch("response table does not match lambda space")

    @property
    def prep_labels(self) -> tuple[str, ...]:
        return tuple(self.preparations)

    def density(self, label: str) -> PreparationDensity:
        try:
            return self.preparations[label]
        except KeyError:
            raise UnknownLabel(label) from None


def predict(model: OntModel, prep_label: str, context: str, outcome: str) -> float:
    """Outcome probability: weighted lambda sum of response times density."""
    dens = model.density(prep_label)
    rho_w = dens.values * model.space.weights
    resp = model.response
    try:
        idx = resp.outcomes.index(outcome)
    except ValueError:
        raise UnknownLabel(outcome) from None
    if isinstance(resp, ContextualResponse):
        key = (prep_label, context)
        if key not in resp.tables:
            raise UnknownLabel(f"no response table for {key}")
        return float(np.sum(resp.tables[key][idx] * rho_w))
    if context != resp.context:
        raise UnknownLabel(f"unknown context {context!r}")
    if resp.arity != 1:
        raise OntologyError(
            f"predict is single-system; the response has arity {resp.arity}")
    return float(np.sum(resp.table[idx] * rho_w))


def support_mask(values: np.ndarray) -> np.ndarray:
    """True where a density exceeds SUPPORT_EPS_FACTOR times its maximum.

    ``values`` is one density or a 2-D stack of them, one per row; the cutoff
    is taken row by row.
    """
    return values > SUPPORT_EPS_FACTOR * values.max(axis=-1, keepdims=True)


def support(density: PreparationDensity) -> np.ndarray:
    """Indices of the cells in the support of a density (``support_mask``)."""
    return np.flatnonzero(support_mask(density.values))


def overlap(d1: PreparationDensity, d2: PreparationDensity) -> float:
    """Weight of the common support of two densities on the same space."""
    if d1.space is not d2.space and not np.array_equal(
        d1.space.weights, d2.space.weights
    ):
        raise SpaceMismatch("densities live on different lambda spaces")
    both = support_mask(np.array([d1.values, d2.values])).all(axis=0)
    return float(d1.space.weights[both].sum())


def classify(model: OntModel) -> PsiClass:
    """Psi-ontic iff every pair of distinct preparations has disjoint support."""
    labels = model.prep_labels
    if len(labels) < 2:
        raise OntologyError("classification needs at least two preparations")
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if overlap(model.preparations[a], model.preparations[b]) > 0.0:
                return PsiClass.PSI_EPISTEMIC
    return PsiClass.PSI_ONTIC


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def model_to_dict(model: OntModel) -> dict:
    d = {
        "space": {
            "weights": model.space.weights.tolist(),
            "coords": None if model.space.coords is None else model.space.coords.tolist(),
        },
        "preparations": {
            label: dens.values.tolist() for label, dens in model.preparations.items()
        },
        "product_arity": model.product_arity,
    }
    resp = model.response
    if isinstance(resp, UniversalResponse):
        d["response"] = {
            "variant": "universal",
            "outcomes": list(resp.outcomes),
            "context": resp.context,
            "table": resp.table.tolist(),
        }
    else:
        d["response"] = {
            "variant": "contextual",
            "outcomes": list(resp.outcomes),
            "tables": [
                {"prep": prep, "context": ctx, "table": t.tolist()}
                for (prep, ctx), t in sorted(resp.tables.items())
            ],
        }
    return d


def model_to_json(model: OntModel) -> str:
    # json round-trips Python floats exactly (shortest-repr serialization).
    return json.dumps(model_to_dict(model), sort_keys=True)


def enumerate_support_patterns(max_cells: int):
    """All (cell count, support1, support2) patterns up to a size bound.

    Yields every pair of nonempty supports on lambda spaces with 1..max_cells
    cells; used for exhaustive agreement checks between the analytic
    contradiction finder and the feasibility solver.
    """
    for m in range(1, max_cells + 1):
        cells = list(range(m))
        for mask1 in range(1, 2**m):
            s1 = [c for c in cells if mask1 >> c & 1]
            for mask2 in range(1, 2**m):
                s2 = [c for c in cells if mask2 >> c & 1]
                yield m, s1, s2
