from functools import reduce
from itertools import product

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from psilab import nogo, ontology as ont, qcore
from psilab.ontology import PsiClass
from psilab.simplex import LP_TOL, LpStatus, Phase1Result, is_farkas, phase1

# Round-off allowed on A^T y <= 0 for a Farkas vector lp_feasibility returns.
ROUND_OFF = 1e-12


@pytest.fixture(scope="module")
def basis2():
    return qcore.pbr_basis_2qubit()


@pytest.fixture(scope="module")
def pair():
    return [qcore.ket(0), qcore.ket_plus()]


def overlapping_model(constraint_arity=2):
    """Two identical uniform densities with a preparation-independent response."""
    space = ont.LambdaSpace(weights=np.ones(3))
    preps = {
        "psi1": ont.uniform_density(space, "psi1", [0, 1, 2]),
        "psi2": ont.uniform_density(space, "psi2", [0, 1, 2]),
    }
    if constraint_arity == 2:
        resp = ont.UniversalResponse(
            ("1", "2", "3", "4"), np.full((4, 3, 3), 0.25)
        )
    else:
        resp = ont.UniversalResponse(("+", "-"), np.full((2, 3), 0.5))
    return ont.OntModel(space, preps, resp, product_arity=constraint_arity)


def disjoint_model():
    """One cell per preparation, with the preparation-independent response of
    ``overlapping_model``."""
    space = ont.LambdaSpace(weights=np.ones(2))
    preps = {
        "psi1": ont.uniform_density(space, "psi1", [0]),
        "psi2": ont.uniform_density(space, "psi2", [1]),
    }
    resp = ont.UniversalResponse(("1", "2", "3", "4"), np.full((4, 2, 2), 0.25))
    return ont.OntModel(space, preps, resp, product_arity=2)


class TestZeroConstraints:
    def test_product_construction_four_zeros(self, pair, basis2):
        zc = nogo.zero_constraints(pair, basis2)
        assert [(z.outcome_index, z.preps) for z in zc] == [
            (0, (0, 0)),
            (1, (0, 1)),
            (2, (1, 0)),
            (3, (1, 1)),
        ]
        assert all(z.born_value < 1e-12 for z in zc)

    def test_single_qubit_orthogonal_two_zeros(self):
        # psi1 = |->, psi2 = |+> against the |+>,|-> basis.
        states = [qcore.ket_minus(), qcore.ket_plus()]
        basis = qcore.MeasurementBasis(1, (qcore.ket_plus(), qcore.ket_minus()))
        zc = nogo.zero_constraints(states, basis)
        assert [(z.outcome_index, z.preps) for z in zc] == [(0, (0,)), (1, (1,))]

    def test_haar_random_basis_empty(self, pair):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        basis = qcore.MeasurementBasis(
            2, tuple(qcore.QState(2, u[:, i].copy()) for i in range(4))
        )
        assert nogo.zero_constraints(pair, basis) == []


class TestAnalyticContradiction:
    def test_overlapping_densities_certificate(self, pair, basis2):
        model = overlapping_model()
        zc = nogo.zero_constraints(pair, basis2)
        cert = nogo.analytic_contradiction(model, zc)
        assert isinstance(cert, nogo.ContradictionCertificate)
        # All four response entries forced to zero at the witness pair.
        assert {z.outcome_index for z in cert.forced} == {0, 1, 2, 3}
        assert cert.witness == (0, 0)  # the first shared cell in each coordinate
        assert cert.margin == pytest.approx(1.0, abs=1e-15)  # q^n with q = 1

    def test_disjoint_densities_no_contradiction(self, pair, basis2):
        model = disjoint_model()
        zc = nogo.zero_constraints(pair, basis2)
        assert nogo.analytic_contradiction(model, zc) is None

    def test_single_qubit_orthogonal_certificate(self):
        states = [qcore.ket_minus(), qcore.ket_plus()]
        basis = qcore.MeasurementBasis(1, (qcore.ket_plus(), qcore.ket_minus()))
        zc = nogo.zero_constraints(states, basis)
        cert = nogo.analytic_contradiction(overlapping_model(1), zc)
        assert isinstance(cert, nogo.ContradictionCertificate)

    def test_contextual_model_rejected(self):
        model = nogo.contextual_escape("beam-splitter")
        with pytest.raises(nogo.ContextualModelError):
            nogo.analytic_contradiction(model, [])

    @pytest.mark.parametrize("z", [
        nogo.ZeroConstraint(0, (0,), 0.0),  # arity 1 against a 2-copy model
        nogo.ZeroConstraint(4, (0, 0), 0.0),  # the model has 4 outcomes
        nogo.ZeroConstraint(-1, (0, 0), 0.0),
        # The model has 2 preparations: indices outside [0, 2) are rejected,
        # negative ones included (they would read as the last preparation).
        nogo.ZeroConstraint(0, (0, 5), 0.0),
        nogo.ZeroConstraint(0, (0, -1), 0.0),
        nogo.ZeroConstraint(0, (-2, -2), 0.0),
    ])
    def test_constraint_not_fitting_model_rejected(self, z):
        with pytest.raises(nogo.NogoError):
            nogo.analytic_contradiction(overlapping_model(), [z])


def reference_forcing(densities, cells, constraints, n_outcomes, arity):
    """nogo._forcing as one support lookup and one reduce(np.multiply.outer)
    Kronecker row per density and constraint: the oracle for the stacked
    version, which must give the same y_norm bytes and verdict."""
    factors = []
    for d in densities:
        eps = ont.SUPPORT_EPS_FACTOR * float(np.max(d.values))
        f, s = np.zeros(d.space.size), np.flatnonzero(d.values > eps)
        f[s] = d.values[s] * d.space.weights[s]
        factors.append(f[cells])
    n_tuples = len(cells) ** arity
    w = np.array(
        [reduce(np.multiply.outer, [factors[j] for j in z.preps]).ravel()
         for z in constraints]
    ).reshape(len(constraints), n_tuples)
    best = np.zeros((n_outcomes, n_tuples))
    np.maximum.at(best, np.array([z.outcome_index for z in constraints], int), w)
    y_norm = best.min(axis=0)
    hits = np.flatnonzero(y_norm > 0.0)
    if hits.size == 0:
        return y_norm, None
    witness = np.unravel_index(hits[0], (len(cells),) * arity)
    return y_norm, nogo.ContradictionCertificate(
        tuple(int(cells[k]) for k in witness),
        tuple(z for z, wz in zip(constraints, w[:, hits[0]]) if wz > 0.0),
        float(np.sum(y_norm)),
    )


class TestForcingOracle:
    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 6), n_dens=st.integers(1, 3),
           n_outcomes=st.integers(1, 4), arity=st.integers(1, 3), data=st.data())
    def test_matches_reference(self, m, n_dens, n_outcomes, arity, data):
        weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m))
        space = ont.LambdaSpace(weights=weights)
        # 1e-14 is below a density's own support cutoff; 1e-10 is above it
        # but can lie below the cutoff of a denser row of the stack.
        entry = st.one_of(st.sampled_from([0.0, 1e-14, 1e-10]),
                          st.floats(1e-3, 1e3))
        densities = []
        for k in range(n_dens):
            raw = np.array(data.draw(st.lists(entry, min_size=m, max_size=m)))
            raw[data.draw(st.integers(0, m - 1))] = 1.0
            densities.append(ont.PreparationDensity(
                space, f"p{k}", raw / np.sum(raw * space.weights)))
        cells = np.array(sorted(data.draw(
            st.sets(st.integers(0, m - 1), min_size=1))))
        constraint = st.builds(
            nogo.ZeroConstraint, st.integers(0, n_outcomes - 1),
            st.tuples(*[st.integers(0, n_dens - 1)] * arity), st.just(0.0))
        constraints = data.draw(st.lists(constraint, max_size=12))
        constraints = data.draw(st.permutations(constraints))

        y_ref, verdict_ref = reference_forcing(
            densities, cells, constraints, n_outcomes, arity)
        y_new, verdict_new = nogo._forcing(
            densities, cells, constraints, n_outcomes, arity)
        assert y_new.tobytes() == y_ref.tobytes()
        assert verdict_new == verdict_ref

        stack = ont.support_mask(np.array([d.values for d in densities]))
        for row, d in zip(stack, densities):
            assert np.array_equal(np.flatnonzero(row), ont.support(d))


class TestLpFeasibility:
    def test_overlap_scene_infeasible(self):
        rep = nogo.lp_feasibility(nogo.pbr_scene_problem(4, 2))
        assert rep.status is LpStatus.INFEASIBLE
        assert rep.residual > 1e-3
        assert isinstance(rep.certificate, nogo.ContradictionCertificate)
        # Certificate witness lies in both supports at both coordinates.
        prob = nogo.pbr_scene_problem(4, 2)
        for lam in rep.certificate.witness:
            for d in prob.densities:
                assert d.values[lam] > 0.0
        assert rep.certificate.witness == (1, 1)  # the shared class

    def test_disjoint_scene_feasible_witness(self, pair, basis2):
        prob = nogo.pbr_scene_problem(4, 0)
        rep = nogo.lp_feasibility(prob)
        assert rep.status is LpStatus.FEASIBLE
        assert rep.residual < 1e-9
        # Witness reproduces the Born values when contracted with densities.
        rho_w = [
            d.values[prob.cells] * prob.space.weights[prob.cells]
            for d in prob.densities
        ]
        for (i, (j, k)), value in prob.born.items():
            got = float(rho_w[j] @ rep.witness[i] @ rho_w[k])
            assert abs(got - value) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_problem_zeros_are_the_zero_constraints(self, n):
        states = list(qcore.make_qubit_pair(np.pi / 4))
        basis = qcore.pbr_basis_n(np.pi / 4, n)
        prob = nogo.pbr_scene_problem(4, 2, n=n, basis=basis, states=states)
        assert list(prob.zeros) == nogo.zero_constraints(states, basis)
        assert len(prob.zeros) == 2**n

    def test_no_reproduction_constraints_feasible(self):
        space = ont.LambdaSpace(weights=np.ones(3))
        rho = ont.uniform_density(space, "r", [0, 1, 2])
        prob = nogo.build_feasibility_problem(space, [rho], {}, 4, 2)
        rep = nogo.lp_feasibility(prob)
        assert rep.status is LpStatus.FEASIBLE
        assert np.max(np.abs(np.sum(rep.witness, axis=0) - 1.0)) < 1e-9

    @pytest.mark.parametrize("born", [
        {(0, (0, 2)): 0.5},   # preparation 2 of two densities
        {(7, (0, 1)): 0.5},   # outcome 7 of two
        {(-1, (0, 1)): 0.5},  # outcome -1
        {(0, (0,)): 0.5},     # one preparation for arity 2
        {(0, (0, 1.5)): 0.5, (1, (0, 1)): 0.5},  # preparation 1.5
        {(0.5, (0, 1)): 0.5},  # outcome 0.5
    ])
    def test_born_key_that_does_not_fit_raises(self, born):
        space = ont.LambdaSpace(weights=np.ones(3))
        dens = [ont.uniform_density(space, "a", [0, 1]),
                ont.uniform_density(space, "b", [1, 2])]
        with pytest.raises(nogo.NogoError, match="does not fit"):
            nogo.build_feasibility_problem(space, dens, born, 2, 2)


def dense_reference(prob):
    """The equality matrix built by the original per-tuple Python loops."""
    mc = len(prob.cells)
    n_tuples = mc**prob.arity
    tuples = list(product(range(mc), repeat=prob.arity))
    rows = []
    for k in range(n_tuples):
        row = np.zeros(prob.n_outcomes * n_tuples)
        row[k::n_tuples] = 1.0
        rows.append(row)
    rho_w = [d.values[prob.cells] * prob.space.weights[prob.cells]
             for d in prob.densities]
    for i, combo in sorted(prob.born):
        row = np.zeros(prob.n_outcomes * n_tuples)
        for k, tup in enumerate(tuples):
            coeff = 1.0
            for j, lam in zip(combo, tup):
                coeff *= rho_w[j][lam]
            row[i * n_tuples + k] = coeff
        rows.append(row)
    return np.array(rows)


def scene_inputs(n, theta):
    """(states, basis) of the scene: |0>, |+> and the fixed 2-qubit basis
    for n = 2, else the pair at ``theta`` and PBR's closed-form basis."""
    if n == 2:
        return [qcore.ket(0), qcore.ket_plus()], qcore.pbr_basis_2qubit()
    return list(qcore.make_qubit_pair(theta)), qcore.pbr_basis_n(theta, n)


def scene(n=2, theta=np.pi / 4, cells_per_support=4, shared=2):
    if n == 2:
        return nogo.pbr_scene_problem(cells_per_support, shared)
    states, basis = scene_inputs(n, theta)
    return nogo.pbr_scene_problem(cells_per_support, shared, n=n, basis=basis,
                                  states=states)


def cell_scene(n=2, theta=np.pi / 4, cells_per_support=4, shared=2):
    """The scene with one lambda cell per support cell: uniform densities on
    ``np.ones(m)`` through ``build_feasibility_problem``.  The reference
    that the class scene of ``pbr_scene_problem`` is checked against."""
    m = 2 * cells_per_support - shared
    space = ont.LambdaSpace(weights=np.ones(m))
    rho1 = ont.uniform_density(space, "psi1", np.arange(cells_per_support))
    rho2 = ont.uniform_density(
        space, "psi2", np.arange(cells_per_support - shared, m))
    states, basis = scene_inputs(n, theta)
    born = nogo._born_values(states, basis, n)
    return nogo.build_feasibility_problem(space, [rho1, rho2], born, len(basis), n)


def two_qubit_problem(weights, values1, values2):
    """The 2-copy |0>, |+> problem on a weighted space; each density is
    given as {cell: value} and normalized against the weights."""
    pair = [qcore.ket(0), qcore.ket_plus()]
    basis = qcore.pbr_basis_2qubit()
    weights = np.array(weights, dtype=float)
    space = ont.LambdaSpace(weights=weights)
    densities = []
    for label, values in (("psi1", values1), ("psi2", values2)):
        v = np.zeros(len(weights))
        v[list(values)] = list(values.values())
        densities.append(
            ont.PreparationDensity(space, label, v / np.sum(v * weights))
        )
    born = {
        (i, combo): qcore.born(phi, qcore.tensor([pair[j] for j in combo]))
        for combo in product(range(2), repeat=2)
        for i, phi in enumerate(basis.vectors)
    }
    return nogo.build_feasibility_problem(space, densities, born, 4, 2)


@st.composite
def two_qubit_draws(draw):
    """Arguments of ``two_qubit_problem`` on 1-5 cells: two nonempty
    supports, weights and values in [0.01, 100]."""
    m = draw(st.integers(1, 5))
    cell_set = st.sets(st.integers(0, m - 1), min_size=1)
    positive = st.floats(1e-2, 1e2)
    s1, s2 = draw(cell_set), draw(cell_set)
    weights = draw(st.lists(positive, min_size=m, max_size=m))
    values = [
        dict(zip(sorted(cells), draw(
            st.lists(positive, min_size=len(cells), max_size=len(cells))
        )))
        for cells in (s1, s2)
    ]
    return weights, *values


def closed_form_farkas(prob):
    """PBR's Farkas vector: the forcing weights on the normalization rows,
    -1 on the zero-constraint rows and 0 on the other reproduction rows."""
    zero = [nogo.ZeroConstraint(i, combo, v)
            for (i, combo), v in prob.born.items() if v < nogo.ZERO_TOL]
    y_norm, _ = nogo._forcing(prob.densities, prob.cells, zero,
                              prob.n_outcomes, prob.arity)
    rows = [-1.0 if prob.born[k] < nogo.ZERO_TOL else 0.0 for k in sorted(prob.born)]
    return np.concatenate([y_norm, rows])


def random_problem(seed):
    """A 1-copy universal-response problem with random sparse densities and
    random Born values (the draw order fixes the problem for a seed)."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(50, 400)), int(rng.integers(2, 5))
    space = ont.LambdaSpace(weights=np.full(m, 1.0 / m))
    dens, born = [], {}
    for j in range(k):
        v = rng.random(m) ** 3 * (rng.random(m) < 0.7)
        v[rng.integers(m)] += 0.1
        dens.append(ont.PreparationDensity(space, f"p{j}", v / (v.sum() / m)))
        p = float(np.sum(dens[-1].values * space.weights * (rng.random(m) < rng.random())))
        born[(0, (j,))], born[(1, (j,))] = p, 1.0 - p
    return nogo.build_feasibility_problem(space, dens, born, 2, 1)


def assert_checked_evidence(prob, rep, tol=1e-9, pbr=True):
    """The verdict's witness or Farkas vector, and PBR's closed-form Farkas
    vector, re-checked in numpy; returns the closed-form margin b^T y at unit
    scale (largest normalization weight 1).

    A positive multiple of a Farkas vector is one too.  Unscaled, b^T y is the
    forced mass, which a tiny overlap drives below any fixed tolerance, so
    a verdict that rests on the closed form is judged at unit scale as well;
    HiGHS's duals are judged as reported.  On a PBR scene (``pbr``) the
    closed form proves every INFEASIBLE verdict; on other problems a
    closed-form proof must only be honoured.
    """
    y = closed_form_farkas(prob)
    y_norm = y[: len(prob.cells) ** prob.arity]
    y = y / (np.max(y_norm, initial=0.0) or 1.0)
    assert np.max(prob.a_eq.T @ y) <= tol
    margin = prob.b_eq @ y
    if pbr or margin > tol:
        assert (margin > tol) == (rep.status is LpStatus.INFEASIBLE)
    if rep.status is LpStatus.FEASIBLE:
        x = rep.witness.reshape(-1)
        assert np.min(x) >= 0.0
        assert np.max(np.abs(prob.a_eq @ x - prob.b_eq)) <= tol
    else:
        assert rep.status is LpStatus.INFEASIBLE
        y = rep.farkas
        assert np.max(prob.a_eq.T @ y) <= ROUND_OFF  # repaired: A^T y <= 0
        assert rep.certificate_margin == pytest.approx(prob.b_eq @ y, abs=0)
        # The closed form at unit scale, as above; HiGHS's duals as they are.
        closed = np.array_equal(y, closed_form_farkas(prob))
        unit = (np.max(y_norm, initial=0.0) or 1.0) if closed else 1.0
        assert prob.b_eq @ y / unit > tol
        # The l1 gap y proves: ||A x - b||_1 >= b^T y / ||y||_inf for x >= 0.
        assert rep.residual == pytest.approx(prob.b_eq @ y / np.max(np.abs(y)),
                                             rel=1e-12)
        assert getattr(rep.certificate, "margin", 0.0) == np.sum(y_norm)
    return margin


class TestSparseAssembly:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_dense_loops(self, n):
        prob = cell_scene(n)
        assert np.array_equal(prob.a_eq.toarray(), dense_reference(prob))

    @pytest.mark.parametrize("n, kw, shape, nnz", [
        (2, {}, (52, 144), 400),
        (2, {"shared": 0}, (80, 256), 512),
        (3, {}, (280, 1728), 5824),
        (3, {"cells_per_support": 5}, (576, 4096), 12096),
    ])
    def test_shape_and_nonzeros(self, n, kw, shape, nnz):
        prob = cell_scene(n, **kw)
        assert prob.a_eq.shape == shape
        assert prob.a_eq.nnz == nnz == np.count_nonzero(prob.a_eq.toarray())


class TestCertificates:
    @pytest.mark.parametrize("n, theta", [
        (2, np.pi / 4), (3, np.pi / 4), (4, np.pi / 6), (4, np.pi / 4),
    ])
    def test_phase1_optimum_is_two_to_the_n_plus_one(self, n, theta):
        """Observed regression value for cells_per_support=4, shared=2, with
        PBR's closed-form basis: HiGHS's phase-1 optimum, which its repaired
        duals prove.  ``lp_feasibility`` reports the closed form's margin
        q^n instead, and its l1 gap lies below the optimum (weak duality)."""
        prob = cell_scene(n, theta)
        res = phase1(prob.a_eq, prob.b_eq)
        assert res.objective == pytest.approx(2**n + 1, abs=1e-9)
        y = nogo._checked_farkas(prob, res.y, 1.0)
        assert np.max(prob.a_eq.T @ y) <= 1e-9
        assert prob.b_eq @ y == pytest.approx(2**n + 1, abs=1e-9)
        rep = nogo.lp_feasibility(prob)
        assert rep.status is LpStatus.INFEASIBLE
        assert rep.iterations == 0
        # PBR's closed form: the forced tuples carry mass q^n, q = shared/cells.
        assert rep.certificate_margin == pytest.approx((2 / 4) ** n, abs=1e-15)
        assert rep.certificate.margin == pytest.approx((2 / 4) ** n, abs=1e-15)
        assert rep.residual <= res.objective
        assert_checked_evidence(prob, rep)

    @pytest.mark.parametrize("kw", [
        {}, {"shared": 0}, {"n": 3, "cells_per_support": 5},
    ])
    def test_scene_evidence_checks(self, kw):
        prob = scene(**kw)
        rep = nogo.lp_feasibility(prob)
        assert_checked_evidence(prob, rep)
        assert (rep.certificate_margin is None) == (rep.status is LpStatus.FEASIBLE)
        if rep.status is LpStatus.INFEASIBLE:  # q^n, q = shared/cells, e.g. 0.064
            q = kw.get("shared", 2) / kw.get("cells_per_support", 4)
            assert rep.certificate.margin == pytest.approx(
                q ** kw.get("n", 2), abs=1e-15
            )

    @settings(max_examples=40, deadline=None)
    @given(draw=two_qubit_draws())
    # A thin overlap: the shared tuples force a mass of 1e-12 < LP_TOL, while
    # HiGHS's x misses b by only 1.0e-10.  At a largest normalization weight
    # of 1 the closed form's margin is 4.0.
    @example(draw=([0.01, 0.01, 2, 2], {0: 0.01, 1: 0.01, 2: 100},
                   {0: 1, 1: 1, 3: 100}))
    def test_infeasible_iff_supports_overlap(self, draw):
        prob = two_qubit_problem(*draw)
        shared = set(draw[1]) & set(draw[2])
        rep = nogo.lp_feasibility(prob)
        want = LpStatus.INFEASIBLE if shared else LpStatus.FEASIBLE
        assert rep.status is want
        assert (assert_checked_evidence(prob, rep) > 1e-9) == bool(shared)

    def test_duals_failing_the_check_are_repaired(self):
        """Found by the property above: HiGHS's duals have max A^T y = 1.8e-9
        > LP_TOL at b^T y = 6.97.  Taking that off the 25 normalization
        components gives A^T y <= 0 at margin 6.97 - 25 * 1.8e-9, which
        certifies the overlap without PBR's closed-form vector (margin
        0.987, the evidence ``lp_feasibility`` reports, since it asks the
        closed form first)."""
        prob = two_qubit_problem([63, 0.01, 1, 1, 0.01],
                                 {0: 5, 1: 1, 2: 1, 3: 1, 4: 1}, {0: 6, 1: 1})
        duals = phase1(prob.a_eq, prob.b_eq).y
        assert not is_farkas(prob.a_eq, prob.b_eq, duals)
        y = nogo._checked_farkas(prob, duals, 1.0)
        assert y is not None
        assert not np.array_equal(y, closed_form_farkas(prob))
        assert np.max(prob.a_eq.T @ y) <= ROUND_OFF
        assert prob.b_eq @ y == pytest.approx(6.9747, abs=1e-4)
        rep = nogo.lp_feasibility(prob)
        assert rep.status is LpStatus.INFEASIBLE
        assert rep.certificate_margin == pytest.approx(0.987, abs=1e-3)
        assert_checked_evidence(prob, rep)

    def test_dual_that_proves_nothing_is_rejected(self, monkeypatch):
        """y = 0.9 LP_TOL on each normalization row and 0 elsewhere passes
        ``is_farkas`` on the FEASIBLE ``random_problem(8)``, whose supports
        overlap, so that no closed form decides it and ``phase1`` answers:
        max A^T y = 9e-10 and b^T y = N * 9e-10 over its N tuples.  But
        b^T y = x^T A^T y for any witness x, whose N tuples each sum to 1, so
        y proves nothing.  The repair leaves margin 0, and the verdict is not
        INFEASIBLE."""
        prob = random_problem(8)
        y = np.zeros(prob.b_eq.size)
        y[: len(prob.cells) ** prob.arity] = 0.9 * LP_TOL
        assert is_farkas(prob.a_eq, prob.b_eq, y)
        monkeypatch.setattr(nogo, "phase1",
                            lambda a, b: Phase1Result(None, y, 1.0, 0))
        assert nogo.lp_feasibility(prob).status is LpStatus.INDETERMINATE

    def test_near_feasible_random_problem_not_infeasible(self):
        """A seeded random 1-copy problem (309 x 602, 301 tuples) whose HiGHS
        duals pass the unrepaired ``is_farkas`` with margin 1.1e-9 at max
        A^T y = 6.1e-10; at feasibility tolerances of 1e-10 it is FEASIBLE
        with residual 6.2e-10.  The repaired margin is negative, so the duals
        certify nothing.  HiGHS's clipped x misses LP_TOL (5.1e-9); polished
        on its support it is a checked witness."""
        prob = random_problem(4)
        rep = nogo.lp_feasibility(prob)
        assert rep.status is LpStatus.FEASIBLE
        assert rep.iterations > 0
        assert_checked_evidence(prob, rep, pbr=False)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_problems_decided_with_checked_evidence(self, seed):
        """Every random problem is decided, 18 of the 60 through the witness
        polish, and its evidence passes the numpy re-check."""
        prob = random_problem(seed)
        rep = nogo.lp_feasibility(prob)
        assert rep.status in (LpStatus.FEASIBLE, LpStatus.INFEASIBLE)
        assert_checked_evidence(prob, rep, pbr=False)

    def test_dual_verdicts_carry_no_forcing_certificate(self):
        """Of the 60 random problems, the 24 INFEASIBLE ones are proved by
        HiGHS's duals alone: no tuple is forced, so the report carries no
        forcing certificate, and its Farkas vector passes ``is_farkas``."""
        infeasible = 0
        for seed in range(60):
            prob = random_problem(seed)
            rep = nogo.lp_feasibility(prob)
            if rep.status is LpStatus.INFEASIBLE:
                infeasible += 1
                assert rep.certificate is None
                assert is_farkas(prob.a_eq, prob.b_eq, rep.farkas)
        assert infeasible == 24

    @pytest.mark.parametrize("shared, corrupt", [
        (2, lambda res: setattr(res.eqlin, "marginals", -res.eqlin.marginals)),
        (2, lambda res: setattr(res.eqlin, "marginals", res.eqlin.marginals + 1e-6)),
        (0, lambda res: setattr(res, "x", res.x + 1e-6)),
        (0, lambda res: setattr(res, "x", res.x - 1e-6)),
    ])
    def test_unchecked_solver_output_is_indeterminate(
        self, monkeypatch, shared, corrupt
    ):
        """Solver output that fails its check is never the evidence.  The
        problems are ones that no closed form decides, so HiGHS answers: with
        ``shared`` (2), ``random_problem(42)`` (INFEASIBLE, and no Born value
        vanishes, so PBR's closed form forces nothing); with none (0),
        ``random_problem(8)`` (FEASIBLE on overlapping supports, since
        disjoint ones get the Born witness).  Corrupted duals: the verdict
        rests on the repaired duals when they pass the check (shifted up by
        1e-6: the repair takes the shift off A^T y), else it is INDETERMINATE
        (negated).  A corrupted x misses LP_TOL, and polish on its support
        gives a checked witness that is not the corrupted x."""
        real = scipy.optimize.linprog
        seen = {}

        def bad_linprog(*args, **kwargs):
            res = real(*args, **kwargs)
            corrupt(res)
            seen["x"] = np.clip(res.x[: prob.a_eq.shape[1]], 0.0, None)
            seen["y"] = np.asarray(res.eqlin.marginals, dtype=float)
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", bad_linprog)
        prob = random_problem(42 if shared else 8)
        rep = nogo.lp_feasibility(prob)
        if shared:
            assert rep.witness is None
            y = seen["y"]
            eps = max(0.0, float(np.max(prob.a_eq.T @ y)))
            repaired = y - eps * (np.arange(y.size) < len(prob.cells) ** prob.arity)
            # The shifted duals pass once repaired, the negated ones do not.
            if is_farkas(prob.a_eq, prob.b_eq, repaired):
                assert rep.status is LpStatus.INFEASIBLE
                assert np.array_equal(rep.farkas, repaired)
                assert not np.array_equal(rep.farkas, y)
                assert np.max(prob.a_eq.T @ rep.farkas) <= ROUND_OFF
                assert_checked_evidence(prob, rep, pbr=False)
            else:
                assert rep.status is LpStatus.INDETERMINATE
                assert rep.farkas is None
        else:
            x = seen["x"]
            assert np.max(np.abs(prob.a_eq @ x - prob.b_eq)) > LP_TOL
            assert rep.status is LpStatus.FEASIBLE
            assert not np.array_equal(rep.witness.reshape(-1), x)
            assert_checked_evidence(prob, rep, pbr=False)


def class_map(cells, classes):
    """Per active cell of ``cells``, the index of the active cell of
    ``classes`` whose density column equals the cell's, and the ratio
    w(cell) / W(class) of their weights."""
    def columns(prob):
        return np.array([d.values for d in prob.densities])[:, prob.cells].T

    of = np.array([np.flatnonzero((columns(classes) == col).all(axis=1))[0]
                   for col in columns(cells)])
    w = cells.space.weights[cells.cells]
    big_w = classes.space.weights[classes.cells]
    assert np.array_equal(np.bincount(of, weights=w, minlength=len(big_w)), big_w)
    return of, w / big_w[of]


class TestClassScene:
    """``pbr_scene_problem`` on its three cell classes against ``cell_scene``:
    the same verdict, and evidence that lifts to the cell LP."""

    @settings(max_examples=40, deadline=None)
    @given(cells_per_support=st.integers(1, 5), n=st.sampled_from([2, 3]),
           data=st.data())
    def test_lifted_evidence_checks_on_cell_lp(self, cells_per_support, n, data):
        shared = data.draw(st.integers(0, cells_per_support))
        classes = scene(n, cells_per_support=cells_per_support, shared=shared)
        cells = cell_scene(n, cells_per_support=cells_per_support, shared=shared)
        rep, ref = nogo.lp_feasibility(classes), nogo.lp_feasibility(cells)
        assert rep.status is ref.status
        assert rep.status in (LpStatus.FEASIBLE, LpStatus.INFEASIBLE)
        of, ratio = class_map(cells, classes)
        lift = (slice(None),) + np.ix_(*[of] * n)
        if rep.status is LpStatus.FEASIBLE:  # xi(i|t) = X(i|C(t))
            x = rep.witness[lift].reshape(-1)
            assert np.max(np.abs(cells.a_eq @ x - cells.b_eq)) <= LP_TOL
            assert rep.certificate is ref.certificate is None
        else:  # y_t = y_C prod_j w(t_j) / W(C(t_j))
            k = len(classes.cells) ** n
            y_class = rep.farkas[:k].reshape((len(classes.cells),) * n)
            y_norm = y_class[lift[1:]] * reduce(np.multiply.outer, [ratio] * n)
            y = np.concatenate([y_norm.reshape(-1), rep.farkas[k:]])
            assert is_farkas(cells.a_eq, cells.b_eq, y)
            assert cells.b_eq @ y == pytest.approx(rep.certificate_margin, rel=1e-12)
            assert rep.certificate.margin == pytest.approx(
                ref.certificate.margin, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(cells_per_support=st.integers(1, 5), n=st.sampled_from([2, 3]),
           data=st.data())
    def test_closed_form_verdict_matches_phase1(self, cells_per_support, n, data):
        """HiGHS as the oracle of the closed forms that decide every class
        scene: the same verdict as phase1's checked x or repaired duals, PBR's
        margin q^n, and an l1 gap no larger than the phase-1 optimum (weak
        duality: the optimum is min ||A x - b||_1 over x >= 0)."""
        shared = data.draw(st.integers(0, cells_per_support))
        prob = scene(n, cells_per_support=cells_per_support, shared=shared)
        rep = nogo.lp_feasibility(prob)
        res = phase1(prob.a_eq, prob.b_eq)
        if np.max(np.abs(prob.a_eq @ res.x - prob.b_eq)) <= LP_TOL:
            assert rep.status is LpStatus.FEASIBLE
        else:
            assert nogo._checked_farkas(prob, res.y, 1.0) is not None
            assert rep.status is LpStatus.INFEASIBLE
            assert rep.certificate_margin == pytest.approx(
                (shared / cells_per_support) ** n, rel=1e-12)
            assert rep.residual <= res.objective
        assert rep.iterations == 0

    @pytest.mark.parametrize("n, kw, shape", [
        (2, {}, (25, 36)),
        (2, {"shared": 0}, (20, 16)),
        (2, {"shared": 4}, (17, 4)),
        (3, {}, (91, 216)),
        (3, {"cells_per_support": 5}, (91, 216)),
    ])
    def test_shape(self, n, kw, shape):
        assert scene(n, **kw).a_eq.shape == shape

    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4])
    def test_four_copies(self, theta):
        prob = scene(4, theta)
        rep = nogo.lp_feasibility(prob)
        assert prob.a_eq.shape == (337, 1296)
        assert rep.status is LpStatus.INFEASIBLE
        assert rep.certificate.margin == (2 / 4) ** 4


class TestPhase1:
    def test_negative_right_hand_side(self):
        """Dense input and b < 0: -x0 - x1 = -1 has x >= 0 solutions, and the
        returned x solves it; adding x0 + x1 = 2 makes it infeasible, and the
        returned duals certify that."""
        a, b = np.array([[-1.0, -1.0]]), np.array([-1.0])
        ok = phase1(a, b)
        assert np.max(np.abs(a @ ok.x - b)) <= 1e-9
        assert ok.x.sum() == pytest.approx(1.0, abs=1e-12)
        a = np.array([[-1.0, -1.0], [1.0, 1.0]])
        b = np.array([-1.0, 2.0])
        assert is_farkas(a, b, phase1(a, b).y)

    @pytest.mark.parametrize("shared", [0, 2])
    def test_primal_and_duals_returned_whenever_solved(self, shared):
        """phase1 answers without judging: a feasible solve (disjoint
        supports) and an infeasible one (overlap) both return the clipped
        primal and the equality duals, one per variable and per row."""
        prob = nogo.pbr_scene_problem(4, shared)
        res = phase1(prob.a_eq, prob.b_eq)
        assert res.x is not None and res.x.shape == (prob.a_eq.shape[1],)
        assert np.min(res.x) >= 0.0
        assert res.y is not None and res.y.shape == prob.b_eq.shape


class TestSceneDomain:
    @pytest.mark.parametrize("kw", [
        {"cells_per_support": 4, "shared": -1},
        {"cells_per_support": 4, "shared": 5},
        {"cells_per_support": 0, "shared": 0},
        {"cells_per_support": 4, "shared": 2, "n": 3,
         "basis": qcore.NotFound(margin=0.261)},
        # The counts weigh the cell classes: a fraction is not a cell count.
        {"cells_per_support": 4.5, "shared": 2},
        {"cells_per_support": 4, "shared": 1.5},
        {"cells_per_support": 4.0, "shared": 2},
    ])
    def test_outside_domain_raises(self, kw):
        with pytest.raises(nogo.NogoError):
            nogo.pbr_scene_problem(**kw)

    def test_numpy_integer_cell_counts_accepted(self):
        problem = nogo.pbr_scene_problem(np.int64(4), np.int32(2))
        assert problem.space.weights.tolist() == [2.0, 2.0, 2.0]


class TestAgreement:
    def test_analytic_iff_lp_small_spaces(self, pair, basis2):
        """Analytic certificate iff LP infeasible, for every support pattern.

        All patterns up to 6 cells are checked analytically; the LP runs once
        per support-size class (a pattern's verdict depends only on the sizes
        of the private and shared parts, by cell-permutation symmetry),
        keeping the exhaustive sweep affordable.
        """
        zc = nogo.zero_constraints(pair, basis2)
        born_zero_keys = {(z.outcome_index, z.preps) for z in zc}
        lp_by_class = {}
        for m, s1, s2 in ont.enumerate_support_patterns(4):
            space = ont.LambdaSpace(weights=np.ones(m))
            rho1 = ont.uniform_density(space, "psi1", s1)
            rho2 = ont.uniform_density(space, "psi2", s2)
            model = ont.OntModel(
                space,
                {"psi1": rho1, "psi2": rho2},
                ont.UniversalResponse(("1", "2", "3", "4"), np.full((4, m, m), 0.25)),
                product_arity=2,
            )
            analytic = isinstance(
                nogo.analytic_contradiction(model, zc), nogo.ContradictionCertificate
            )
            overlaps = len(set(s1) & set(s2)) > 0
            assert analytic == overlaps

            key = (len(set(s1) - set(s2)), len(set(s2) - set(s1)), len(set(s1) & set(s2)))
            if key not in lp_by_class:
                born = {
                    (i, combo): (0.0 if (i, combo) in born_zero_keys else
                                 qcore.born(basis2.vectors[i],
                                            qcore.tensor([pair[combo[0]], pair[combo[1]]])))
                    for i in range(4)
                    for combo in [(0, 0), (0, 1), (1, 0), (1, 1)]
                }
                prob = nogo.build_feasibility_problem(space, [rho1, rho2], born, 4, 2)
                rep = nogo.lp_feasibility(prob)
                assert rep.status in (LpStatus.FEASIBLE, LpStatus.INFEASIBLE)
                lp_by_class[key] = rep.status is LpStatus.INFEASIBLE
            assert lp_by_class[key] == analytic


class TestDisjointModel:
    def test_classify_ontic(self):
        assert ont.classify(disjoint_model()) is PsiClass.PSI_ONTIC

    def test_not_deterministic(self):
        ok, offenders = nogo.determinism_check(disjoint_model())
        assert not ok
        # Every (outcome, lambda1, lambda2) entry of the 2-copy table.
        assert sorted(key for key, _ in offenders) == [
            (o, a, b) for o in ("1", "2", "3", "4") for a in (0, 1) for b in (0, 1)
        ]
        assert {v for _, v in offenders} == {0.25}


class TestContextualEscape:
    @pytest.mark.parametrize("scene", list(nogo.ESCAPE_SCENES))
    def test_escape_validity(self, scene):
        model = nogo.contextual_escape(scene)
        assert ont.classify(model) is PsiClass.PSI_EPISTEMIC
        ok, _ = nogo.determinism_check(model)
        assert ok
        for (prep, ctx, outcome), want in nogo.scene_born(scene).items():
            assert abs(ont.predict(model, prep, ctx, outcome) - want) < 1e-12

    def test_beam_splitter_full_overlap(self):
        model = nogo.contextual_escape("beam-splitter")
        ov = ont.overlap(model.preparations["plus"], model.preparations["minus"])
        assert ov == pytest.approx(float(np.sum(model.space.weights)), abs=1e-12)

    def test_escape_rejected_by_analytic(self):
        model = nogo.contextual_escape("single-qubit-orthogonal")
        with pytest.raises(nogo.ContextualModelError):
            nogo.analytic_contradiction(model, [])

    def test_unknown_scene(self):
        with pytest.raises(nogo.NogoError):
            nogo.contextual_escape("nope")
        with pytest.raises(nogo.NogoError):
            nogo.scene_born("nope")


class TestDeterminismCheck:
    def test_beam_splitter_deterministic(self):
        ok, offenders = nogo.determinism_check(
            nogo.contextual_escape("beam-splitter"))
        assert ok and offenders == []

    def test_uniform_response_all_offending(self):
        space = ont.LambdaSpace(weights=np.ones(2))
        model = ont.OntModel(
            space,
            {"a": ont.uniform_density(space, "a", [0, 1])},
            ont.UniversalResponse(("x", "y"), np.full((2, 2), 0.5)),
        )
        ok, offenders = nogo.determinism_check(model)
        assert not ok
        assert len(offenders) == 4
