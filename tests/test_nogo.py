from itertools import product

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from psilab import nogo, ontology as ont, qcore
from psilab.ontology import PsiClass
from psilab.simplex import LpStatus, phase1


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

    def test_disjoint_densities_no_contradiction(self, pair, basis2):
        model = nogo.construct_disjoint_model(*pair, basis2)
        zc = nogo.zero_constraints(pair, basis2)
        assert isinstance(
            nogo.analytic_contradiction(model, zc), nogo.NoContradiction
        )

    def test_single_qubit_orthogonal_certificate(self):
        states = [qcore.ket_minus(), qcore.ket_plus()]
        basis = qcore.MeasurementBasis(1, (qcore.ket_plus(), qcore.ket_minus()))
        zc = nogo.zero_constraints(states, basis)
        cert = nogo.analytic_contradiction(overlapping_model(1), zc)
        assert isinstance(cert, nogo.ContradictionCertificate)

    def test_contextual_model_rejected(self):
        model = ont.build_beam_splitter_model()
        with pytest.raises(nogo.ContextualModelError):
            nogo.analytic_contradiction(model, [])


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

    def test_no_reproduction_constraints_feasible(self):
        space = ont.LambdaSpace(weights=np.ones(3))
        rho = ont.uniform_density(space, "r", [0, 1, 2])
        prob = nogo.build_feasibility_problem(space, [rho], {}, 4, 2)
        rep = nogo.lp_feasibility(prob)
        assert rep.status is LpStatus.FEASIBLE
        assert np.max(np.abs(np.sum(rep.witness, axis=0) - 1.0)) < 1e-9


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


def scene(n, theta=np.pi / 4, **kw):
    if n == 2:
        return nogo.pbr_scene_problem(**kw)
    basis = qcore.pbr_basis_n(theta, n)
    return nogo.pbr_scene_problem(
        n=n, basis=basis, states=list(qcore.make_qubit_pair(theta)), **kw
    )


def assert_checked_evidence(prob, rep, tol=1e-9):
    """The verdict's witness or Farkas vector, re-checked in numpy."""
    if rep.status is LpStatus.FEASIBLE:
        x = rep.witness.reshape(-1)
        assert np.min(x) >= 0.0
        assert np.max(np.abs(prob.a_eq @ x - prob.b_eq)) <= tol
    else:
        assert rep.status is LpStatus.INFEASIBLE
        y = rep.farkas
        assert np.max(prob.a_eq.T @ y) <= tol
        assert rep.certificate_margin == pytest.approx(prob.b_eq @ y, abs=0)
        assert prob.b_eq @ y > tol


class TestSparseAssembly:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_dense_loops(self, n):
        prob = scene(n)
        assert np.array_equal(prob.a_eq.toarray(), dense_reference(prob))

    @pytest.mark.parametrize("n, kw, shape, nnz", [
        (2, {}, (52, 144), 400),
        (2, {"shared": 0}, (80, 256), 512),
        (3, {}, (280, 1728), 5824),
        (3, {"cells_per_support": 5}, (576, 4096), 12096),
    ])
    def test_shape_and_nonzeros(self, n, kw, shape, nnz):
        prob = scene(n, **kw)
        assert prob.a_eq.shape == shape
        assert prob.a_eq.nnz == nnz == np.count_nonzero(prob.a_eq.toarray())


class TestCertificates:
    @pytest.mark.parametrize("n, theta", [
        (2, np.pi / 4), (3, np.pi / 4), (4, np.pi / 6),
    ])
    def test_phase1_optimum_is_two_to_the_n_plus_one(self, n, theta):
        """Observed regression value for cells_per_support=4, shared=2."""
        prob = scene(n, theta)
        rep = nogo.lp_feasibility(prob)
        assert rep.status is LpStatus.INFEASIBLE
        y = rep.farkas
        assert np.max(prob.a_eq.T @ y) <= 1e-9
        assert prob.b_eq @ y == pytest.approx(2**n + 1, abs=1e-9)
        assert rep.certificate_margin == pytest.approx(2**n + 1, abs=1e-9)

    @pytest.mark.parametrize("kw", [{}, {"shared": 0}])
    def test_scene_evidence_checks(self, kw):
        prob = nogo.pbr_scene_problem(**kw)
        rep = nogo.lp_feasibility(prob)
        assert_checked_evidence(prob, rep)
        assert (rep.certificate_margin is None) == (rep.status is LpStatus.FEASIBLE)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        data=st.data(),
    )
    def test_infeasible_iff_supports_overlap(self, m, data):
        pair = [qcore.ket(0), qcore.ket_plus()]
        basis = qcore.pbr_basis_2qubit()
        cell_set = st.sets(st.integers(0, m - 1), min_size=1)
        positive = st.floats(1e-2, 1e2)
        s1, s2 = data.draw(cell_set), data.draw(cell_set)
        weights = np.array(data.draw(st.lists(positive, min_size=m, max_size=m)))
        space = ont.LambdaSpace(weights=weights)
        densities = []
        for label, cells in (("psi1", s1), ("psi2", s2)):
            v = np.zeros(m)
            v[sorted(cells)] = data.draw(
                st.lists(positive, min_size=len(cells), max_size=len(cells))
            )
            densities.append(
                ont.PreparationDensity(space, label, v / np.sum(v * weights))
            )
        born = {
            (i, combo): qcore.born(phi, qcore.tensor([pair[j] for j in combo]))
            for combo in product(range(2), repeat=2)
            for i, phi in enumerate(basis.vectors)
        }
        prob = nogo.build_feasibility_problem(space, densities, born, 4, 2)
        rep = nogo.lp_feasibility(prob)
        want = LpStatus.INFEASIBLE if s1 & s2 else LpStatus.FEASIBLE
        assert rep.status is want
        assert_checked_evidence(prob, rep)

    @pytest.mark.parametrize("shared, corrupt", [
        (2, lambda res: setattr(res.eqlin, "marginals", -res.eqlin.marginals)),
        (2, lambda res: setattr(res.eqlin, "marginals", res.eqlin.marginals + 1e-6)),
        (0, lambda res: setattr(res, "x", res.x + 1e-6)),
        (0, lambda res: setattr(res, "x", res.x - 1e-6)),
    ])
    def test_unchecked_solver_output_is_indeterminate(
        self, monkeypatch, shared, corrupt
    ):
        real = scipy.optimize.linprog

        def bad_linprog(*args, **kwargs):
            res = real(*args, **kwargs)
            corrupt(res)
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", bad_linprog)
        rep = nogo.lp_feasibility(nogo.pbr_scene_problem(4, shared))
        assert rep.status is LpStatus.INDETERMINATE
        assert rep.witness is None and rep.farkas is None


class TestPhase1:
    def test_negative_right_hand_side(self):
        """Dense input and b < 0: -x0 - x1 = -1 has x >= 0 solutions; adding
        x0 + x1 = 2 makes it infeasible, and the duals must certify that."""
        ok = phase1(np.array([[-1.0, -1.0]]), np.array([-1.0]))
        assert ok.status is LpStatus.FEASIBLE
        assert ok.x.sum() == pytest.approx(1.0, abs=1e-12)
        a = np.array([[-1.0, -1.0], [1.0, 1.0]])
        b = np.array([-1.0, 2.0])
        bad = phase1(a, b)
        assert bad.status is LpStatus.INFEASIBLE
        assert np.max(a.T @ bad.y) <= 1e-9 and b @ bad.y > 1e-9


class TestSceneDomain:
    @pytest.mark.parametrize("kw", [
        {"shared": -1},
        {"shared": 5},
        {"cells_per_support": 0, "shared": 0},
        {"n": 3, "basis": qcore.NotFound(residual=1e-3, attempts=8)},
    ])
    def test_outside_domain_raises(self, kw):
        with pytest.raises(nogo.NogoError):
            nogo.pbr_scene_problem(**kw)


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
    def test_reproduces_all_product_probabilities(self, pair, basis2):
        model = nogo.construct_disjoint_model(*pair, basis2)
        labels = ("psi1", "psi2")
        for j, k in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            joint = qcore.tensor([pair[j], pair[k]])
            for i, phi in enumerate(basis2.vectors):
                want = qcore.born(phi, joint)
                got = ont.predict_product(
                    model, (labels[j], labels[k]), basis2, outcome_index=i
                )
                assert abs(got - want) < 1e-12

    def test_classify_ontic(self, pair, basis2):
        model = nogo.construct_disjoint_model(*pair, basis2)
        assert ont.classify(model) is PsiClass.PSI_ONTIC

    def test_not_deterministic(self, pair, basis2):
        model = nogo.construct_disjoint_model(*pair, basis2)
        ok, offenders = nogo.determinism_check(model)
        assert not ok
        values = {round(v, 6) for _, v in offenders}
        assert 0.25 in values and 0.5 in values


class TestContextualEscape:
    @pytest.mark.parametrize("scene", ["beam-splitter", "single-qubit-orthogonal"])
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


class TestDeterminismCheck:
    def test_beam_splitter_deterministic(self):
        ok, offenders = nogo.determinism_check(ont.build_beam_splitter_model())
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
