import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psilab import nogo, ontology as ont
from psilab.ontology import PsiClass


@pytest.fixture
def bs_model():
    return nogo.contextual_escape("beam-splitter")


def simple_space(m=4):
    return ont.LambdaSpace(weights=np.full(m, 0.5), coords=np.arange(m, dtype=float))


class TestTypes:
    def test_space_validation(self):
        with pytest.raises(ont.OntologyError):
            ont.LambdaSpace(weights=np.array([1.0, 0.0]))
        with pytest.raises(ont.OntologyError):
            ont.LambdaSpace(weights=np.array([]))

    def test_density_normalization(self):
        space = simple_space()
        with pytest.raises(ont.OntologyError):
            ont.PreparationDensity(space, "bad", np.array([1.0, 1.0, 1.0, 1.0]))
        d = ont.uniform_density(space, "ok", [0, 1])
        assert np.sum(d.values * space.weights) == pytest.approx(1.0, abs=1e-12)

    def test_negative_density_rejected(self):
        space = simple_space()
        with pytest.raises(ont.OntologyError):
            ont.PreparationDensity(space, "bad", np.array([2.5, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("build, cells", [
        (ont.uniform_density, []),
        (ont.uniform_density, [5]),
        (ont.uniform_density, [-1]),
        (ont.uniform_density, [0, 3]),
        (ont.uniform_density, [1.7]),
        (ont.uniform_density, [1, 1]),
    ])
    def test_density_cells_outside_space_rejected(self, build, cells):
        space = ont.LambdaSpace(weights=np.ones(3))
        named = re.escape(str(cells))
        with pytest.raises(ont.OntologyError, match=named):
            build(space, "bad", cells)

    @pytest.mark.parametrize("build", [
        lambda: ont.LambdaSpace(weights=[1.0, np.nan]),
        lambda: ont.PreparationDensity(ont.LambdaSpace(weights=np.ones(2)), "nan",
                                       np.array([1.0, np.nan])),
        lambda: ont.UniversalResponse(("a", "b"), np.array([[1.0, np.nan],
                                                            [0.0, 0.5]])),
        lambda: ont.ContextualResponse(("a", "b"), {("p", "c"): np.array(
            [[1.0, np.nan], [0.0, 0.5]])}),
    ], ids=["space", "density", "universal", "contextual"])
    def test_nan_rejected(self, build):
        with pytest.raises(ont.OntologyError):
            build()

    def test_response_normalization_rejected(self):
        with pytest.raises(ont.OntologyError):
            ont.UniversalResponse(("a", "b"), np.array([[0.5, 0.5], [0.4, 0.5]]))


class TestRoutedResponse:
    @pytest.mark.parametrize("route", [[0, -1], [0, 2], [0, 0.5], [0.0, 1.0],
                                       [True, False], [], [[0, 1]]])
    def test_bad_route_rejected(self, route):
        with pytest.raises(ont.OntologyError):
            ont.routed_response(("a", "b"), {("p", "c"): route})

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 8), k=st.integers(1, 4), data=st.data())
    def test_routed_model_is_deterministic_and_predicts_routed_mass(self, m, k, data):
        weights = np.array(data.draw(st.lists(st.floats(1e-2, 1e2), min_size=m,
                                              max_size=m)))
        space = ont.LambdaSpace(weights=weights)
        cells = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
        outcomes = tuple(f"o{i}" for i in range(k))
        routes = {(label, "c"): np.array(data.draw(st.lists(
            st.integers(0, k - 1), min_size=m, max_size=m))) for label in "pq"}
        model = ont.OntModel(
            space, {label: ont.uniform_density(space, label, cells) for label in "pq"},
            ont.routed_response(outcomes, routes))
        assert nogo.determinism_check(model) == (True, [])
        for (label, ctx), route in routes.items():
            rho_w = model.preparations[label].values * weights
            for i, outcome in enumerate(outcomes):
                assert ont.predict(model, label, ctx, outcome) == pytest.approx(
                    float(np.sum(rho_w[route == i])), abs=1e-12)

    @pytest.mark.parametrize("response", [
        ont.ContextualResponse(("a", "b"), {("p", "c"): np.array([[1.0, 0.0, 1.0],
                                                              [0.0, 1.0, 0.0]])}),
        ont.routed_response(("a", "b"), {("p", "c"): [0, 1, 0]}),
    ], ids=["table", "route"])
    def test_width_must_match_space(self, response):
        space = ont.LambdaSpace(weights=np.full(4, 0.25))
        with pytest.raises(ont.SpaceMismatch):
            ont.OntModel(space, {"p": ont.uniform_density(space, "p", [0, 1])},
                         response)


class TestPredict:
    def test_beam_splitter_plus_gate3(self, bs_model):
        assert ont.predict(bs_model, "plus", "gates", "3") == pytest.approx(1.0, abs=1e-12)

    def test_beam_splitter_psi1_half(self, bs_model):
        assert ont.predict(bs_model, "psi1", "gates", "3") == pytest.approx(0.5, abs=1e-12)

    def test_uniform_universal_response(self):
        space = simple_space()
        prep = ont.uniform_density(space, "p", [0, 1, 2, 3])
        resp = ont.UniversalResponse(("x", "y"), np.full((2, 4), 0.5))
        model = ont.OntModel(space, {"p": prep}, resp)
        assert resp.context == "default"
        assert ont.predict(model, "p", "default", "x") == pytest.approx(0.5, abs=1e-14)

    def test_unknown_labels(self, bs_model):
        with pytest.raises(ont.UnknownLabel):
            ont.predict(bs_model, "nope", "gates", "3")
        with pytest.raises(ont.UnknownLabel):
            ont.predict(bs_model, "plus", "nope", "3")
        with pytest.raises(ont.UnknownLabel):
            ont.predict(bs_model, "plus", "gates", "7")

    def test_multi_system_response_rejected(self):
        space = simple_space()
        resp = ont.UniversalResponse(("x", "y"), np.full((2, 4, 4), 0.5))
        model = ont.OntModel(space, {"p": ont.uniform_density(space, "p", [0])},
                             resp, product_arity=2)
        with pytest.raises(ont.OntologyError, match="arity 2"):
            ont.predict(model, "p", "default", "x")

    def test_outcome_completeness(self, bs_model):
        for prep in bs_model.prep_labels:
            total = sum(
                ont.predict(bs_model, prep, "gates", o) for o in ("3", "4")
            )
            assert abs(total - 1.0) < 1e-10


class TestSupportOverlap:
    def test_delta_support_singleton(self):
        space = simple_space()
        d = ont.uniform_density(space, "d", [2])
        assert list(ont.support(d)) == [2]

    def test_beam_splitter_supports(self, bs_model):
        s1 = ont.support(bs_model.preparations["psi1"])
        assert list(s1) == [0, 1, 2, 3]

    def test_disjoint_overlap_zero(self, bs_model):
        assert ont.overlap(
            bs_model.preparations["psi1"], bs_model.preparations["psi2"]
        ) == pytest.approx(0.0)

    def test_plus_minus_full_overlap(self, bs_model):
        ov = ont.overlap(bs_model.preparations["plus"], bs_model.preparations["minus"])
        assert ov == pytest.approx(float(np.sum(bs_model.space.weights)), abs=1e-12)

    def test_identical_densities_total_support(self):
        space = simple_space()
        d = ont.uniform_density(space, "u", [1, 2])
        assert ont.overlap(d, d) == pytest.approx(1.0, abs=1e-12)

    def test_space_mismatch(self):
        d1 = ont.uniform_density(simple_space(4), "a", [0])
        d2 = ont.uniform_density(simple_space(5), "b", [0])
        with pytest.raises(ont.SpaceMismatch):
            ont.overlap(d1, d2)


class TestClassify:
    def test_beam_splitter_epistemic(self, bs_model):
        assert ont.classify(bs_model) is PsiClass.PSI_EPISTEMIC

    def test_disjoint_deltas_ontic(self):
        space = ont.LambdaSpace(weights=np.array([1.0, 1.0]))
        preps = {
            "a": ont.uniform_density(space, "a", [0]),
            "b": ont.uniform_density(space, "b", [1]),
        }
        resp = ont.UniversalResponse(("x",), np.ones((1, 2)))
        model = ont.OntModel(space, preps, resp)
        assert ont.classify(model) is PsiClass.PSI_ONTIC

    def test_identical_preparations_epistemic(self):
        space = simple_space()
        preps = {
            "a": ont.uniform_density(space, "a", [0, 1]),
            "b": ont.uniform_density(space, "b", [0, 1]),
        }
        resp = ont.UniversalResponse(("x",), np.ones((1, 4)))
        model = ont.OntModel(space, preps, resp)
        assert ont.classify(model) is PsiClass.PSI_EPISTEMIC

    def test_single_preparation_rejected(self):
        space = simple_space()
        model = ont.OntModel(
            space,
            {"a": ont.uniform_density(space, "a", [0])},
            ont.UniversalResponse(("x",), np.ones((1, 4))),
        )
        with pytest.raises(ont.OntologyError):
            ont.classify(model)
        with pytest.raises(ont.OntologyError):
            ont.max_pairwise_overlap(model)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), k=st.integers(2, 4), data=st.data())
    def test_one_overlap_rule_over_random_supports(self, m, k, data):
        """The largest pairwise overlap is what classify reads: psi-epistemic
        iff two drawn supports share a cell."""
        weights = data.draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
        space = ont.LambdaSpace(weights=np.array(weights))
        supports = [data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
                    for _ in range(k)]
        preps = {f"p{j}": ont.uniform_density(space, f"p{j}", cells)
                 for j, cells in enumerate(supports)}
        model = ont.OntModel(space, preps,
                             ont.UniversalResponse(("x",), np.ones((1, m))))
        dens = list(preps.values())
        largest = max(ont.overlap(dens[i], dens[j])
                      for i in range(k) for j in range(i + 1, k))
        assert ont.max_pairwise_overlap(model) == largest
        shares = any(set(supports[i]) & set(supports[j])
                     for i in range(k) for j in range(i + 1, k))
        assert (largest > 0.0) == shares
        assert (ont.classify(model) is PsiClass.PSI_EPISTEMIC) == shares

    def test_invariance_under_weight_rescaling(self, bs_model):
        # Uniform rescaling of all cell weights must not change the verdict.
        space = ont.LambdaSpace(
            weights=bs_model.space.weights * 7.0, coords=bs_model.space.coords
        )
        preps = {
            label: ont.PreparationDensity(space, label, d.values / 7.0)
            for label, d in bs_model.preparations.items()
        }
        model = ont.OntModel(space, preps, bs_model.response)
        assert ont.classify(model) is ont.classify(bs_model)


def joint(model, prep, context):
    """Row alpha, column k: P(alpha | lambda_k, prep) rho(lambda_k | prep) w_k."""
    dens = model.preparations[prep]
    return model.response.tables[(prep, context)] * (dens.values * model.space.weights)


class TestChainRule:
    def test_joint_marginalizes_to_predict(self, bs_model):
        for prep in bs_model.prep_labels:
            j = joint(bs_model, prep, "gates")
            for i, outcome in enumerate(("3", "4")):
                p = ont.predict(bs_model, prep, "gates", outcome)
                assert abs(float(np.sum(j[i])) - p) < 1e-12

    def test_joint_lambda_marginal_is_density(self, bs_model):
        j = joint(bs_model, "psi1", "gates")
        dens = bs_model.preparations["psi1"]
        lam_marginal = np.sum(j, axis=0)
        assert np.max(np.abs(lam_marginal - dens.values * bs_model.space.weights)) < 1e-15


class TestSerialization:
    """``model_to_json`` writes every field of both response variants."""

    @staticmethod
    def check_common(d, model):
        assert d["space"]["weights"] == model.space.weights.tolist()
        coords = model.space.coords
        assert d["space"]["coords"] == (None if coords is None else coords.tolist())
        assert d["preparations"] == {
            label: dens.values.tolist() for label, dens in model.preparations.items()
        }
        assert d["product_arity"] == model.product_arity
        assert d["response"]["outcomes"] == list(model.response.outcomes)

    def test_round_trip_contextual(self, bs_model):
        d = json.loads(ont.model_to_json(bs_model))
        self.check_common(d, bs_model)
        assert d["response"]["variant"] == "contextual"
        tables = {(e["prep"], e["context"]): e["table"] for e in d["response"]["tables"]}
        assert tables == {key: t.tolist() for key, t in bs_model.response.tables.items()}

    def test_round_trip_universal(self):
        space = simple_space()
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.1, 1.0, size=(3, 4, 4))
        model = ont.OntModel(
            space,
            {"a": ont.uniform_density(space, "a", [0, 3])},
            ont.UniversalResponse(("x", "y", "z"), raw / np.sum(raw, axis=0)),
            product_arity=2,
        )
        d = json.loads(ont.model_to_json(model))
        self.check_common(d, model)
        assert d["response"] == {"variant": "universal", "outcomes": ["x", "y", "z"],
                                 "context": "default",
                                 "table": model.response.table.tolist()}
