import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from psilab import qcore

SQRT2 = np.sqrt(2.0)

# Reference magnitude table for products of |0> and |+> against the fixed
# entangled basis (rows: 00, 0+, +0, ++).
TABLE_REF = np.array(
    [
        [0.0, 0.5, 0.5, 1 / SQRT2],
        [0.5, 0.0, 1 / SQRT2, 0.5],
        [0.5, 1 / SQRT2, 0.0, 0.5],
        [1 / SQRT2, 0.5, 0.5, 0.0],
    ]
)


def product_pairs():
    psi1, psi2 = qcore.ket(0), qcore.ket_plus()
    return [qcore.tensor([a, b]) for a in (psi1, psi2) for b in (psi1, psi2)]


class TestMakeQubitPair:
    def test_theta_zero_degenerate(self):
        p0, p1 = qcore.make_qubit_pair(0.0)
        assert np.allclose(p0.amps, [1, 0])
        assert np.allclose(p1.amps, [1, 0])
        assert abs(p0.dagger_dot(p1)) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_pi_matches_zero_plus_overlap(self):
        p0, p1 = qcore.make_qubit_pair(np.pi / 4)
        assert abs(p0.dagger_dot(p1)) == pytest.approx(1 / SQRT2, abs=1e-15)

    def test_third_pi_overlap(self):
        # cos(pi/3) = 1/2 from the symbolic expansion of the inner product
        p0, p1 = qcore.make_qubit_pair(np.pi / 3)
        assert abs(p0.dagger_dot(p1)) == pytest.approx(0.5, abs=1e-15)

    def test_overlap_identity_sampled(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(0.0, np.pi / 2 - 1e-6, size=100):
            p0, p1 = qcore.make_qubit_pair(theta)
            ip = p0.dagger_dot(p1)
            assert abs(ip.imag) < 1e-12
            assert abs(ip.real - np.cos(theta)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(qcore.DomainError):
            qcore.make_qubit_pair(np.pi / 2)
        with pytest.raises(qcore.DomainError):
            qcore.make_qubit_pair(-0.1)


class TestTensor:
    def test_zero_one(self):
        s = qcore.tensor([qcore.ket(0), qcore.ket(1)])
        assert np.allclose(s.amps, [0, 1, 0, 0])

    def test_plus_plus_hand_kron(self):
        s = qcore.tensor([qcore.ket_plus(), qcore.ket_plus()])
        assert np.allclose(s.amps, [0.5, 0.5, 0.5, 0.5])

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = qcore.make_state(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            b = qcore.make_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            t = qcore.tensor([a, b])
            assert t.dims == 3
            assert np.sum(np.abs(t.amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(qcore.DomainError):
            qcore.tensor([])


class TestBorn:
    def test_table_zero_entry(self):
        basis = qcore.pbr_basis_2qubit()
        p11 = product_pairs()[0]
        assert qcore.born(basis.vectors[0], p11) < 1e-15

    def test_table_half_entry(self):
        basis = qcore.pbr_basis_2qubit()
        p11 = product_pairs()[0]
        assert qcore.born(basis.vectors[3], p11) == pytest.approx(0.5, abs=1e-14)

    def test_self_overlap(self):
        psi = qcore.make_state([0.3, 0.4 + 0.5j, 0.1, 0.2j])
        assert qcore.born(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(qcore.DimensionMismatch):
            qcore.born(qcore.ket(0), qcore.tensor([qcore.ket(0), qcore.ket(0)]))


class TestPbrBasis2Qubit:
    def test_first_vector_amplitudes(self):
        basis = qcore.pbr_basis_2qubit()
        assert np.allclose(basis.vectors[0].amps, [0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-15)

    def test_zero_against_cross_product(self):
        basis = qcore.pbr_basis_2qubit()
        p12 = product_pairs()[1]  # |0> x |+>
        assert abs(basis.vectors[1].dagger_dot(p12)) < 1e-14

    def test_gram_identity(self):
        basis = qcore.pbr_basis_2qubit()
        assert np.max(np.abs(basis.gram() - np.eye(4))) < 1e-12


class TestCoefficientTable:
    def test_reference_table(self):
        table = qcore.coefficient_table(product_pairs(), qcore.pbr_basis_2qubit())
        assert np.max(np.abs(table - TABLE_REF)) < 1e-12

    def test_row_square_sums(self):
        table = qcore.coefficient_table(product_pairs(), qcore.pbr_basis_2qubit())
        assert np.allclose(np.sum(table**2, axis=1), 1.0, atol=1e-12)

    def test_identity_pattern(self):
        basis = qcore.MeasurementBasis(
            2, tuple(qcore.QState(2, row) for row in np.eye(4, dtype=complex))
        )
        table = qcore.coefficient_table(list(basis.vectors), basis)
        assert np.allclose(table, np.eye(4), atol=1e-15)

    def test_csv_round_trip(self):
        table = qcore.coefficient_table(product_pairs(), qcore.pbr_basis_2qubit())
        text = qcore.table_to_csv(["s11", "s12", "s21", "s22"], table)
        lines = text.strip().split("\n")
        assert lines[0] == "state,phi_1,phi_2,phi_3,phi_4"
        parsed = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        assert np.max(np.abs(parsed - table)) < 1e-14


class TestBasisInvariants:
    def test_completeness_random_states(self):
        basis = qcore.pbr_basis_2qubit()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            psi = qcore.make_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            total = sum(qcore.born(v, psi) for v in basis.vectors)
            assert abs(total - 1.0) < 1e-9


def max_product_overlap(basis, theta):
    """Largest |<Phi_x|psi_x>|^2 of a basis against its own product states."""
    prods = qcore.product_states(theta, basis.dims)
    return max(qcore.born(v, p) for v, p in zip(basis.vectors, prods))


class TestPbrBasisN:
    def test_n2_quarter_pi_zero_pattern(self):
        basis = qcore.pbr_basis_n(np.pi / 4, 2)
        assert isinstance(basis, qcore.MeasurementBasis)
        prods = qcore.product_states(np.pi / 4, 2)
        for x in range(4):
            assert qcore.born(basis.vectors[x], prods[x]) < 1e-9

    def test_n2_orthonormality(self):
        basis = qcore.pbr_basis_n(np.pi / 4, 2)
        assert np.max(np.abs(basis.gram() - np.eye(4))) < 1e-10

    def test_n3_quarter_pi(self):
        basis = qcore.pbr_basis_n(np.pi / 4, 3)
        assert isinstance(basis, qcore.MeasurementBasis)
        prods = qcore.product_states(np.pi / 4, 3)
        for x in range(8):
            assert qcore.born(basis.vectors[x], prods[x]) < 1e-9

    def test_small_theta_not_found(self):
        # At fixed n the PBR phases cannot close for strongly overlapping pairs;
        # at n = 2 the margin c^2 - 2cs - s^2 is cos(theta) - sin(theta).
        r = qcore.pbr_basis_n(0.05, 2)
        assert isinstance(r, qcore.NotFound)
        assert r.margin > 1e-6
        assert r.margin == pytest.approx(np.cos(0.05) - np.sin(0.05), abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_basis_at_the_bound(self, n):
        """The degenerate polygon at 2^{1/n} - 1 = tan(theta/2) still closes;
        1e-6 below the bound it cannot."""
        theta = 2 * np.arctan(2 ** (1 / n) - 1)
        basis = qcore.pbr_basis_n(theta, n)
        assert isinstance(basis, qcore.MeasurementBasis)
        assert max_product_overlap(basis, theta) <= qcore.CONSTRUCTION_TOL
        assert isinstance(qcore.pbr_basis_n(theta - 1e-6, n), qcore.NotFound)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 6),
        theta=st.floats(0.0, np.pi / 2, exclude_min=True, exclude_max=True),
    )
    def test_basis_iff_pbr_bound(self, n, theta):
        assume(abs(theta - 2 * np.arctan(2 ** (1 / n) - 1)) > 1e-9)
        r = qcore.pbr_basis_n(theta, n)
        in_bound = 2 ** (1 / n) - 1 <= np.tan(theta / 2)
        assert isinstance(r, qcore.MeasurementBasis) == in_bound
        if in_bound:
            assert max_product_overlap(r, theta) <= qcore.CONSTRUCTION_TOL
        else:
            assert r.margin > 0

    def test_invalid_args(self):
        with pytest.raises(qcore.DomainError):
            qcore.pbr_basis_n(np.pi / 4, 1)
        with pytest.raises(qcore.DomainError):
            qcore.pbr_basis_n(0.0, 2)


def test_canonical_phase():
    s = qcore.make_state([0.0, 1j, 1.0, 0.0])
    c = qcore.canonical_phase(s)
    first = c.amps[np.flatnonzero(np.abs(c.amps) > 1e-14)[0]]
    assert first.imag == pytest.approx(0.0, abs=1e-15)
    assert first.real > 0


NON_FINITE = [[np.nan, 1.0], [1.0, np.inf], [np.inf, 0.0], [complex(0.0, np.nan), 0.0]]


@pytest.mark.parametrize("amps", NON_FINITE)
def test_non_finite_amplitudes_rejected(amps):
    """A NaN or infinite amplitude is outside the domain: QState's norm check
    and make_state's division would otherwise pass a NaN state through."""
    with pytest.raises(qcore.DomainError):
        qcore.QState(1, np.array(amps, dtype=complex))
    with pytest.raises(qcore.DomainError):
        qcore.make_state(amps)


def test_basis_with_nan_vector_rejected():
    """The orthonormality check fails on NaN, so a NaN basis vector that got
    past QState (here forced in) cannot build a basis."""
    bad = qcore.ket(0)
    object.__setattr__(bad, "amps", np.array([np.nan, 1.0], dtype=complex))
    with pytest.raises(qcore.DomainError, match="orthonormal"):
        qcore.MeasurementBasis(1, (bad, qcore.ket(1)))
