"""Finite-dimensional qubit state algebra.

Pure states over n qubits, tensor products, Born probabilities, and the
orthonormal product-state measurement bases used by the no-go analysis
(the fixed 2-qubit basis plus a numerical search for n-qubit analogues).

Conventions: computational-basis index ordering puts the leftmost tensor
factor in the most significant bit.  States returned by constructors have
their global phase fixed so that the first nonzero amplitude is real and
positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

# Tolerance hierarchy: exact algebra / invariant verification / iterative search.
CONSTRUCTION_TOL = 1e-12
VERIFICATION_TOL = 1e-10
SEARCH_TOL = 1e-9

SQRT2 = np.sqrt(2.0)


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class DimensionMismatch(DomainError):
    """States or bases with incompatible qubit counts."""


@dataclass(frozen=True)
class QState:
    """Normalized pure state of ``dims`` qubits."""

    dims: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dims < 1:
            raise DomainError(f"need at least one qubit, got dims={self.dims}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.dims,):
            raise DomainError(
                f"amplitude vector of length {amps.shape} does not match dims={self.dims}"
            )
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > CONSTRUCTION_TOL:
            raise DomainError(f"state not normalized: sum |amps|^2 = {norm2!r}")
        object.__setattr__(self, "amps", amps)

    def dagger_dot(self, other: "QState") -> complex:
        """Inner product <self|other>."""
        if self.dims != other.dims:
            raise DimensionMismatch(f"dims {self.dims} != {other.dims}")
        return complex(np.vdot(self.amps, other.amps))


def make_state(amps) -> QState:
    """Build a QState from an amplitude vector, normalizing it."""
    amps = np.asarray(amps, dtype=complex)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise DomainError("zero amplitude vector")
    n = int(round(np.log2(amps.size)))
    if 2**n != amps.size:
        raise DomainError(f"amplitude vector length {amps.size} is not a power of two")
    return QState(n, amps / norm)


def canonical_phase(state: QState) -> QState:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    amps = state.amps
    idx = np.flatnonzero(np.abs(amps) > 1e-14)
    if idx.size == 0:
        return state
    a = amps[idx[0]]
    return QState(state.dims, amps * (np.conj(a) / abs(a)))


def ket(bit: int) -> QState:
    """Single-qubit computational basis state |0> or |1>."""
    if bit not in (0, 1):
        raise DomainError(f"bit must be 0 or 1, got {bit}")
    return QState(1, np.array([1.0 - bit, float(bit)], dtype=complex))


def ket_plus() -> QState:
    return QState(1, np.array([1.0, 1.0], dtype=complex) / SQRT2)


def ket_minus() -> QState:
    return QState(1, np.array([1.0, -1.0], dtype=complex) / SQRT2)


def make_qubit_pair(theta: float) -> tuple[QState, QState]:
    """Non-orthogonal single-qubit pair with overlap cos(theta).

    Returns (cos(t/2)|0> - sin(t/2)|1>, cos(t/2)|0> + sin(t/2)|1>) with
    t = theta.
    """
    if not (0.0 <= theta < np.pi / 2):
        raise DomainError(f"theta must lie in [0, pi/2), got {theta}")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    psi0 = QState(1, np.array([c, -s], dtype=complex))
    psi1 = QState(1, np.array([c, s], dtype=complex))
    return canonical_phase(psi0), canonical_phase(psi1)


def tensor(factors: list[QState]) -> QState:
    """Kronecker product of states; leftmost factor is the most significant qubit."""
    if not factors:
        raise DomainError("tensor of an empty factor list")
    amps = factors[0].amps
    dims = factors[0].dims
    for f in factors[1:]:
        amps = np.kron(amps, f.amps)
        dims += f.dims
    return QState(dims, amps)


def born(phi: QState, psi: QState) -> float:
    """Born probability |<phi|psi>|^2."""
    ip = phi.dagger_dot(psi)
    return float(abs(ip) ** 2)


@dataclass(frozen=True)
class MeasurementBasis:
    """Ordered orthonormal basis of the 2^dims dimensional space."""

    dims: int
    vectors: tuple[QState, ...] = field(default=())

    def __post_init__(self):
        d = 2**self.dims
        if len(self.vectors) != d:
            raise DomainError(f"basis needs {d} vectors, got {len(self.vectors)}")
        for v in self.vectors:
            if v.dims != self.dims:
                raise DimensionMismatch("basis vector with wrong qubit count")
        g = self.gram()
        if np.max(np.abs(g - np.eye(d))) > VERIFICATION_TOL:
            raise DomainError("basis vectors are not orthonormal")

    def gram(self) -> np.ndarray:
        mat = np.array([v.amps for v in self.vectors])
        return mat.conj() @ mat.T

    def __len__(self) -> int:
        return len(self.vectors)


def computational_basis(dims: int) -> MeasurementBasis:
    eye = np.eye(2**dims, dtype=complex)
    return MeasurementBasis(dims, tuple(QState(dims, row) for row in eye))


def pbr_basis_2qubit() -> MeasurementBasis:
    """The fixed entangled 2-qubit basis of the product-state no-go argument.

    Each vector is orthogonal to exactly one of the four products built from
    |0> and |+>.
    """
    k0, k1 = ket(0), ket(1)
    kp, km = ket_plus(), ket_minus()

    def half_sum(a, b, c, d):
        amps = (tensor([a, b]).amps + tensor([c, d]).amps) / SQRT2
        return canonical_phase(QState(2, amps))

    phi1 = half_sum(k0, k1, k1, k0)
    phi2 = half_sum(k0, km, k1, kp)
    phi3 = half_sum(kp, k1, km, k0)
    phi4 = half_sum(kp, km, km, kp)
    return MeasurementBasis(2, (phi1, phi2, phi3, phi4))


def coefficient_table(states: list[QState], basis: MeasurementBasis) -> np.ndarray:
    """Magnitudes |<phi_i|state_j>| as a (len(states), len(basis)) array."""
    rows = []
    for s in states:
        if s.dims != basis.dims:
            raise DimensionMismatch(f"state dims {s.dims} != basis dims {basis.dims}")
        rows.append([abs(v.dagger_dot(s)) for v in basis.vectors])
    return np.array(rows)


def table_to_csv(labels: list[str], table: np.ndarray) -> str:
    """CSV rendering of a coefficient table, magnitudes at 15 significant digits."""
    ncols = table.shape[1]
    header = "state," + ",".join(f"phi_{i + 1}" for i in range(ncols))
    lines = [header]
    for label, row in zip(labels, table):
        lines.append(label + "," + ",".join(f"{v:.15g}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# n-qubit basis search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Budget for the orthonormal-basis search."""

    attempts: int = 24
    max_iter: int = 3000
    tol: float = SEARCH_TOL
    seed: int = 20120417


@dataclass(frozen=True)
class NotFound:
    """Search failure report: best residual over all attempts."""

    residual: float
    attempts: int


def product_states(theta: float, n: int) -> list[QState]:
    """The 2^n products of the non-orthogonal pair, indexed by bit string."""
    psi0, psi1 = make_qubit_pair(theta)
    pair = (psi0, psi1)
    out = []
    for bits in product((0, 1), repeat=n):
        out.append(tensor([pair[b] for b in bits]))
    return out


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _polar(a: np.ndarray) -> np.ndarray:
    """Closest unitary to a (polar factor via SVD)."""
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def _diag_overlaps(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<psi_x | Phi_x> for every column index x."""
    return np.einsum("ix,ix->x", m.conj(), u)


def _unpack_hermitian(p: np.ndarray, d: int) -> np.ndarray:
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = p[:d]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = p[k] + 1j * p[k + 1]
            h[j, i] = p[k] - 1j * p[k + 1]
            k += 2
    return h


def _gauss_newton_polish(m: np.ndarray, u: np.ndarray, iters: int) -> np.ndarray:
    """Drive the diagonal overlaps to zero by tangent-space least squares.

    Each step solves, in the Hermitian generator H of a small unitary move
    u -> polar(u + i u H), the linearized system overlap_x + i (m_x^H u H)_x = 0
    in the least-squares sense, then retracts back onto the unitary group.
    """
    d = m.shape[0]
    nparams = d * d
    basis_h = [_unpack_hermitian(np.eye(nparams)[p], d) for p in range(nparams)]
    for _ in range(iters):
        ov = _diag_overlaps(m, u)
        if float(np.max(np.abs(ov) ** 2)) < 1e-28:
            break
        a = m.conj().T @ u
        jac = np.empty((2 * d, nparams))
        for p, h in enumerate(basis_h):
            c = 1j * np.einsum("xk,kx->x", a, h)
            jac[:d, p] = c.real
            jac[d:, p] = c.imag
        rhs = -np.concatenate([ov.real, ov.imag])
        sol, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        u = _polar(u + 1j * (u @ _unpack_hermitian(sol, d)))
    return u


def pbr_basis_n(
    theta: float, n: int, search: SearchConfig | None = None
) -> MeasurementBasis | NotFound:
    """Search for an orthonormal basis whose x-th vector kills the x-th product state.

    The target is a unitary whose columns Phi_x satisfy <Phi_x|psi_{x_1} x ... x
    psi_{x_n}> = 0 for every bit string x.  Each attempt starts from a seeded
    Haar-random unitary, runs alternating projection (project each column off
    its forbidden product state, snap back to the closest unitary via the
    polar decomposition), then polishes with Gauss-Newton steps on the unitary
    group.  Returns NotFound with the best squared-overlap residual if no
    attempt converges; that is a result, not an error (for small theta no such
    basis exists at fixed n).
    """
    if n < 2:
        raise DomainError(f"need n >= 2 qubits, got {n}")
    if not (0.0 < theta < np.pi / 2):
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    cfg = search or SearchConfig()
    prods = product_states(theta, n)
    d = 2**n
    m = np.array([p.amps for p in prods]).T  # column x = product state x

    rng = np.random.default_rng(cfg.seed)
    best = np.inf
    for _ in range(cfg.attempts):
        u = _haar_unitary(rng, d)
        for _ in range(cfg.max_iter):
            ov = _diag_overlaps(m, u)
            if float(np.max(np.abs(ov) ** 2)) < 1e-12:
                break
            u = _polar(u - m * ov[None, :])
        u = _gauss_newton_polish(m, u, iters=80)
        res = float(np.max(np.abs(_diag_overlaps(m, u)) ** 2))
        best = min(best, res)
        if res < cfg.tol:
            cols = [canonical_phase(QState(n, u[:, x].copy())) for x in range(d)]
            return MeasurementBasis(n, tuple(cols))
    return NotFound(residual=best, attempts=cfg.attempts)
