"""Finite-dimensional qubit state algebra.

Pure states over n qubits, tensor products, Born probabilities, and the
orthonormal product-state measurement bases used by the no-go analysis
(the fixed 2-qubit basis plus PBR's closed-form n-qubit measurement).

Conventions: computational-basis index ordering puts the leftmost tensor
factor in the most significant bit.  States returned by constructors have
their global phase fixed so that the first nonzero amplitude is real and
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

# Tolerance hierarchy: exact algebra and closed forms / invariant verification.
CONSTRUCTION_TOL = 1e-12
VERIFICATION_TOL = 1e-10

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
        if not abs(norm2 - 1.0) <= CONSTRUCTION_TOL:
            raise DomainError(f"state not normalized: sum |amps|^2 = {norm2!r}")
        object.__setattr__(self, "amps", amps)

    def dagger_dot(self, other: "QState") -> complex:
        """Inner product <self|other>."""
        if self.dims != other.dims:
            raise DimensionMismatch(f"dims {self.dims} != {other.dims}")
        return complex(np.vdot(self.amps, other.amps))


def make_state(amps) -> QState:
    """Build a QState from an amplitude vector, normalizing it; DomainError
    for a zero or non-finite norm."""
    amps = np.asarray(amps, dtype=complex)
    norm = np.linalg.norm(amps)
    if not 0.0 < norm < np.inf:
        raise DomainError(f"amplitude vector norm {norm!r} is not finite and positive")
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
    vectors: tuple[QState, ...]

    def __post_init__(self):
        d = 2**self.dims
        if len(self.vectors) != d:
            raise DomainError(f"basis needs {d} vectors, got {len(self.vectors)}")
        for v in self.vectors:
            if v.dims != self.dims:
                raise DimensionMismatch("basis vector with wrong qubit count")
        g = self.gram()
        if not np.max(np.abs(g - np.eye(d))) <= VERIFICATION_TOL:
            raise DomainError("basis vectors are not orthonormal")

    def gram(self) -> np.ndarray:
        mat = np.array([v.amps for v in self.vectors])
        return mat.conj() @ mat.T

    def __len__(self) -> int:
        return len(self.vectors)


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
# n-qubit PBR measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NotFound:
    """The PBR phases cannot close: the k = 0 side exceeds the others by margin."""

    margin: float


def product_states(theta: float, n: int) -> list[QState]:
    """The 2^n products of the non-orthogonal pair, indexed by bit string."""
    psi0, psi1 = make_qubit_pair(theta)
    pair = (psi0, psi1)
    out = []
    for bits in product((0, 1), repeat=n):
        out.append(tensor([pair[b] for b in bits]))
    return out


def pbr_basis_n(theta: float, n: int) -> MeasurementBasis | NotFound:
    """PBR's n-copy measurement: the x-th vector kills the x-th product state.

    Pusey, Barrett and Rudolph (arXiv:1111.3328): vector x is
    <complement(x)| H^{(x)n} diag(e^{i phi_|z|}), with a phase that depends
    only on the Hamming weight |z|.  Its overlap with product x is
    2^{-n/2} sum_k a_k e^{i phi_k}, with sides a_k = C(n, k) cos^{n-k}(theta/2)
    sin^k(theta/2), so it vanishes iff the phases close the polygon of the
    sides.  For n >= 2 that is possible iff the k = 0 side is at most the sum
    of the others, i.e. iff 2^{1/n} - 1 <= tan(theta/2).  Otherwise returns
    NotFound with the margin (k = 0 side minus the others); that rules out
    this construction, not every basis with the same zero pattern.  The
    overlaps are checked to be within CONSTRUCTION_TOL before returning.
    """
    if n < 2:
        raise DomainError(f"need n >= 2 qubits, got {n}")
    if not (0.0 < theta < np.pi / 2):
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    k = np.arange(n + 1)
    sides = np.array([comb(n, j) for j in range(n + 1)]) * c ** (n - k) * s**k
    margin = float(sides[0] - sides[1:].sum())
    if margin > CONSTRUCTION_TOL:
        return NotFound(margin)
    # Sides go largest first into the lightest of three groups, which keeps
    # each group within half the total; the group sums close as a triangle
    # (cosine clipped so that the degenerate triangle at the bound closes).
    group = np.empty(n + 1, dtype=int)
    sums = np.zeros(3)
    for j in np.argsort(sides)[::-1]:
        group[j] = np.argmin(sums)
        sums[group[j]] += sides[j]
    g0, g1, g2 = sums
    beta = np.arccos(np.clip((g2**2 - g0**2 - g1**2) / (2 * g0 * g1), -1.0, 1.0))
    phases = np.array([0.0, beta, np.angle(-g0 - g1 * np.exp(1j * beta))])[group]
    z = np.arange(2**n)
    weights = np.array([int(i).bit_count() for i in z])  # Hamming weight |z|
    hadamard = (-1.0) ** weights[z[:, None] & z[None, :]] / 2 ** (n / 2)
    bras = hadamard * np.exp(1j * phases[weights])
    # The complement of x is 2^n - 1 - x, so z[::-1] lists complement(x) in x order.
    vectors = tuple(canonical_phase(QState(n, bras[y].conj())) for y in z[::-1])
    worst = max(born(v, p) for v, p in zip(vectors, product_states(theta, n)))
    if worst > CONSTRUCTION_TOL:
        raise ArithmeticError(f"PBR phases left an overlap of {worst:.3g}")
    return MeasurementBasis(n, vectors)
