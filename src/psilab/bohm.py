"""One-dimensional spinor wave-packet laboratory with guidance trajectories.

A two-component wave function evolves under a pair of decoupled Schrodinger
equations whose potentials are +/- b1*x while t < FIELD_OFF (the
magnetic-gradient stage of a spin analyzer), plus an optional static
potential shared by both components (used for the beam-splitter barrier).
Particle positions are carried by the probability current, so each run is a
deterministic map from the initial position x0 to a measurement outcome.

Units: hbar = m = mu = 1 (mu the magnetic moment), so the up component feels
the force -b1 and the down component +b1, and lengths are in units of
PACKET_SIGMA.  Every evolution starts at t = 0 from one preparation form
(``prepare``): a packet P times the spinor (cos(theta/2), sin(theta/2)); the
analyzer's P is at rest at x = 0, width PACKET_SIGMA, and the beam splitter
runs its own P at theta = 0.

Numerics: Crank-Nicolson stepping on a uniform grid with hard-wall
boundaries (norm-preserving by construction); each potential's tridiagonal
matrix is LU-factored once (LAPACK zgttrf) and every step is one zgttrs
solve on those factors.  A component is live when its amplitude is nonzero
(a zero one stays so); its sign s (+1 up, -1 down) sets its potential
(static + s*b1*x while the field is on) and its share s*|c|^2 of the spin.
Each live component is its amplitude times a basis field, P stepped under
its own potential, so what is stepped does not depend on theta; where the
mirror x -> -x maps the grid, static potential and P exactly onto
themselves, P is stepped under +b1*x alone as U and down = sin(theta/2)
U[::-1] (the mirror swaps +b1*x and -b1*x).  Frames are reduced per basis
field B: with W the summed |amplitude|^2 on B, the norm is sum W sum|B|^2 dx
and the continuity entry sum W max|r_B|, the field's own residual for one
basis at weight 1, an upper bound on the combined density's residual.
Initial positions are inverse-CDF samples from |psi(0)|^2 (a seeded PCG64
generator), and trajectories come from the 1-D quantile map
x_t = F_t^-1(F_0(x0)): guidance trajectories in one dimension never cross
and keep the ensemble |psi|^2-distributed, so a point that starts at
quantile u of rho_0 sits at quantile u of rho_t.  F_t is the cumulative
density at cell edges, the integral of the midpoint edge current
(``_edge_current``, the one current the module computes) that the stepper
conserves exactly.  The map is ill-conditioned where F_0(x0) is within
rounding of 0 or 1 (the far tails): rounding sets those paths.

``simulate`` streams the evolution: each frame is reduced and dropped; the
record keeps the first and last fields and the last frame's rho and
|up|^2 - |down|^2, built from the basis densities only where read: there,
where ``integrate_ensemble`` carries any points, and for points given to
``simulate`` up front, whose frames are mapped a block of PATH_BLOCK at a
time (one cumulative sum, one local-spin pass) into (frames, points)
positions and local spins, which the CSV and SVG writers stream to an open
file one path at a time.

Both scenes, the spin analyzer (``run_ensemble``) and the beam splitter
(``beam_splitter_scene``), run the same pipeline (prepare, sample, simulate
with the first ``paths`` samples tracked, map to the final frame, tally) and
return one ``EnsembleRun``; they differ only in their packet, theta and the
rule that turns a final point into an OUTCOME_* value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np
# perfbench/tracing.py wraps `bohm.solve_banded` by attribute name and fails
# if it is missing; the import stays until the tracer wraps the factored solve.
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import zgttrf, zgttrs

from . import ontology
from .qcore import DomainError

# Density threshold (relative to the frame maximum) below which the local spin
# (|up|^2 - |down|^2)/rho is undefined and recorded as NaN.
NODE_EPS_FACTOR = 1e-12
# |Sigma| must exceed 1 - SIGMA_RESOLVED at the final time to call an outcome.
SIGMA_RESOLVED = 1e-2
# Frames whose tracked points ``simulate`` maps together (about 2 MB of
# buffers at 1024 cells).
PATH_BLOCK = 64

# The gradient acts while the step midpoint (n + 1/2) dt is below FIELD_OFF.
FIELD_OFF = 1.0
# Width of the Gaussian packet that ``prepare`` builds.
PACKET_SIGMA = 1.0

OUTCOME_PLUS = 1
OUTCOME_MINUS = -1
OUTCOME_UNRESOLVED = 0


class BohmError(ValueError):
    """Base error for the wave-packet laboratory."""


class ConfigError(BohmError, DomainError):
    """Simulation configuration violates a validity or stability rule: input
    outside the documented domain, so also a DomainError."""


@dataclass(frozen=True)
class SternGerlachConfig:
    """Grid, stepping, and field parameters for one simulation."""

    x_min: float = -35.0
    x_max: float = 35.0
    cells: int = 1792
    dt: float = 1e-3
    t_final: float = 3.0
    b1: float = -4.0
    static_potential: np.ndarray | None = None

    def __post_init__(self):
        bad = [k for k in ("x_min", "x_max", "dt", "t_final", "b1")
               if not np.isfinite(getattr(self, k))]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        if not isinstance(self.cells, (int, np.integer)) or self.cells < 64:
            raise ConfigError(f"need an integer >= 64 cells, got {self.cells!r}")
        if self.x_max <= self.x_min:
            raise ConfigError("empty grid extent")
        if self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("dt and t_final must be positive")
        if self.n_steps < 1:
            raise ConfigError(
                f"t_final / dt = {self.t_final / self.dt:.3g} rounds to zero steps"
            )
        if not abs(self.t_final / self.dt - self.n_steps) <= 1e-9 * self.n_steps:
            raise ConfigError(f"t_final = {self.t_final!r} is not a whole number "
                              f"of dt = {self.dt!r} steps")
        if self.static_potential is not None:
            if np.iscomplexobj(self.static_potential):
                raise ConfigError("static potential must be real")
            v = np.asarray(self.static_potential, dtype=float)
            if v.shape != (self.cells,):
                raise ConfigError("static potential does not match the grid")
            if not np.all(np.isfinite(v)):
                raise ConfigError("static potential must be finite")
            object.__setattr__(self, "static_potential", v)
        # Accuracy guards for the implicit stepper (which is unconditionally
        # stable): reject grossly under-resolved stepping in space or in the
        # potential phase per step.
        if self.dt / self.dx**2 > 16.0:
            raise ConfigError("dt too large for this grid spacing")
        v_mag = np.max(np.abs(self.b1 * self.x))
        if self.static_potential is not None:
            v_mag = max(v_mag, float(np.max(np.abs(self.static_potential))))
        if self.dt * v_mag > 0.5:
            raise ConfigError("dt too large for this potential strength")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    @property
    def x(self) -> np.ndarray:
        """Cell-center coordinates."""
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class SpinorField:
    """Two complex component arrays on the grid at one instant."""

    x: np.ndarray
    dx: float
    up: np.ndarray
    down: np.ndarray

    def __post_init__(self):
        up = np.asarray(self.up, dtype=complex)
        down = np.asarray(self.down, dtype=complex)
        if up.shape != self.x.shape or down.shape != self.x.shape:
            raise BohmError("component arrays do not match the grid")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        if not abs(self.norm() - 1.0) <= 1e-8:  # NaN fails too
            raise BohmError(f"field not normalized: norm = {self.norm()!r}")

    def rho(self) -> np.ndarray:
        return np.abs(self.up) ** 2 + np.abs(self.down) ** 2

    def norm(self) -> float:
        return float(np.sum(self.rho()) * self.dx)


def gaussian_packet(x, dx, x0, sigma, k0) -> np.ndarray:
    """Discretely normalized Gaussian envelope with a plane-wave factor."""
    amp = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * dx)
    return amp


def _packet(config: SternGerlachConfig) -> np.ndarray:
    """The unit packet P at rest at x = 0, width PACKET_SIGMA."""
    return gaussian_packet(config.x, config.dx, 0.0, PACKET_SIGMA, 0.0)


def _mirrored(config: SternGerlachConfig, packet: np.ndarray) -> bool:
    """Whether the mirror x -> -x maps the grid, the static potential and
    ``packet`` exactly onto themselves.  It then swaps +b1 x and -b1 x, so
    the packet's evolution under -b1 x is its evolution under +b1 x
    mirrored."""
    x, v = config.x, config.static_potential
    return (np.array_equal(x, -x[::-1]) and np.array_equal(packet, packet[::-1])
            and (v is None or np.array_equal(v, v[::-1])))


def prepare(config: SternGerlachConfig, theta: float,
            packet: np.ndarray | None = None) -> SpinorField:
    """The preparation ``packet`` times the spinor (cos(theta/2), sin(theta/2)):
    cos(theta/2)*packet up, sin(theta/2)*packet down.  The default packet is
    at rest at x = 0, width PACKET_SIGMA; DomainError for a theta outside
    [0, pi] or a packet whose shape is not the grid's."""
    if not 0.0 <= theta <= np.pi:
        raise DomainError(f"preparation angle must lie in [0, pi], got {theta!r}")
    packet = _packet(config) if packet is None else np.asarray(packet)
    if packet.shape != config.x.shape:
        raise DomainError(f"packet of shape {packet.shape} is not on the "
                          f"configured grid of {config.cells} cells")
    return SpinorField(x=config.x, dx=config.dx, up=np.cos(theta / 2.0) * packet,
                       down=np.sin(theta / 2.0) * packet)


# ---------------------------------------------------------------------------
# Crank-Nicolson stepping
# ---------------------------------------------------------------------------


def _stepper(config: SternGerlachConfig, potential: np.ndarray):
    """Factor the tridiagonal LHS once; return the one-step propagator.

    The LHS 1 + i dt H / 2 is LU-factored by ``zgttrf`` here, and each step
    applies the RHS 1 - i dt H / 2 and solves on the stored factors with
    ``zgttrs``.
    """
    kin = 1.0 / (2.0 * config.dx**2)
    h_off = -kin
    h_diag = 2.0 * kin + potential
    z = 1j * config.dt / 2.0
    lhs_off = np.full(config.cells - 1, z * h_off)
    dl, d, du, du2, ipiv, info = zgttrf(lhs_off, 1.0 + z * h_diag, lhs_off)
    if info != 0:
        raise BohmError(f"Crank-Nicolson matrix not factored: zgttrf info = {info}")
    rhs_diag = 1.0 - z * h_diag
    rhs_off = -z * h_off

    def step(psi):
        rhs = rhs_diag * psi
        rhs[:-1] += rhs_off * psi[1:]
        rhs[1:] += rhs_off * psi[:-1]
        return zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)[0]

    return step


def _potential(config: SternGerlachConfig, s: int) -> np.ndarray:
    """The static potential plus s * b1 * x."""
    base = 0.0 if config.static_potential is None else config.static_potential
    return base + s * config.b1 * config.x


def _cn_steps(config: SternGerlachConfig, signs, fields, steps: int):
    """The time-stepping loop: yield the tuple of fields after each step.

    The field of sign s feels ``_potential`` s while the gradient is on and
    0 after; steppers are keyed by that potential, so each is factored once
    and shared by the fields that see it (with b1 = 0, potential 0).
    """
    steppers = {}
    for n in range(steps):
        on = config.b1 != 0.0 and (n + 0.5) * config.dt < FIELD_OFF
        keys = signs if on else (0,) * len(signs)
        for key in keys:
            if key not in steppers:
                steppers[key] = _stepper(config, _potential(config, key))
        fields = tuple(steppers[key](f) for key, f in zip(keys, fields))
        yield fields


# ---------------------------------------------------------------------------
# Probability current
# ---------------------------------------------------------------------------


def _edge_current(psi, dx: float) -> np.ndarray:
    """Current of one field through the cells + 1 edges: interior edge
    k + 1/2 carries Im(conj(psi_k) psi_k+1) / dx, the hard walls none."""
    j = np.zeros(len(psi) + 1)
    j[1:-1] = np.imag(np.conj(psi[:-1]) * psi[1:])
    return (1.0 / dx) * j


# ---------------------------------------------------------------------------
# Recorded evolutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionRecord:
    """One streamed evolution: per-step diagnostics, end fields, kept paths.

    ``norms`` holds the norm of every frame and ``continuity``, per step,
    the largest residual of the discrete conservation law (d_t rho + div J
    = 0) with the midpoint edge current that the implicit stepper conserves,
    summed over the basis fields at their weights.  ``paths_x`` and
    ``paths_sigma`` hold the position and local spin of each tracked point
    at every frame, (frames, points), NaN spin where the density falls below
    its frame's node threshold; ``final_spin`` and ``final_rho`` are the
    last frame's |up|^2 - |down|^2 and rho.
    """

    config: SternGerlachConfig
    times: np.ndarray
    norms: np.ndarray
    continuity: np.ndarray
    paths_x: np.ndarray
    paths_sigma: np.ndarray
    initial: SpinorField
    final: SpinorField
    final_spin: np.ndarray
    final_rho: np.ndarray


def _local_spin(spin, rho):
    """spin / rho along the last axis (|up|^2 - |down|^2 over the density),
    NaN below the node threshold of its frame."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = spin / rho
    sig[rho < NODE_EPS_FACTOR * rho.max(axis=-1, keepdims=True)] = np.nan
    return np.clip(sig, -1.0, 1.0, out=sig)


def _continuity_residual(config, b0, b1, d0, d1):
    """Discrete conservation residual of one basis field over one step, with
    the edge current of its time midpoint (the current the implicit stepper
    conserves exactly); ``d0``/``d1`` are |b0|^2 and |b1|^2."""
    j = _edge_current(0.5 * (b0 + b1), config.dx)
    div = (j[1:] - j[:-1]) / config.dx
    return float(np.abs((d1 - d0) / config.dt + div).max())


def _edges(x, dx):
    """The cells + 1 edges of the cells centred on x."""
    return np.concatenate(([x[0] - 0.5 * dx], x + 0.5 * dx))


def _cdf(rho, dx):
    """Normalized cumulative density at the cell edges (0 at the first),
    along the last axis."""
    cdf = np.empty(rho.shape[:-1] + (rho.shape[-1] + 1,))
    cdf[..., 0] = 0.0
    np.cumsum(rho, axis=-1, out=cdf[..., 1:])
    cdf[..., 1:] *= dx
    cdf /= cdf[..., -1:]
    return cdf


def _start_quantiles(config: SternGerlachConfig, field0: SpinorField, x0s):
    """The points as a 1-D array and their quantiles F_0(x0) under field0.

    DomainError unless every point is finite and in [x_min, x_max].
    """
    x0 = np.array(x0s, dtype=float)
    if x0.ndim != 1:
        raise DomainError("initial positions must form a 1-D sequence")
    lo, hi = config.x_min, config.x_max
    if not np.all((lo <= x0) & (x0 <= hi)):  # NaN fails too
        raise DomainError(f"initial positions must be finite and in [{lo}, {hi}]")
    cdf = _cdf(field0.rho(), config.dx)
    return x0, np.interp(x0, _edges(config.x, config.dx), cdf)


def _quantile_map(grid, edges, dx, q, spin, rho):
    """Positions x_t = F_t^-1(q) and the local spin there, (frames, points).

    ``edges`` are the grid's cell edges (``_edges``); ``spin`` and ``rho``
    are the frames' (frames, cells) |up|^2 - |down|^2 and density.
    """
    cdfs, sigs = _cdf(rho, dx), _local_spin(spin, rho)
    xs = np.empty((len(rho), len(q)))
    sigmas = np.empty_like(xs)
    for k, (cdf, sig) in enumerate(zip(cdfs, sigs)):
        xs[k] = np.interp(q, cdf, edges)
        sigmas[k] = np.interp(xs[k], grid, sig)
    return xs, sigmas


def simulate(config: SternGerlachConfig, theta: float,
             packet: np.ndarray | None = None, points=()) -> EvolutionRecord:
    """Evolve ``prepare(config, theta, packet)`` over the full configured
    span, streaming frames.

    Each frame is reduced to its norm and continuity residual and dropped.
    The tracked ``points`` (each in [x_min, x_max], else DomainError before
    the first step) are carried through every frame by the quantile map.  A
    packet off the grid's shape is a DomainError, also before the first step.
    """
    packet = np.asarray(_packet(config) if packet is None else packet)
    field0 = prepare(config, theta, packet)
    _, q = _start_quantiles(config, field0, points)
    # The live components, read off the amplitudes: a zero one stays so (a
    # zero RHS solves to zero), so it is neither stepped nor reduced.
    amplitude = {1: np.cos(theta / 2.0), -1: np.sin(theta / 2.0)}
    signs = [s for s in (1, -1) if amplitude[s] != 0.0]
    # Terms (sign, amplitude, basis, mirrored x -> -x): each live component
    # is its amplitude times the packet stepped under its own potential, but
    # where the mirror maps the scene onto itself one evolution U under
    # +b1 x serves both: down = sin(theta/2) U[::-1].  A basis weighs the
    # summed amplitude^2 on it.
    if _mirrored(config, packet):
        keys, terms = (1,), tuple((s, amplitude[s], 0, s < 0) for s in signs)
    else:
        keys = tuple(signs)
        terms = tuple((s, amplitude[s], b, False) for b, s in enumerate(signs))
    bases0 = (packet,) * len(keys)
    weights = [sum(a * a for _, a, b, _ in terms if b == k)
               for k in range(len(keys))]

    def densities(dens):
        """|up|^2 - |down|^2 and rho from the basis densities ``dens``."""
        parts = [(a * a) * (dens[b][::-1] if m else dens[b])
                 for _, a, b, m in terms]
        return sum(s * d for (s, *_), d in zip(terms, parts)), sum(parts)

    grid, dx, n_steps = config.x, config.dx, config.n_steps
    edges = _edges(grid, dx)
    times = config.dt * np.arange(n_steps + 1)
    norms = np.empty(n_steps + 1)
    cont = np.empty(n_steps)
    paths_x = np.empty((n_steps + 1, len(q)))
    paths_sigma = np.empty_like(paths_x)

    # Tracked points: each frame's densities wait in a block of PATH_BLOCK
    # rows, mapped when the block fills and after the last frame.
    block = min(PATH_BLOCK, n_steps + 1) if len(q) else 0
    spin_blk, rho_blk = np.empty((block, len(grid))), np.empty((block, len(grid)))

    def frame(k, bases):
        """Record frame k's norm and paths; return its basis densities."""
        dens = [np.abs(f) ** 2 for f in bases]
        norms[k] = sum(w * d.sum() for w, d in zip(weights, dens)) * dx
        if block:
            i = k % block
            spin_blk[i], rho_blk[i] = densities(dens)
            if i == block - 1 or k == n_steps:
                paths_x[k - i:k + 1], paths_sigma[k - i:k + 1] = _quantile_map(
                    grid, edges, dx, q, spin_blk[:i + 1], rho_blk[:i + 1])
        return dens

    dens0 = frame(0, bases0)
    for k, bases1 in enumerate(_cn_steps(config, keys, bases0, n_steps), 1):
        dens1 = frame(k, bases1)
        cont[k - 1] = sum(w * _continuity_residual(config, *f) for w, *f in
                          zip(weights, bases0, bases1, dens0, dens1))
        bases0, dens0 = bases1, dens1

    final_spin, final_rho = densities(dens0)
    live = {s: a * (bases0[b][::-1] if m else bases0[b]) for s, a, b, m in terms}
    final = SpinorField(x=grid, dx=dx, up=live.get(1, field0.up),
                        down=live.get(-1, field0.down))
    return EvolutionRecord(
        config=config, times=times, norms=norms, continuity=cont,
        paths_x=paths_x, paths_sigma=paths_sigma, initial=field0, final=final,
        final_spin=final_spin, final_rho=final_rho,
    )


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass
class EnsembleTrajectories:
    """Final positions, local spin and outcomes of points over one evolution."""

    times: np.ndarray
    x0: np.ndarray
    final_x: np.ndarray
    final_sigma: np.ndarray
    outcomes: np.ndarray


def integrate_ensemble(record: EvolutionRecord, x0s) -> EnsembleTrajectories:
    """Carry many initial points to the final time by the quantile map.

    Only the first field and the last frame's densities are read, the ones
    the tracked paths end on; an outcome is the sign of the final local spin
    where it is resolved.
    """
    config = record.config
    x0, q = _start_quantiles(config, record.initial, x0s)
    grid, dx = config.x, config.dx
    (final_x,), (final_sigma,) = _quantile_map(
        grid, _edges(grid, dx), dx, q, record.final_spin[None],
        record.final_rho[None])
    outcomes = np.zeros(x0.shape, dtype=int)
    resolved = np.isfinite(final_sigma) & (
        np.abs(final_sigma) > 1.0 - SIGMA_RESOLVED
    )
    outcomes[resolved] = np.sign(final_sigma[resolved]).astype(int)
    return EnsembleTrajectories(
        times=record.times, x0=x0,
        final_x=final_x, final_sigma=final_sigma, outcomes=outcomes,
    )


def sample_initial(field0: SpinorField, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF samples from |psi(0)|^2 using a seeded PCG64 stream;
    DomainError for n < 1, a negative seed, or a non-integer n or seed."""
    try:
        n, seed = operator.index(n), operator.index(seed)
    except TypeError:
        raise DomainError(f"non-integer n or seed: {n!r}, {seed!r}") from None
    if n < 1:
        raise DomainError(f"need at least one sample, got n={n}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got seed={seed}")
    cdf = _cdf(field0.rho(), field0.dx)
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.interp(rng.random(n), cdf, _edges(field0.x, field0.dx))


# ---------------------------------------------------------------------------
# Ensembles and statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleStats:
    """Outcome tallies and estimators for one trajectory ensemble.

    The estimators are None when no point resolved to an outcome.
    """

    n: int
    n_plus: int
    n_minus: int
    n_unresolved: int
    p_plus: float | None
    p_minus: float | None
    e_sigma: float | None
    seed: int
    valid: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "counts": {"+1": self.n_plus, "-1": self.n_minus,
                       "unresolved": self.n_unresolved},
            "p_plus": self.p_plus,
            "p_minus": self.p_minus,
            "e_sigma": self.e_sigma,
            "seed": self.seed,
            "valid": self.valid,
        }


def _stats_from_outcomes(outcomes: np.ndarray, seed: int) -> EnsembleStats:
    n = len(outcomes)
    n_plus = int(np.sum(outcomes == OUTCOME_PLUS))
    n_minus = int(np.sum(outcomes == OUTCOME_MINUS))
    n_unres = n - n_plus - n_minus
    p_plus = p_minus = e_sigma = None
    if n_plus + n_minus:
        p_plus = n_plus / (n_plus + n_minus)
        p_minus, e_sigma = 1.0 - p_plus, 2.0 * p_plus - 1.0
    return EnsembleStats(
        n=n, n_plus=n_plus, n_minus=n_minus, n_unresolved=n_unres,
        p_plus=p_plus, p_minus=p_minus, e_sigma=e_sigma,
        seed=seed, valid=n_unres <= 0.01 * n,
    )


@dataclass(frozen=True)
class EnsembleRun:
    """One scene run: the recorded evolution, its sampled points and tally."""

    record: EvolutionRecord
    x0: np.ndarray
    stats: EnsembleStats


def _run(config: SternGerlachConfig, theta: float, packet: np.ndarray | None,
         n: int, seed: int, paths: int, outcomes_of) -> EnsembleRun:
    """Sample n initial points from ``prepare(config, theta, packet)``,
    ``simulate`` it with the first ``paths`` of them tracked, carry all of
    them to the end and tally.

    ``outcomes_of`` maps the integrated ensemble to one OUTCOME_* per point.
    DomainError for ``paths`` outside [0, n], before anything is sampled.
    """
    if not 0 <= paths <= n:
        raise DomainError(f"paths must lie in [0, n = {n}], got {paths}")
    x0s = sample_initial(prepare(config, theta, packet), n, seed)
    record = simulate(config, theta, packet, x0s[:paths])
    ens = integrate_ensemble(record, x0s)
    return EnsembleRun(record=record, x0=ens.x0,
                       stats=_stats_from_outcomes(outcomes_of(ens), seed))


def run_ensemble(config: SternGerlachConfig, theta: float, n: int,
                 seed: int, paths: int = 0) -> EnsembleRun:
    """Spin analyzer: the outcome is the sign of the final local spin."""
    return _run(config, theta, None, n, seed, paths, lambda ens: ens.outcomes)


def ks_distance(samples: np.ndarray, field: SpinorField) -> float:
    """Kolmogorov-Smirnov distance of samples against the field's |psi|^2;
    DomainError for no samples, a non-finite one, or samples not 1-D."""
    s = np.asarray(samples, dtype=float)
    if not (s.ndim == 1 and s.size and np.all(np.isfinite(s))):
        raise DomainError("KS distance needs a 1-D sequence of at least one "
                          "sample, all finite")
    s = np.sort(s)
    model = np.interp(s, _edges(field.x, field.dx), _cdf(field.rho(), field.dx))
    n = len(s)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    return float(
        max(np.max(np.abs(empirical_hi - model)),
            np.max(np.abs(model - empirical_lo)))
    )


# ---------------------------------------------------------------------------
# Beam-splitter scene
# ---------------------------------------------------------------------------

# Gaussian barrier height calibrated numerically so a single incident packet
# with the default scene parameters splits its mass 50/50 (transmitted vs
# reflected) on the default grid.  Recalibrate if the scene geometry changes.
BARRIER_HEIGHT = 22.755789
BARRIER_WIDTH = 0.08

BS_PREPS = ("psi1", "psi2", "plus", "minus")


def beam_splitter_config() -> SternGerlachConfig:
    """Scene geometry: two counter-propagating packets meeting a thin barrier."""
    grid = SternGerlachConfig(x_min=-20.0, x_max=20.0, cells=1024, dt=1e-3,
                              t_final=4.0, b1=0.0)
    barrier = BARRIER_HEIGHT * np.exp(-(grid.x**2) / (2.0 * BARRIER_WIDTH**2))
    return replace(grid, static_potential=barrier)


def prepare_beam_splitter(config: SternGerlachConfig, prep: str) -> np.ndarray:
    """The normalized packet of one of the four scene preparations, which
    the scene runs at theta = 0 (all of it spin up).

    psi1 travels rightward from x = -8.5 with wave number 5, psi2 leftward
    from x = +8.5 (both of width 1.5); plus and minus are the phased
    superpositions (psi1 +/- i psi2)/sqrt(2).
    """
    if prep not in BS_PREPS:
        raise DomainError(f"unknown preparation {prep!r}; expected one of {BS_PREPS}")
    p1 = gaussian_packet(config.x, config.dx, -8.5, 1.5, 5.0)
    p2 = gaussian_packet(config.x, config.dx, 8.5, 1.5, -5.0)
    amp = {"psi1": p1, "psi2": p2, "plus": (p1 + 1j * p2) / np.sqrt(2.0),
           "minus": (p1 - 1j * p2) / np.sqrt(2.0)}[prep]
    return amp / np.sqrt(np.sum(np.abs(amp) ** 2) * config.dx)


def beam_splitter_scene(prep: str, n: int, seed: int,
                        paths: int = 0) -> EnsembleRun:
    """Run one preparation through the crossing region and classify exits.

    Gate 3 (+) is the +x side of the barrier and gate 4 (-) the -x side, read
    off from the sign of the final position outside +/- 2 BARRIER_WIDTH.
    """
    config = beam_splitter_config()

    def gates(ens):
        outcomes = np.where(ens.final_x > 0, OUTCOME_PLUS, OUTCOME_MINUS)
        outcomes[np.abs(ens.final_x) <= 2.0 * BARRIER_WIDTH] = OUTCOME_UNRESOLVED
        return outcomes

    return _run(config, 0.0, prepare_beam_splitter(config, prep), n, seed,
                paths, gates)


def transmitted_mass(record: EvolutionRecord) -> float:
    """Fraction of the final density on the +x side (calibration helper)."""
    x = record.config.x
    return float(np.sum(record.final.rho()[x > 0]) * record.config.dx)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

# Support cutoff (relative to max density) for the exported hidden-variable
# space: looser than the node threshold so every exported cell carries a
# trajectory that stays numerically resolved.
EXPORT_SUPPORT_EPS = 1e-9


def bohm_ont_model(thetas=(np.pi / 3, np.pi / 2)) -> ontology.OntModel:
    """View the simulator as a finite hidden-variable model.

    The hidden variable is the initial-position cell; each preparation angle
    shares the same spatial density but gets its own route: each cell goes to
    the outcome ("+" for x > 0, else "-") of the trajectory launched at the
    cell center, on the default analyzer, and ``ontology.routed_response``
    turns the routes into tables under the context "spin-z".
    """
    config = SternGerlachConfig()
    packet = prepare(config, 0.0)
    rho0 = packet.rho()
    cells = np.flatnonzero(rho0 >= EXPORT_SUPPORT_EPS * np.max(rho0))
    centers = config.x[cells]
    space = ontology.LambdaSpace(
        weights=np.full(len(cells), config.dx), coords=centers
    )
    values = rho0[cells] / (np.sum(rho0[cells]) * config.dx)

    preparations = {}
    routes = {}
    for theta in thetas:
        label = f"theta={theta:.6f}"
        preparations[label] = ontology.PreparationDensity(
            space=space, label=label, values=values.copy()
        )
        ens = integrate_ensemble(simulate(config, theta), centers)
        routes[(label, "spin-z")] = np.where(ens.final_x > 0, 0, 1)

    response = ontology.routed_response(("+", "-"), routes)
    return ontology.OntModel(space, preparations, response, product_arity=1)


def trajectories_to_csv(fh, times, xs, sigmas) -> None:
    """Write the CSV of (frames, points) position and spin arrays to the open
    text file ``fh``, one row per (point, t), one point at a time."""
    # One template per file with the t column inlined; each path fills it
    # with (id, x, sigma) per row, the id as a float that %d prints whole.
    tpl = "".join("%%d,%s,%%.15g,%%.15g\n" % ("%.15g" % t)
                  for t in np.asarray(times).tolist())
    path = np.empty((len(xs), 3))
    fh.write("traj_id,t,x,sigma\n")
    for tid in range(xs.shape[1]):
        path[:, 0], path[:, 1], path[:, 2] = tid, xs[:, tid], sigmas[:, tid]
        fh.write(tpl % tuple(path.ravel().tolist()))
