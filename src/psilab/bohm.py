"""One-dimensional spinor wave-packet laboratory with guidance trajectories.

A two-component wave function evolves under a pair of decoupled Schrodinger
equations whose potentials are +/- b1*x while t < FIELD_OFF (the
magnetic-gradient stage of a spin analyzer), plus an optional static
potential shared by both components (used for the beam-splitter barrier).
Particle positions are carried by the probability current, so each run is a
deterministic map from the initial position x0 to a measurement outcome.

Units: hbar = m = mu = 1 (mu the magnetic moment), so the up component feels
the force -b1 and the down component +b1, and lengths are in units of
PACKET_SIGMA, the width of the packet at rest centred at 0 that ``prepare``
builds.  Every evolution starts at t = 0.

Numerics: Crank-Nicolson stepping per component on a uniform grid with
hard-wall boundaries (norm-preserving by construction); the tridiagonal
matrix of each potential is LU-factored once (LAPACK zgttrf) and every step
is one solve on those factors (zgttrs), keyed by potential.  ``simulate``
decides once which components are live (one zero at the start stays so) and
steps and reduces only that tuple; a component's sign s (+1 up, -1 down)
sets both its potential (static + s*b1*x while the field is on) and its
share s*|c|^2 of the spin.  Initial positions are inverse-CDF samples from
|psi(0)|^2 drawn with a seeded PCG64 generator, and trajectories come from
the 1-D quantile map x_t = F_t^-1(F_0(x0)).  Guidance trajectories in one
dimension never cross and keep the ensemble |psi|^2-distributed, so the
point that starts at quantile u of rho_0 sits at quantile u of rho_t.  F_t is
the cumulative density at cell edges; the stepper conserves the midpoint
edge current exactly, so F_t is the integral of the flux it carries.  That
edge current (``_edge_current``) is the one current the module computes.

``simulate`` streams the evolution: each frame is reduced to its norm and
continuity residual and then dropped, so the record keeps no per-frame
history, only the first and the last field.  Points given to ``simulate`` up
front are carried through every frame inside the stepping loop: each frame's
rho and |up|^2 - |down|^2 are copied into a block of PATH_BLOCK frames, and
each full block is mapped at once (one cumulative sum for the CDFs, one
local-spin pass), which records the points' positions and local spin as
(frames, points) arrays; ``integrate_ensemble`` carries any other points
from the first frame to the last.  The CSV and SVG writers stream those
arrays to an open file one path at a time.

Both scenes, the spin analyzer (``run_ensemble``) and the beam splitter
(``beam_splitter_scene``), run the same pipeline (sample, simulate with the
first ``paths`` samples tracked, map to the final frame, tally) and return
one ``EnsembleRun``; they differ only in the rule that turns a final point
into an OUTCOME_* value.
"""

from __future__ import annotations

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
        if self.static_potential is not None:
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


def prepare(config: SternGerlachConfig, theta: float) -> SpinorField:
    """Packet at rest at x = 0, width PACKET_SIGMA, carrying the spinor
    cos(theta/2)*up + sin(theta/2)*down."""
    if not 0.0 <= theta <= np.pi:
        raise DomainError(f"preparation angle must lie in [0, pi], got {theta!r}")
    packet = gaussian_packet(config.x, config.dx, 0.0, PACKET_SIGMA, 0.0)
    return SpinorField(
        x=config.x,
        dx=config.dx,
        up=np.cos(theta / 2.0) * packet,
        down=np.sin(theta / 2.0) * packet,
    )


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


def _cn_steps(config: SternGerlachConfig, signs, comps, steps: int):
    """The time-stepping loop: yield the tuple of components after each step.

    A component of sign s feels ``_potential`` s while the field is on and 0
    after; steppers are keyed by that potential, so each is factored once
    and shared by the components that see it (with b1 = 0, potential 0).
    """
    steppers = {}
    for n in range(steps):
        on = config.b1 != 0.0 and (n + 0.5) * config.dt < FIELD_OFF
        keys = signs if on else (0,) * len(signs)
        for key in keys:
            if key not in steppers:
                steppers[key] = _stepper(config, _potential(config, key))
        comps = tuple(steppers[key](c) for key, c in zip(keys, comps))
        yield comps


# ---------------------------------------------------------------------------
# Probability current
# ---------------------------------------------------------------------------


def _edge_current(comps, dx: float) -> np.ndarray:
    """Current through the cells + 1 edges, summed over the components.

    Interior edge k + 1/2 carries Im(conj(psi_k) psi_k+1) / dx; the hard
    walls carry none.
    """
    j = np.zeros(len(comps[0]) + 1)
    for a in comps:
        j[1:-1] += np.imag(np.conj(a[:-1]) * a[1:])
    return (1.0 / dx) * j


# ---------------------------------------------------------------------------
# Recorded evolutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionRecord:
    """One streamed evolution: per-step diagnostics, end fields, kept paths.

    No per-frame density is kept.  ``norms`` holds the norm of every frame
    and ``continuity``, per step, the largest residual of the discrete
    conservation law (d_t rho + div J = 0) evaluated with the midpoint edge
    current that the implicit stepper conserves.  ``paths_x`` and
    ``paths_sigma`` hold the position and local spin of each tracked point
    at every frame, shape (frames, points); spin entries are NaN where the
    density falls below the node threshold of their frame.
    """

    config: SternGerlachConfig
    times: np.ndarray
    norms: np.ndarray
    continuity: np.ndarray
    paths_x: np.ndarray
    paths_sigma: np.ndarray
    initial: SpinorField
    final: SpinorField


def _densities(signs, comps):
    """The spin sum(s |c|^2) (|up|^2 - |down|^2) and rho = sum(|c|^2) of the
    components c with signs s."""
    spin = rho = 0.0
    for s, c in zip(signs, comps):
        a = np.abs(c) ** 2
        spin, rho = (spin + a if s > 0 else spin - a), rho + a
    return spin, rho


def _local_spin(spin, rho):
    """spin / rho along the last axis (|up|^2 - |down|^2 over the density),
    NaN below the node threshold of its frame."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = spin / rho
    sig[rho < NODE_EPS_FACTOR * rho.max(axis=-1, keepdims=True)] = np.nan
    return np.clip(sig, -1.0, 1.0, out=sig)


def _continuity_residual(config, comps0, comps1, rho0, rho1):
    """Discrete conservation residual over one step.

    Uses the edge current of the time-midpoint components, which is the
    current the implicit stepper conserves exactly; ``rho0``/``rho1`` are the
    densities of the two frames.
    """
    j = _edge_current([0.5 * (a0 + a1) for a0, a1 in zip(comps0, comps1)],
                      config.dx)
    div = np.diff(j) / config.dx
    return float(np.max(np.abs((rho1 - rho0) / config.dt + div)))


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
    are the frames' (frames, cells) densities from ``_densities``.
    """
    cdfs, sigs = _cdf(rho, dx), _local_spin(spin, rho)
    xs = np.empty((len(rho), len(q)))
    sigmas = np.empty_like(xs)
    for k, (cdf, sig) in enumerate(zip(cdfs, sigs)):
        xs[k] = np.interp(q, cdf, edges)
        sigmas[k] = np.interp(xs[k], grid, sig)
    return xs, sigmas


def simulate(config: SternGerlachConfig, theta: float = 0.0,
             field0: SpinorField | None = None, points=()) -> EvolutionRecord:
    """Evolve a preparation over the full configured span, streaming frames.

    Each frame is reduced to its norm and continuity residual and dropped.
    The tracked ``points`` (each in [x_min, x_max], else DomainError before
    the first step) are carried through every frame by the quantile map.
    A ``field0`` whose x is not ``config.x`` is a DomainError, also before
    the first step.
    """
    if field0 is None:
        field0 = prepare(config, theta)
    if not np.array_equal(field0.x, config.x):
        raise DomainError("field0 is not on the configured grid: its x differs "
                          "from config.x")
    _, q = _start_quantiles(config, field0, points)
    # The live components, decided once: one zero at the start stays so (a
    # zero RHS solves to zero), so it is neither stepped nor reduced.
    signs, comps0 = zip(*[(s, c) for s, c in ((1, field0.up), (-1, field0.down))
                          if c.any()])
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

    def frame(k, comps):
        """Record frame k's norm and tracked points; return its density."""
        spin, rho = _densities(signs, comps)
        norms[k] = np.sum(rho) * dx
        if block:
            i = k % block
            spin_blk[i], rho_blk[i] = spin, rho
            if i == block - 1 or k == n_steps:
                paths_x[k - i:k + 1], paths_sigma[k - i:k + 1] = _quantile_map(
                    grid, edges, dx, q, spin_blk[:i + 1], rho_blk[:i + 1])
        return rho

    rho0 = frame(0, comps0)
    for k, comps1 in enumerate(_cn_steps(config, signs, comps0, n_steps), 1):
        rho1 = frame(k, comps1)
        cont[k - 1] = _continuity_residual(config, comps0, comps1, rho0, rho1)
        comps0, rho0 = comps1, rho1

    live = dict(zip(signs, comps0))
    final = SpinorField(x=grid, dx=dx, up=live.get(1, field0.up),
                        down=live.get(-1, field0.down))
    return EvolutionRecord(
        config=config, times=times, norms=norms, continuity=cont,
        paths_x=paths_x, paths_sigma=paths_sigma, initial=field0, final=final,
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

    Only the first and the last field are read; an outcome is the sign of the
    final local spin where it is resolved.
    """
    config, final = record.config, record.final
    x0, q = _start_quantiles(config, record.initial, x0s)
    grid, dx = config.x, config.dx
    spin, rho = _densities((1, -1), (final.up, final.down))
    (final_x,), (final_sigma,) = _quantile_map(grid, _edges(grid, dx), dx, q,
                                               spin[None], rho[None])
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
    DomainError for n < 1 or a negative seed."""
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


def _run(config: SternGerlachConfig, field0: SpinorField, n: int, seed: int,
         paths: int, outcomes_of) -> EnsembleRun:
    """Sample n initial points, evolve with the first ``paths`` of them
    tracked, carry all of them to the end and tally.

    ``outcomes_of`` maps the integrated ensemble to one OUTCOME_* per point.
    DomainError for ``paths`` outside [0, n], before anything is sampled.
    """
    if not 0 <= paths <= n:
        raise DomainError(f"paths must lie in [0, n = {n}], got {paths}")
    x0s = sample_initial(field0, n, seed)
    record = simulate(config, field0=field0, points=x0s[:paths])
    ens = integrate_ensemble(record, x0s)
    return EnsembleRun(record=record, x0=ens.x0,
                       stats=_stats_from_outcomes(outcomes_of(ens), seed))


def run_ensemble(config: SternGerlachConfig, theta: float, n: int,
                 seed: int, paths: int = 0) -> EnsembleRun:
    """Spin analyzer: the outcome is the sign of the final local spin."""
    return _run(config, prepare(config, theta), n, seed, paths,
                lambda ens: ens.outcomes)


def ks_distance(samples: np.ndarray, field: SpinorField) -> float:
    """Kolmogorov-Smirnov distance of samples against the field's |psi|^2."""
    s = np.sort(np.asarray(samples, dtype=float))
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


def prepare_beam_splitter(config: SternGerlachConfig, prep: str) -> SpinorField:
    """Initial field for one of the four scene preparations.

    psi1 travels rightward from x = -8.5 with wave number 5, psi2 leftward
    from x = +8.5 (both of width 1.5); plus and minus are the phased
    superpositions (psi1 +/- i psi2)/sqrt(2).
    """
    if prep not in BS_PREPS:
        raise DomainError(f"unknown preparation {prep!r}; expected one of {BS_PREPS}")
    p1 = gaussian_packet(config.x, config.dx, -8.5, 1.5, 5.0)
    p2 = gaussian_packet(config.x, config.dx, 8.5, 1.5, -5.0)
    if prep == "psi1":
        amp = p1
    elif prep == "psi2":
        amp = p2
    elif prep == "plus":
        amp = (p1 + 1j * p2) / np.sqrt(2.0)
    else:
        amp = (p1 - 1j * p2) / np.sqrt(2.0)
    amp = amp / np.sqrt(np.sum(np.abs(amp) ** 2) * config.dx)
    return SpinorField(x=config.x, dx=config.dx, up=amp, down=np.zeros_like(amp))


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

    return _run(config, prepare_beam_splitter(config, prep), n, seed, paths,
                gates)


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
