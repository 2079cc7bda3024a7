"""One-dimensional spinor wave-packet laboratory with guidance trajectories.

A two-component wave function evolves under a pair of decoupled Schrodinger
equations whose potentials are +/- mu*(b0 + b1*x) inside a time window
(the magnetic-gradient stage of a spin analyzer), plus an optional static
potential shared by both components (used for the beam-splitter barrier).
Particle positions follow the velocity field v = J/rho, so each run is a
deterministic map from the initial position x0 to a measurement outcome.

Numerics: Crank-Nicolson stepping per component on a uniform grid with
hard-wall boundaries (norm-preserving by construction); the tridiagonal
matrix of each potential is LU-factored once (LAPACK zgttrf) and every step
is one solve on those factors (zgttrs), both components share one
factorization when they see the same potential, and a component that is
identically zero at the start is not stepped.  Initial positions are
inverse-CDF samples from |psi(0)|^2 drawn with a seeded PCG64 generator, and
trajectories come from the 1-D quantile map x_t = F_t^-1(F_0(x0)).  Guidance
trajectories in one dimension never cross and keep the ensemble
|psi|^2-distributed, so the point that starts at quantile u of rho_0 sits at
quantile u of rho_t.  F_t is the cumulative density at cell edges; the
stepper conserves the midpoint edge current exactly, so F_t is the integral
of the flux it carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# perfbench/tracing.py wraps `bohm.solve_banded` by attribute name and fails
# if it is missing; the import stays until the tracer wraps the factored solve.
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import zgttrf, zgttrs

from . import ontology
from .qcore import DomainError

# Density threshold (relative to the frame maximum) below which v = J/rho and
# the local spin (|up|^2 - |down|^2)/rho are treated as undefined.
NODE_EPS_FACTOR = 1e-12
# |Sigma| must exceed 1 - SIGMA_RESOLVED at the final time to call an outcome.
SIGMA_RESOLVED = 1e-2

OUTCOME_PLUS = 1
OUTCOME_MINUS = -1
OUTCOME_UNRESOLVED = 0


class BohmError(ValueError):
    """Base error for the wave-packet laboratory."""


class ConfigError(BohmError):
    """Simulation configuration violates a validity or stability rule."""


class NodeEncountered(BohmError):
    """Velocity requested where the density is below the node threshold."""


@dataclass(frozen=True)
class SternGerlachConfig:
    """Grid, stepping, and field-profile parameters for one simulation."""

    x_min: float = -35.0
    x_max: float = 35.0
    cells: int = 1792
    dt: float = 1e-3
    t_final: float = 3.0
    hbar: float = 1.0
    mass: float = 1.0
    mu: float = 1.0
    b0: float = 0.0
    b1: float = -4.0
    t_on: float = 0.0
    t_off: float = 1.0
    packet_x0: float = 0.0
    packet_sigma: float = 1.0
    packet_k0: float = 0.0
    static_potential: np.ndarray | None = None

    def __post_init__(self):
        if self.cells < 64:
            raise ConfigError(f"need >= 64 cells, got {self.cells}")
        if self.x_max <= self.x_min:
            raise ConfigError("empty grid extent")
        if self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("dt and t_final must be positive")
        if self.n_steps < 1:
            raise ConfigError(
                f"t_final / dt = {self.t_final / self.dt:.3g} rounds to zero steps"
            )
        if self.t_on >= self.t_off:
            raise ConfigError("field window requires t_on < t_off")
        if self.packet_sigma <= 0:
            raise ConfigError("packet width must be positive")
        if self.static_potential is not None:
            v = np.asarray(self.static_potential, dtype=float)
            if v.shape != (self.cells,):
                raise ConfigError("static potential does not match the grid")
            object.__setattr__(self, "static_potential", v)
        # Accuracy guards for the implicit stepper (which is unconditionally
        # stable): reject grossly under-resolved stepping in space or in the
        # potential phase per step.
        if self.dt * self.hbar / (self.mass * self.dx**2) > 16.0:
            raise ConfigError("dt too large for this grid spacing")
        v_mag = self.mu * np.max(np.abs(self.b0 + self.b1 * self.x))
        if self.static_potential is not None:
            v_mag = max(v_mag, float(np.max(np.abs(self.static_potential))))
        if self.dt * v_mag / self.hbar > 0.5:
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
    t: float = 0.0

    def __post_init__(self):
        up = np.asarray(self.up, dtype=complex)
        down = np.asarray(self.down, dtype=complex)
        if up.shape != self.x.shape or down.shape != self.x.shape:
            raise BohmError("component arrays do not match the grid")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        if abs(self.norm() - 1.0) > 1e-8:
            raise BohmError(f"field not normalized: norm = {self.norm()!r}")

    def rho(self) -> np.ndarray:
        return np.abs(self.up) ** 2 + np.abs(self.down) ** 2

    def norm(self) -> float:
        return float(np.sum(self.rho()) * self.dx)


def gaussian_packet(x, dx, x0=0.0, sigma=1.0, k0=0.0) -> np.ndarray:
    """Discretely normalized Gaussian envelope with a plane-wave factor."""
    amp = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * dx)
    return amp


def prepare(config: SternGerlachConfig, theta: float) -> SpinorField:
    """Gaussian packet carrying the spinor cos(theta/2)*up + sin(theta/2)*down."""
    if not 0.0 <= theta <= np.pi:
        raise DomainError(f"preparation angle must lie in [0, pi], got {theta!r}")
    packet = gaussian_packet(
        config.x, config.dx, config.packet_x0, config.packet_sigma, config.packet_k0
    )
    return SpinorField(
        x=config.x,
        dx=config.dx,
        up=np.cos(theta / 2.0) * packet,
        down=np.sin(theta / 2.0) * packet,
        t=0.0,
    )


# ---------------------------------------------------------------------------
# Crank-Nicolson stepping
# ---------------------------------------------------------------------------


def _stepper(config: SternGerlachConfig, potential: np.ndarray):
    """Factor the tridiagonal LHS once; return the one-step propagator.

    The LHS 1 + i dt H / (2 hbar) is LU-factored by ``zgttrf`` here, and each
    step applies the RHS 1 - i dt H / (2 hbar) and solves on the stored
    factors with ``zgttrs``.
    """
    kin = config.hbar**2 / (2.0 * config.mass * config.dx**2)
    h_off = -kin
    h_diag = 2.0 * kin + potential
    z = 1j * config.dt / (2.0 * config.hbar)
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


def _component_potentials(config: SternGerlachConfig, field_on: bool):
    base = np.zeros(config.cells)
    if config.static_potential is not None:
        base = base + config.static_potential
    if not field_on:
        return base, base
    mag = config.mu * (config.b0 + config.b1 * config.x)
    return base + mag, base - mag


def _cn_steps(config: SternGerlachConfig, field0: SpinorField, steps: int):
    """The time-stepping loop: yield (up, down) after each of the steps.

    A component that is identically zero at the start stays so (a zero RHS
    solves to zero), so it is not stepped.
    """
    up, down = field0.up, field0.down
    live_up, live_down = up.any(), down.any()
    steppers = {}
    for n in range(steps):
        t_mid = field0.t + (n + 0.5) * config.dt
        on = config.t_on <= t_mid < config.t_off
        if on not in steppers:
            v_up, v_down = _component_potentials(config, on)
            s_up = _stepper(config, v_up)
            steppers[on] = (s_up, s_up if v_down is v_up else _stepper(config, v_down))
        if live_up:
            up = steppers[on][0](up)
        if live_down:
            down = steppers[on][1](down)
        yield up, down


def evolve(field0: SpinorField, config: SternGerlachConfig, steps: int) -> SpinorField:
    """Advance a field by the given number of time steps."""
    up, down = field0.up, field0.down
    for up, down in _cn_steps(config, field0, steps):
        pass
    return SpinorField(
        x=field0.x, dx=field0.dx, up=up, down=down, t=field0.t + steps * config.dt
    )


# ---------------------------------------------------------------------------
# Derived fields
# ---------------------------------------------------------------------------


def _edge_current(up, down, dx: float, hbar: float, mass: float) -> np.ndarray:
    """Current through the cells + 1 edges, summed over components.

    Interior edge k + 1/2 carries (hbar / (mass dx)) Im(conj(psi_k) psi_k+1);
    the hard walls carry none.
    """
    j = np.zeros(len(up) + 1)
    for a in (up, down):
        j[1:-1] += np.imag(np.conj(a[:-1]) * a[1:])
    return (hbar / (mass * dx)) * j


def density_current(field: SpinorField, hbar: float = 1.0, mass: float = 1.0):
    """Probability density and the cell-averaged edge current."""
    j = _edge_current(field.up, field.down, field.dx, hbar, mass)
    return field.rho(), 0.5 * (j[:-1] + j[1:])


def velocity(field: SpinorField, xq, hbar: float = 1.0, mass: float = 1.0):
    """Guidance velocity J/rho linearly interpolated to the query positions."""
    rho, j = density_current(field, hbar, mass)
    rho_q = np.interp(xq, field.x, rho)
    if np.any(rho_q < NODE_EPS_FACTOR * np.max(rho)):
        raise NodeEncountered(f"density below node threshold near x = {xq!r}")
    j_q = np.interp(xq, field.x, j)
    return j_q / rho_q


def quantum_potential(field: SpinorField, hbar: float = 1.0, mass: float = 1.0):
    """Per-component -hbar^2 |psi|'' / (2 M |psi|), NaN where |psi| is negligible."""
    out = []
    for comp in (field.up, field.down):
        a = np.abs(comp)
        lap = np.gradient(np.gradient(a, field.dx), field.dx)
        dens = a**2
        mask = dens < NODE_EPS_FACTOR * np.max(dens) if np.max(dens) > 0 else dens >= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(hbar**2) * lap / (2.0 * mass * a)
        q[mask] = np.nan
        out.append(q)
    return tuple(out)


def spin_projection(field: SpinorField, xq):
    """Local spin projection (|up|^2 - |down|^2) / rho at the query positions."""
    rho = field.rho()
    num = np.abs(field.up) ** 2 - np.abs(field.down) ** 2
    rho_q = np.interp(xq, field.x, rho)
    if np.any(rho_q < NODE_EPS_FACTOR * np.max(rho)):
        raise NodeEncountered(f"density below node threshold near x = {xq!r}")
    return np.clip(np.interp(xq, field.x, num) / rho_q, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Recorded evolutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionRecord:
    """Field history sampled every step: density and local spin.

    Spin entries are NaN where the density falls below the node threshold of
    their frame.  ``continuity`` holds, per step, the largest residual of the
    discrete conservation law (d_t rho + div J = 0) evaluated with the
    midpoint edge current that the implicit stepper conserves.
    """

    config: SternGerlachConfig
    times: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    norms: np.ndarray
    continuity: np.ndarray
    initial: SpinorField
    final: SpinorField


def _frame_arrays(up, down):
    up2, down2 = np.abs(up) ** 2, np.abs(down) ** 2
    rho = up2 + down2
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = (up2 - down2) / rho
    sig[rho < NODE_EPS_FACTOR * np.max(rho)] = np.nan
    return rho, np.clip(sig, -1.0, 1.0)


def _continuity_residual(config, up0, down0, up1, down1, rho0, rho1):
    """Discrete conservation residual over one step.

    Uses the edge current of the time-midpoint field, which is the current
    the implicit stepper conserves exactly; ``rho0``/``rho1`` are the
    densities of the two frames.
    """
    j = _edge_current(0.5 * (up0 + up1), 0.5 * (down0 + down1),
                      config.dx, config.hbar, config.mass)
    div = np.diff(j) / config.dx
    return float(np.max(np.abs((rho1 - rho0) / config.dt + div)))


def simulate(config: SternGerlachConfig, theta: float = 0.0,
             field0: SpinorField | None = None) -> EvolutionRecord:
    """Evolve a preparation over the full configured span, recording history."""
    if field0 is None:
        field0 = prepare(config, theta)
    n_steps = config.n_steps
    times = field0.t + config.dt * np.arange(n_steps + 1)
    rho = np.empty((n_steps + 1, config.cells))
    sig = np.empty_like(rho)
    cont = np.empty(n_steps)

    up, down = field0.up, field0.down
    rho[0], sig[0] = _frame_arrays(up, down)
    for k, (up1, down1) in enumerate(_cn_steps(config, field0, n_steps)):
        rho[k + 1], sig[k + 1] = _frame_arrays(up1, down1)
        cont[k] = _continuity_residual(config, up, down, up1, down1,
                                       rho[k], rho[k + 1])
        up, down = up1, down1

    final = SpinorField(x=config.x, dx=config.dx, up=up, down=down, t=times[-1])
    return EvolutionRecord(
        config=config, times=times, rho=rho, sigma=sig,
        norms=np.sum(rho, axis=1) * config.dx, continuity=cont,
        initial=field0, final=final,
    )


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Path of one configuration point, with its local spin record."""

    x0: float
    times: np.ndarray
    xs: np.ndarray
    sigmas: np.ndarray
    outcome: int | None


@dataclass
class EnsembleTrajectories:
    """Vectorized trajectory bundle over one recorded evolution."""

    times: np.ndarray
    x0: np.ndarray
    paths: np.ndarray | None
    final_x: np.ndarray
    final_sigma: np.ndarray
    outcomes: np.ndarray


def _edge_cdf(x, dx, rho):
    """Cell edges and the normalized cumulative density at them."""
    edges = np.concatenate(([x[0] - 0.5 * dx], x + 0.5 * dx))
    cdf = np.concatenate(([0.0], np.cumsum(rho) * dx))
    return edges, cdf / cdf[-1]


def integrate_ensemble(record: EvolutionRecord, x0s,
                       keep_paths: bool = False) -> EnsembleTrajectories:
    """Carry many initial points along the flow by the quantile map.

    The point starting at x0 sits at x_t = F_t^-1(F_0(x0)) at every recorded
    time; only the final frame is read unless ``keep_paths`` is set.
    """
    x0 = np.array(x0s, dtype=float)
    if x0.ndim != 1:
        raise DomainError("initial positions must form a 1-D sequence")
    grid, dx = record.config.x, record.config.dx
    edges, cdf = _edge_cdf(grid, dx, record.rho[0])
    u = np.interp(x0, edges, cdf)

    def position(k):
        edges, cdf = _edge_cdf(grid, dx, record.rho[k])
        return np.interp(u, cdf, edges)

    times = record.times
    paths = None
    if keep_paths:
        paths = np.array([position(k) for k in range(len(times))])
    final_x = position(-1) if paths is None else paths[-1]
    final_sigma = np.interp(final_x, grid, record.sigma[-1])
    outcomes = np.zeros(x0.shape, dtype=int)
    resolved = np.isfinite(final_sigma) & (
        np.abs(final_sigma) > 1.0 - SIGMA_RESOLVED
    )
    outcomes[resolved] = np.sign(final_sigma[resolved]).astype(int)
    return EnsembleTrajectories(
        times=times, x0=x0, paths=paths,
        final_x=final_x, final_sigma=final_sigma, outcomes=outcomes,
    )


def integrate_trajectories(record: EvolutionRecord, x0s) -> list[Trajectory]:
    """Full paths with their local spin record, one per initial point."""
    ens = integrate_ensemble(record, x0s, keep_paths=True)
    grid = record.config.x
    sigmas = np.array([
        np.interp(xs, grid, sig) for xs, sig in zip(ens.paths, record.sigma)
    ])
    return [
        Trajectory(
            x0=float(ens.x0[i]), times=record.times, xs=ens.paths[:, i],
            sigmas=sigmas[:, i],
            outcome=int(out) if out != OUTCOME_UNRESOLVED else None,
        )
        for i, out in enumerate(ens.outcomes)
    ]


def integrate_trajectory(x0: float, record: EvolutionRecord) -> Trajectory:
    """Single-point convenience wrapper keeping the full path."""
    return integrate_trajectories(record, [x0])[0]


def sample_initial(field0: SpinorField, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF samples from |psi(0)|^2 using a seeded PCG64 stream."""
    if n < 1:
        raise DomainError(f"need at least one sample, got n={n}")
    edges, cdf = _edge_cdf(field0.x, field0.dx, field0.rho())
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.interp(rng.random(n), cdf, edges)


# ---------------------------------------------------------------------------
# Ensembles and statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleStats:
    """Outcome tallies and estimators for one trajectory ensemble."""

    n: int
    n_plus: int
    n_minus: int
    n_unresolved: int
    p_plus: float
    p_minus: float
    e_sigma: float
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
    resolved = max(n_plus + n_minus, 1)
    p_plus = n_plus / resolved
    return EnsembleStats(
        n=n, n_plus=n_plus, n_minus=n_minus, n_unresolved=n_unres,
        p_plus=p_plus, p_minus=1.0 - p_plus, e_sigma=2.0 * p_plus - 1.0,
        seed=seed, valid=n_unres <= 0.01 * n,
    )


def run_ensemble(config: SternGerlachConfig, theta: float, n: int,
                 seed: int) -> EnsembleStats:
    """Prepare, evolve, and integrate n sampled trajectories; tally outcomes."""
    record = simulate(config, theta)
    x0s = sample_initial(record.initial, n, seed)
    ens = integrate_ensemble(record, x0s)
    return _stats_from_outcomes(ens.outcomes, seed)


def ks_distance(samples: np.ndarray, field: SpinorField) -> float:
    """Kolmogorov-Smirnov distance of samples against the field's |psi|^2."""
    edges, cdf = _edge_cdf(field.x, field.dx, field.rho())
    s = np.sort(np.asarray(samples, dtype=float))
    model = np.interp(s, edges, cdf)
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


def beam_splitter_config(barrier_height: float = BARRIER_HEIGHT,
                         t_final: float = 4.0) -> SternGerlachConfig:
    """Scene geometry: two counter-propagating packets meeting a thin barrier."""
    cells = 1024
    x = -20.0 + (np.arange(cells) + 0.5) * (40.0 / cells)
    barrier = barrier_height * np.exp(-(x**2) / (2.0 * BARRIER_WIDTH**2))
    return SternGerlachConfig(
        x_min=-20.0, x_max=20.0, cells=cells, dt=1e-3, t_final=t_final,
        mu=0.0, t_on=0.0, t_off=1e-6,
        static_potential=barrier,
    )


def prepare_beam_splitter(config: SternGerlachConfig, prep: str,
                          separation: float = 8.5, sigma: float = 1.5,
                          k0: float = 5.0) -> SpinorField:
    """Initial field for one of the four scene preparations.

    psi1 travels rightward from -separation, psi2 leftward from +separation;
    plus and minus are the phased superpositions (psi1 +/- i psi2)/sqrt(2).
    """
    if prep not in BS_PREPS:
        raise DomainError(f"unknown preparation {prep!r}; expected one of {BS_PREPS}")
    p1 = gaussian_packet(config.x, config.dx, -separation, sigma, k0)
    p2 = gaussian_packet(config.x, config.dx, separation, sigma, -k0)
    if prep == "psi1":
        amp = p1
    elif prep == "psi2":
        amp = p2
    elif prep == "plus":
        amp = (p1 + 1j * p2) / np.sqrt(2.0)
    else:
        amp = (p1 - 1j * p2) / np.sqrt(2.0)
    amp = amp / np.sqrt(np.sum(np.abs(amp) ** 2) * config.dx)
    return SpinorField(
        x=config.x, dx=config.dx, up=amp, down=np.zeros_like(amp), t=0.0
    )


@dataclass(frozen=True)
class BeamSplitterResult:
    """Gate tallies and trajectory endpoints for one scene run."""

    prep: str
    n: int
    gate3: int
    gate4: int
    n_unresolved: int
    seed: int
    valid: bool
    x0: np.ndarray
    final_x: np.ndarray
    record: EvolutionRecord

    def p_gate3(self) -> float:
        resolved = max(self.gate3 + self.gate4, 1)
        return self.gate3 / resolved


def beam_splitter_scene(prep: str, n: int, seed: int,
                        config: SternGerlachConfig | None = None) -> BeamSplitterResult:
    """Run one preparation through the crossing region and classify exits.

    Gate 3 is the +x side of the barrier, gate 4 the -x side, read off from
    the sign of the final trajectory position.
    """
    if config is None:
        config = beam_splitter_config()
    field0 = prepare_beam_splitter(config, prep)
    record = simulate(config, field0=field0)
    x0s = sample_initial(field0, n, seed)
    ens = integrate_ensemble(record, x0s)
    resolved = np.abs(ens.final_x) > 2.0 * BARRIER_WIDTH
    gate3 = int(np.sum(resolved & (ens.final_x > 0)))
    gate4 = int(np.sum(resolved & (ens.final_x < 0)))
    n_unres = n - gate3 - gate4
    return BeamSplitterResult(
        prep=prep, n=n, gate3=gate3, gate4=gate4, n_unresolved=n_unres,
        seed=seed, valid=n_unres <= 0.01 * n, x0=ens.x0, final_x=ens.final_x,
        record=record,
    )


def transmitted_mass(record: EvolutionRecord) -> float:
    """Fraction of the final density on the +x side (calibration helper)."""
    x = record.config.x
    return float(np.sum(record.rho[-1][x > 0]) * record.config.dx)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

# Support cutoff (relative to max density) for the exported hidden-variable
# space: looser than the node threshold so every exported cell carries a
# trajectory that stays numerically resolved.
EXPORT_SUPPORT_EPS = 1e-9


def bohm_ont_model(thetas=(np.pi / 3, np.pi / 2),
                   config: SternGerlachConfig | None = None,
                   context: str = "spin-z") -> ontology.OntModel:
    """View the simulator as a finite hidden-variable model.

    The hidden variable is the initial-position cell; each preparation angle
    shares the same spatial density but gets its own deterministic response
    column, read off from the trajectory launched at the cell center and
    classified by the sign of its final position.
    """
    if config is None:
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
    tables = {}
    for theta in thetas:
        label = f"theta={theta:.6f}"
        preparations[label] = ontology.PreparationDensity(
            space=space, label=label, values=values.copy()
        )
        record = simulate(config, theta)
        ens = integrate_ensemble(record, centers)
        plus = ens.final_x > 0
        table = np.zeros((2, len(cells)))
        table[0, plus] = 1.0
        table[1, ~plus] = 1.0
        tables[(label, context)] = table

    response = ontology.ContextualResponse(outcomes=("+", "-"), tables=tables)
    return ontology.OntModel(space, preparations, response, product_arity=1)


def trajectories_to_csv(trajs) -> str:
    """CSV dump of trajectory bundles: one row per (trajectory, time)."""
    lines = ["traj_id,t,x,sigma"]
    for tid, tr in enumerate(trajs):
        for t, x, s in zip(tr.times, tr.xs, tr.sigmas):
            lines.append("%d,%.15g,%.15g,%.15g" % (tid, t, x, s))
    return "\n".join(lines) + "\n"


def field_to_csv(field: SpinorField) -> str:
    """CSV snapshot of both components on the grid."""
    lines = ["x,re_up,im_up,re_down,im_down"]
    for k in range(len(field.x)):
        lines.append(
            "%.15g,%.15g,%.15g,%.15g,%.15g"
            % (field.x[k], field.up[k].real, field.up[k].imag,
               field.down[k].real, field.down[k].imag)
        )
    return "\n".join(lines) + "\n"
