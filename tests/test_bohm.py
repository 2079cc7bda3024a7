import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from psilab import bohm, nogo, ontology as ont, svgplot
from psilab.ontology import PsiClass
from psilab.qcore import DomainError


@pytest.fixture(scope="module")
def default_config():
    return bohm.SternGerlachConfig()


@pytest.fixture(scope="module")
def record_half(default_config):
    """Default analyzer run for the equal superposition."""
    return bohm.simulate(default_config, theta=np.pi / 2)


def packet_sigma(rho, x, dx):
    mean = np.sum(rho * x) * dx
    return np.sqrt(np.sum(rho * (x - mean) ** 2) * dx - 0.0), mean


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(cells=32)
        with pytest.raises(bohm.ConfigError, match="integer"):
            bohm.SternGerlachConfig(cells=100.5)  # simulate needs an integer
        assert bohm.SternGerlachConfig(cells=np.int64(1024)).cells == 1024
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(dt=-1.0)
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(x_min=5.0, x_max=-5.0)
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(dt=0.5)  # grid-spacing accuracy guard
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(b1=1e4)  # potential-phase accuracy guard
        with pytest.raises(bohm.ConfigError, match="zero steps"):
            bohm.SternGerlachConfig(t_final=1e-4)  # rounds to 0 steps of 1e-3
        for t_final in (0.0015, 3.0004, 1e-4 + 1.0):  # 1.5, 3000.4, 1000.1 steps
            with pytest.raises(bohm.ConfigError, match="whole number"):
                bohm.SternGerlachConfig(t_final=t_final)
        for dt, t_final in ((1e-3, 3.0), (1e-3, 0.3), (2e-3, 2.5), (1e-3, 4.0),
                            (1e-3, 1.5), (1e-3, 0.128)):
            cfg = bohm.SternGerlachConfig(dt=dt, t_final=t_final)
            assert cfg.n_steps * dt == pytest.approx(t_final, rel=1e-12)
        for key in ("x_min", "x_max", "dt", "t_final", "b1"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(bohm.ConfigError, match="finite"):
                    bohm.SternGerlachConfig(**{key: bad})
        barrier = np.zeros(1792)
        barrier[7] = np.nan
        with pytest.raises(bohm.ConfigError, match="finite"):
            bohm.SternGerlachConfig(static_potential=barrier)
        with pytest.raises(bohm.ConfigError, match="real"):
            bohm.SternGerlachConfig(static_potential=np.full(1792, 0.1 + 0.2j))

    def test_grid_metadata(self, default_config):
        cfg = default_config
        assert cfg.x.shape == (cfg.cells,)
        assert cfg.dx == pytest.approx((cfg.x_max - cfg.x_min) / cfg.cells)
        assert cfg.n_steps == 3000

    def test_prepare_angles(self, default_config):
        f = bohm.prepare(default_config, np.pi / 3)
        assert abs(f.norm() - 1.0) < 1e-12
        up_mass = np.sum(np.abs(f.up) ** 2) * f.dx
        assert up_mass == pytest.approx(np.cos(np.pi / 6) ** 2, abs=1e-12)
        with pytest.raises(DomainError):
            bohm.prepare(default_config, -0.1)
        packet = bohm.gaussian_packet(f.x, f.dx, 2.0, 1.5, -1.0)
        g = bohm.prepare(default_config, np.pi / 3, packet)
        assert np.array_equal(g.up, np.cos(np.pi / 6) * packet)
        assert np.array_equal(g.down, np.sin(np.pi / 6) * packet)

    def test_nan_field_rejected(self, default_config):
        f = bohm.prepare(default_config, 0.0)
        up = f.up.copy()
        up[100] = np.nan
        with pytest.raises(bohm.BohmError, match="not normalized"):
            bohm.SpinorField(x=f.x, dx=f.dx, up=up, down=f.down)


class TestEvolution:
    def test_free_gaussian_spreading(self):
        """Packet width against the closed-form free-spreading law."""
        cfg = bohm.SternGerlachConfig(
            x_min=-20.0, x_max=20.0, cells=4096, dt=1e-3, t_final=2.0, b1=0.0
        )
        rec = bohm.simulate(cfg, theta=0.0)
        sig, _ = packet_sigma(rec.final.rho(), cfg.x, cfg.dx)
        sig0 = bohm.PACKET_SIGMA  # hbar = m = 1
        sig_exact = sig0 * np.sqrt(1.0 + (cfg.t_final / (2.0 * sig0**2)) ** 2)
        assert abs(sig / sig_exact - 1.0) < 1e-4

    def test_uniform_field_is_global_phase(self):
        """A spatially constant potential only adds a phase to free evolution."""
        cfg_0 = bohm.SternGerlachConfig(b1=0.0, t_final=0.1)
        cfg_v = bohm.SternGerlachConfig(b1=0.0, t_final=0.1,
                                        static_potential=np.full(cfg_0.cells, 2.0))
        rec = bohm.simulate(cfg_v, 0.0)
        f_v = rec.final
        f_0 = bohm.simulate(cfg_0, 0.0).final
        assert rec.times[-1] == pytest.approx(0.1)
        assert np.max(np.abs(np.abs(f_v.up) - np.abs(f_0.up))) < 1e-7

    def test_ehrenfest_acceleration(self):
        """Mean position of the up component under the linear gradient."""
        cfg = bohm.SternGerlachConfig(
            x_min=-20.0, x_max=20.0, cells=4096, dt=1e-3, t_final=1.0
        )
        rec = bohm.simulate(cfg, theta=np.pi / 2)
        rho_up = np.abs(rec.final.up) ** 2
        rho_up = rho_up / (np.sum(rho_up) * cfg.dx)
        mean = np.sum(rho_up * cfg.x) * cfg.dx
        expected = 0.5 * -cfg.b1 * cfg.t_final**2  # acceleration -mu b1 / m
        assert abs(mean / expected - 1.0) < 1e-3

    def test_norm_conservation(self, record_half):
        assert np.max(np.abs(record_half.norms - 1.0)) < 1e-8

    def test_continuity_residual(self):
        cfg = bohm.SternGerlachConfig(x_min=-20.0, x_max=20.0, cells=1024)
        rec = bohm.simulate(cfg, theta=np.pi / 2)
        assert np.max(rec.continuity) < 1e-4


def banded_reference_step(config, potential):
    """Crank-Nicolson step solved from scratch with the banded LU each step."""
    kin = 1.0 / (2.0 * config.dx**2)
    z = 1j * config.dt / 2.0
    h_diag = 2.0 * kin + potential
    lhs = np.zeros((3, config.cells), dtype=complex)
    lhs[0, 1:] = -z * kin
    lhs[1, :] = 1.0 + z * h_diag
    lhs[2, :-1] = -z * kin

    def step(psi):
        rhs = (1.0 - z * h_diag) * psi
        rhs[:-1] += z * kin * psi[1:]
        rhs[1:] += z * kin * psi[:-1]
        return solve_banded((1, 1), lhs, rhs)

    return step


def reference_diagnostics(config, theta):
    """rho, sigma, norms and continuity of ``simulate`` at ``theta`` on two
    evolutions: the packet P stepped under +b1 x as U and under -b1 x as D,
    both evaluated even at a zero amplitude, with the densities
    cos^2(theta/2) |U|^2 and sin^2(theta/2) |D|^2, and the norms and largest
    residuals of U and D summed at the weights cos^2 and sin^2."""
    dx, dt = config.dx, config.dt
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    weights = (c * c, s * s)

    def frame(u, d):
        up2, down2 = weights[0] * np.abs(u) ** 2, weights[1] * np.abs(d) ** 2
        rho = up2 + down2
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = (up2 - down2) / rho
        sig[rho < bohm.NODE_EPS_FACTOR * np.max(rho)] = np.nan
        return rho, np.clip(sig, -1.0, 1.0)

    def residual(b0, b1):
        j = np.zeros(config.cells + 1)
        mid = 0.5 * (b0 + b1)
        j[1:-1] += np.imag(np.conj(mid[:-1]) * mid[1:])
        j *= 1.0 / dx
        rho0, rho1 = np.abs(b0) ** 2, np.abs(b1) ** 2
        return float(np.max(np.abs((rho1 - rho0) / dt + np.diff(j) / dx)))

    def norm(bases):
        return sum(w * np.sum(np.abs(b) ** 2) for w, b in zip(weights, bases)) * dx

    packet = bohm.prepare(config, 0.0).up
    prev = (packet, packet)
    rho, sig = frame(*prev)
    rhos, sigs, norms, cont = [rho], [sig], [norm(prev)], []
    for bases in bohm._cn_steps(config, (1, -1), prev, config.n_steps):
        rho, sig = frame(*bases)
        norms.append(norm(bases))
        cont.append(sum(w * residual(b0, b1)
                        for w, b0, b1 in zip(weights, prev, bases)))
        rhos.append(rho)
        sigs.append(sig)
        prev = bases
    return np.array(rhos), np.array(sigs), np.array(norms), np.array(cont)


def reference_paths(config, rho0, rho, sigma, x0):
    """The quantile map over a full per-frame history: (frames, points)
    positions F_t^-1(F_0(x0)), F_0 the cumulative ``rho0`` (the prepared
    field's density), and the local spin interpolated there."""
    edges = np.concatenate(([config.x[0] - 0.5 * config.dx],
                            config.x + 0.5 * config.dx))

    def cdf(r):
        c = np.concatenate(([0.0], np.cumsum(r) * config.dx))
        return c / c[-1]

    u = np.interp(x0, edges, cdf(rho0))
    xs = np.array([np.interp(u, cdf(r), edges) for r in rho])
    sigmas = np.array([np.interp(x, config.x, s) for x, s in zip(xs, sigma)])
    return xs, sigmas


def uneven_potential_config(**fields):
    """The analyzer (default fields but ``fields``) with a static step at
    x = 5, which the mirror x -> -x does not map onto itself."""
    grid = bohm.SternGerlachConfig()
    return bohm.SternGerlachConfig(
        static_potential=np.where(grid.x > 5.0, 0.2, 0.0), **fields)


class TestStepper:
    @pytest.mark.parametrize("theta", [0.0, 1.0], ids=["down", "none"])
    def test_zero_component_diagnostics_match_reference(self, monkeypatch,
                                                        theta):
        """Where no mirror is used, the streamed record equals the full
        per-frame history reduced afterwards, with the zero down component's
        density and current skipped (theta = 0) or both components live.
        Each live component is its amplitude times its own basis field, so
        the norms and residuals are summed per basis at amplitude^2."""
        monkeypatch.setattr(bohm, "_mirrored", lambda *args: False)
        cfg = bohm.SternGerlachConfig(t_final=0.3)
        field0 = bohm.prepare(cfg, theta)
        x0 = bohm.sample_initial(field0, 8, seed=4)
        rec = bohm.simulate(cfg, theta, points=x0)
        rho, sigma, norms, continuity = reference_diagnostics(cfg, theta)
        xs, sigmas = reference_paths(cfg, field0.rho(), rho, sigma, x0)
        got = (rec.norms, rec.continuity, rec.paths_x, rec.paths_sigma)
        for a, b in zip(got, (norms, continuity, xs, sigmas)):
            assert np.array_equal(a, b, equal_nan=True)
        assert rec.paths_x.shape == (cfg.n_steps + 1, 8)
        if theta == 0.0:
            assert not rec.final.down.any()

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2], ids=["down", "none"])
    @pytest.mark.parametrize("frames", [bohm.PATH_BLOCK - 1, bohm.PATH_BLOCK,
                                        bohm.PATH_BLOCK + 1,
                                        2 * bohm.PATH_BLOCK + 1])
    def test_blocked_path_map_matches_reference(self, monkeypatch, frames,
                                                theta):
        """Tracked points mapped a block of frames at a time equal the
        per-frame quantile map over the full history, with the last block
        short, full or holding one frame."""
        monkeypatch.setattr(bohm, "_mirrored", lambda *args: False)
        cfg = bohm.SternGerlachConfig(t_final=(frames - 1) * 1e-3)
        field0 = bohm.prepare(cfg, theta)
        x0 = bohm.sample_initial(field0, 8, seed=4)
        rec = bohm.simulate(cfg, theta, points=x0)
        rho, sigma, *_ = reference_diagnostics(cfg, theta)
        xs, sigmas = reference_paths(cfg, field0.rho(), rho, sigma, x0)
        assert rec.paths_x.shape == (frames, 8)
        assert np.array_equal(rec.paths_x, xs, equal_nan=True)
        assert np.array_equal(rec.paths_sigma, sigmas, equal_nan=True)

    def test_record_keeps_no_frame_history(self, record_half):
        """Without tracked points the record holds O(cells + steps) bytes
        (0.24 MB at the default grid), not a (frames, cells) array."""
        nbytes = sum(
            v.nbytes
            for obj in (record_half, record_half.initial, record_half.final)
            for v in vars(obj).values() if isinstance(v, np.ndarray)
        )
        assert nbytes < 1e6
        assert record_half.paths_x.shape == (len(record_half.times), 0)

    @pytest.mark.parametrize("scene,field_on,component", [
        ("sg", True, 0), ("sg", True, 1), ("sg", False, 0), ("bs", True, 0),
        ("bs", False, 0),
    ])
    def test_factored_step_matches_banded_solve(self, scene, field_on, component):
        if scene == "sg":
            cfg = bohm.SternGerlachConfig()
            psi = bohm.prepare(cfg, np.pi / 2).up
        else:
            cfg = bohm.beam_splitter_config()
            psi = bohm.prepare_beam_splitter(cfg, "plus")
        potential = bohm._potential(cfg, (1, -1)[component] if field_on else 0)
        step = bohm._stepper(cfg, potential)
        reference = banded_reference_step(cfg, potential)
        a = b = psi
        for _ in range(200):
            a, b = step(a), reference(b)
            assert np.max(np.abs(a - b)) <= 1e-14

    @pytest.mark.parametrize("prep", bohm.BS_PREPS)
    def test_beam_splitter_down_stays_zero(self, prep):
        cfg = bohm.beam_splitter_config()
        rec = bohm.simulate(cfg, 0.0, bohm.prepare_beam_splitter(cfg, prep))
        assert not rec.final.down.any()

    def test_spin_up_down_stays_zero(self, default_config):
        rec = bohm.simulate(default_config, 0.0)
        assert not rec.final.down.any()

    def test_failed_factorization_raises(self, monkeypatch):
        zgttrf = bohm.zgttrf

        def singular(*args, **kwargs):
            *factors, _ = zgttrf(*args, **kwargs)
            return (*factors, 5)

        monkeypatch.setattr(bohm, "zgttrf", singular)
        with pytest.raises(bohm.BohmError, match="info = 5"):
            bohm.simulate(bohm.SternGerlachConfig(t_final=0.01), 0.0)

    def test_one_factorization_per_distinct_potential(self, monkeypatch):
        """The analyzer factors +b1 x and the field-off potential: on the
        default grid the down component is the up evolution mirrored, so
        -b1 x is never factored.  The beam splitter (b1 = 0) sees one
        potential throughout.  Where a mirror check fails (x != -x[::-1] in
        floating point at 1000 cells, or a static potential that is not
        even) the analyzer factors -b1 x as well."""
        zgttrf, calls = bohm.zgttrf, []

        def counting(*args, **kwargs):
            calls.append(1)
            return zgttrf(*args, **kwargs)

        monkeypatch.setattr(bohm, "zgttrf", counting)
        bohm.beam_splitter_scene("plus", 10, seed=1)
        assert len(calls) == 1
        bohm.simulate(bohm.SternGerlachConfig(), np.pi / 2)
        assert len(calls) == 3
        bohm.simulate(bohm.SternGerlachConfig(), 0.0)
        assert len(calls) == 5
        bohm.simulate(bohm.SternGerlachConfig(cells=1000), np.pi / 2)
        assert len(calls) == 8
        bohm.simulate(uneven_potential_config(), np.pi / 2)
        assert len(calls) == 11

    @pytest.mark.parametrize("config, per_step", [
        (bohm.SternGerlachConfig(), 1),
        (bohm.SternGerlachConfig(cells=1000, t_final=0.1), 2),
        (uneven_potential_config(t_final=0.1), 2),
    ], ids=["default", "cells-1000", "uneven-potential"])
    def test_mirror_halves_the_solves(self, monkeypatch, config, per_step):
        """Both components of the default analyzer cost one solve per step
        (3000 in all), and two per step where a mirror check fails."""
        zgttrs, calls = bohm.zgttrs, []

        def counting(*args, **kwargs):
            calls.append(1)
            return zgttrs(*args, **kwargs)

        monkeypatch.setattr(bohm, "zgttrs", counting)
        bohm.simulate(config, np.pi / 2)
        assert len(calls) == per_step * config.n_steps

    @pytest.mark.parametrize("theta", [np.pi / 2, 1.0])
    def test_mirrored_evolution_matches_two_evolutions(self, monkeypatch,
                                                       theta):
        """The angle read off one mirrored evolution agrees with the same
        run with the mirror check failed, which steps the packet under
        +b1 x and -b1 x separately."""
        cfg = bohm.SternGerlachConfig(t_final=0.3)
        x0 = bohm.sample_initial(bohm.prepare(cfg, theta), 8, seed=4)
        rec = bohm.simulate(cfg, theta, points=x0)
        monkeypatch.setattr(bohm, "_mirrored", lambda *args: False)
        ref = bohm.simulate(cfg, theta, points=x0)
        peak = np.max(np.abs(bohm.prepare(cfg, 0.0).up))
        for comp in ("up", "down"):
            diff = getattr(rec.final, comp) - getattr(ref.final, comp)
            assert np.max(np.abs(diff)) <= 1e-12 * peak
        assert np.max(np.abs(rec.paths_x - ref.paths_x)) <= 1e-9
        assert np.max(np.abs(rec.norms - ref.norms)) <= 1e-12
        assert np.max(np.abs(rec.continuity - ref.continuity)) <= 1e-12
        assert np.array_equal(np.isnan(rec.paths_sigma),
                              np.isnan(ref.paths_sigma))

    def test_mirrored_run_outcomes_match_two_evolutions(self, monkeypatch,
                                                        default_config):
        """All N = 10^4 outcomes of the one-evolution run equal those read
        off the two-evolution reference."""
        run = bohm.run_ensemble(default_config, np.pi / 2, 10_000, seed=1)
        monkeypatch.setattr(bohm, "_mirrored", lambda *args: False)
        ref = bohm.simulate(default_config, np.pi / 2)
        got = bohm.integrate_ensemble(run.record, run.x0).outcomes
        assert np.array_equal(got, bohm.integrate_ensemble(ref, run.x0).outcomes)

    @pytest.mark.parametrize("theta", [np.pi / 2, 1.0, 2.0])
    def test_stepped_fields_do_not_depend_on_theta(self, theta):
        """Off the mirror (x != -x[::-1] in floating point at 1000 cells) the
        packet is stepped at amplitude 1 under each potential, so each final
        component is its amplitude times that of the pure run, exactly."""
        cfg = bohm.SternGerlachConfig(cells=1000, t_final=0.1)
        assert not bohm._mirrored(cfg, bohm.prepare(cfg, 0.0).up)
        rec = bohm.simulate(cfg, theta)
        up = bohm.simulate(cfg, 0.0).final.up
        down = bohm.simulate(cfg, np.pi).final.down
        assert np.array_equal(rec.final.up, np.cos(theta / 2.0) * up)
        assert np.array_equal(rec.final.down, np.sin(theta / 2.0) * down)

    def test_one_evolution_one_residual(self, default_config, record_half):
        """The mirrored pi/2 run reduces the one packet evolution that the
        theta = 0 run steps, at weight cos^2 + sin^2, so its norms and
        continuity residuals are that run's."""
        ref = bohm.simulate(default_config, 0.0)
        for got, want in ((record_half.norms, ref.norms),
                          (record_half.continuity, ref.continuity)):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def local_spin(field):
    """The local spin the record's paths and ensembles read off a field."""
    up2, down2 = np.abs(field.up) ** 2, np.abs(field.down) ** 2
    return bohm._local_spin(up2 - down2, up2 + down2)


def cell_current(field, cfg):
    """The stepper's edge current averaged onto the cell centers."""
    j = sum(bohm._edge_current(c, cfg.dx) for c in (field.up, field.down))
    return 0.5 * (j[:-1] + j[1:])


def moving_field(cfg, theta):
    """The prepared spinor with the packet moving at wave number 2."""
    packet = bohm.gaussian_packet(cfg.x, cfg.dx, 0.0, bohm.PACKET_SIGMA, 2.0)
    return bohm.SpinorField(x=cfg.x, dx=cfg.dx, up=np.cos(theta / 2.0) * packet,
                            down=np.sin(theta / 2.0) * packet)


class TestDerivedFields:
    def test_current_zero_for_real_packet(self, default_config):
        f = bohm.prepare(default_config, np.pi / 2)
        j = cell_current(f, default_config)
        assert np.max(np.abs(j)) < 1e-12

    def test_current_plane_wave_factor(self):
        # Fine grid keeps the central-difference dispersion error below tol.
        cfg = bohm.SternGerlachConfig(x_min=-10.0, x_max=10.0, cells=2048)
        f = moving_field(cfg, np.pi / 2)
        rho, j = f.rho(), cell_current(f, cfg)
        bulk = np.abs(cfg.x) < 3.0
        assert np.max(np.abs(j[bulk] / rho[bulk] - 2.0)) < 1e-3

    def test_velocity_values_and_node(self, default_config, record_half):
        """J/rho of the edge current; a node is NaN in the record."""
        f_rest = bohm.prepare(default_config, 0.0)
        v_rest = cell_current(f_rest, default_config) / f_rest.rho()
        assert abs(np.interp(0.3, default_config.x, v_rest)) < 1e-10
        cfg = bohm.SternGerlachConfig(x_min=-10.0, x_max=10.0, cells=2048)
        f_mov = moving_field(cfg, 0.0)
        v_mov = cell_current(f_mov, cfg) / f_mov.rho()
        assert np.interp(0.0, cfg.x, v_mov) == pytest.approx(2.0, abs=1e-3)
        assert np.isnan(np.interp(30.0, default_config.x,
                                  local_spin(record_half.initial)))

    def test_velocity_against_phase_gradient(self):
        """Two-packet interference region versus an unwrapped-phase oracle."""
        cfg = bohm.SternGerlachConfig(x_min=-20.0, x_max=20.0, cells=4096, b1=0.0)
        a = bohm.gaussian_packet(cfg.x, cfg.dx, -1.0, 1.0, 1.5)
        b = bohm.gaussian_packet(cfg.x, cfg.dx, 1.0, 1.0, -1.5)
        amp = (a + 1j * b) / np.sqrt(np.sum(np.abs(a + 1j * b) ** 2) * cfg.dx)
        f = bohm.SpinorField(x=cfg.x, dx=cfg.dx, up=amp, down=np.zeros_like(amp))
        xs = np.linspace(-2.0, 2.0, 41)
        v = np.interp(xs, cfg.x, cell_current(f, cfg)) / np.interp(xs, cfg.x, f.rho())
        phase = np.unwrap(np.angle(amp))
        v_oracle = np.interp(xs, cfg.x, np.gradient(phase, cfg.dx))
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v - v_oracle)) < 0.02 * np.max(np.abs(v))

    def test_spin_projection(self, default_config, record_half):
        """The recorded local spin (|up|^2 - |down|^2) / rho."""
        f_up = bohm.prepare(default_config, 0.0)
        sig_up = local_spin(f_up)
        assert np.interp(0.7, default_config.x, sig_up) == pytest.approx(1.0)
        initial = local_spin(record_half.initial)
        assert abs(np.interp(0.2, default_config.x, initial)) < 1e-12
        # After separation the upper packet carries Sigma = +1.
        final = local_spin(record_half.final)
        assert np.interp(10.0, default_config.x, final) > 1.0 - 1e-2
        assert np.interp(-10.0, default_config.x, final) < -1.0 + 1e-2


class TestSampling:
    def test_narrow_density_concentrates_samples(self):
        cfg = bohm.SternGerlachConfig()
        packet = bohm.gaussian_packet(cfg.x, cfg.dx, 0.0, 0.05, 0.0)
        f = bohm.SpinorField(x=cfg.x, dx=cfg.dx, up=packet, down=np.zeros_like(packet))
        xs = bohm.sample_initial(f, 500, seed=3)
        assert np.max(np.abs(xs)) < 0.05 * 6

    def test_ks_against_initial_density(self, default_config):
        f = bohm.prepare(default_config, 0.0)
        n = 4000
        xs = bohm.sample_initial(f, n, seed=9)
        assert bohm.ks_distance(xs, f) < 1.63 / np.sqrt(n)

    def test_seed_determinism(self, default_config):
        f = bohm.prepare(default_config, 0.0)
        a = bohm.sample_initial(f, 100, seed=42)
        b = bohm.sample_initial(f, 100, seed=42)
        assert np.array_equal(a, b)
        c = bohm.sample_initial(f, 100, seed=43)
        assert not np.array_equal(a, c)

    def test_zero_samples_rejected(self, default_config):
        f = bohm.prepare(default_config, 0.0)
        with pytest.raises(DomainError):
            bohm.sample_initial(f, 0, seed=1)

    @pytest.mark.parametrize("n, seed", [(2.5, 1), (3, 1.5), ("3", 1),
                                         (3, None)],
                             ids=["fractional_n", "fractional_seed", "text_n",
                                  "no_seed"])
    def test_non_integer_n_or_seed_rejected(self, default_config, n, seed):
        f = bohm.prepare(default_config, 0.0)
        with pytest.raises(DomainError, match="non-integer"):
            bohm.sample_initial(f, n, seed=seed)

    @pytest.mark.parametrize("samples", [[], [0.1, np.nan], [np.inf]],
                             ids=["empty", "nan", "inf"])
    def test_ks_distance_rejects_empty_or_non_finite(self, default_config,
                                                     samples):
        f = bohm.prepare(default_config, 0.0)
        with pytest.raises(DomainError, match="finite"):
            bohm.ks_distance(samples, f)

    @pytest.mark.parametrize("shape", [(5, 5), (2, 5), ()],
                             ids=["square", "two_rows", "scalar"])
    def test_ks_distance_rejects_samples_not_1d(self, default_config, shape):
        """A (5, 5) array would read as 25 samples sorted per row, and a
        (2, 5) one would not broadcast against its 5 empirical steps."""
        f = bohm.prepare(default_config, 0.0)
        samples = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
        with pytest.raises(DomainError, match="1-D"):
            bohm.ks_distance(samples, f)

    def test_negative_seed_rejected(self, default_config):
        """PCG64 takes no negative seed; the domain check says so first."""
        f = bohm.prepare(default_config, 0.0)
        with pytest.raises(DomainError, match="seed"):
            bohm.sample_initial(f, 10, seed=-1)


class TestTrajectories:
    def test_spin_up_all_plus(self, default_config):
        rec = bohm.simulate(default_config, theta=0.0)
        xs = bohm.sample_initial(rec.initial, 200, seed=2)
        ens = bohm.integrate_ensemble(rec, xs)
        assert np.all(ens.outcomes == bohm.OUTCOME_PLUS)
        assert np.all(ens.final_x > 0)

    def test_median_splits_outcomes(self, record_half):
        """1-D no-crossing: the packet median separates the two exits."""
        xs = np.linspace(-2.0, 2.0, 81)
        ens = bohm.integrate_ensemble(record_half, xs)
        assert np.all(ens.outcomes[xs > 1e-9] == bohm.OUTCOME_PLUS)
        assert np.all(ens.outcomes[xs < -1e-9] == bohm.OUTCOME_MINUS)

    def test_no_crossing(self, record_half):
        xs = bohm.sample_initial(record_half.initial, 500, seed=13)
        ens = bohm.integrate_ensemble(record_half, xs)
        order = np.argsort(xs)
        assert np.all(np.diff(ens.final_x[order]) > -1e-9)

    def test_final_sigma_near_unit(self, record_half):
        xs = bohm.sample_initial(record_half.initial, 500, seed=13)
        ens = bohm.integrate_ensemble(record_half, xs)
        resolved = ens.outcomes != bohm.OUTCOME_UNRESOLVED
        assert np.mean(resolved) > 0.99
        assert np.all(np.abs(np.abs(ens.final_sigma[resolved]) - 1.0) < 1e-2)

    def test_halved_dt_convergence(self, default_config, record_half):
        cfg = bohm.SternGerlachConfig(dt=5e-4)
        rec_fine = bohm.simulate(cfg, theta=np.pi / 2)
        xs = bohm.sample_initial(record_half.initial, 100, seed=21)
        coarse = bohm.integrate_ensemble(record_half, xs)
        fine = bohm.integrate_ensemble(rec_fine, xs)
        assert np.max(np.abs(coarse.final_x - fine.final_x)) < 1e-3

    def test_single_trajectory_wrapper(self, default_config):
        rec = bohm.simulate(default_config, theta=np.pi / 2, points=[1.0])
        times, xs, sigmas = rec.times, rec.paths_x, rec.paths_sigma
        ens = bohm.integrate_ensemble(rec, [1.0])
        assert ens.outcomes[0] == bohm.OUTCOME_PLUS
        assert xs.shape == sigmas.shape == (len(times), 1)
        assert abs(sigmas[-1, 0] - 1.0) < 1e-2
        fh = io.StringIO()
        assert bohm.trajectories_to_csv(fh, times, xs, sigmas) is None
        csv = fh.getvalue()
        assert csv.splitlines()[0] == "traj_id,t,x,sigma"
        assert len(csv.splitlines()) == 1 + len(times)


def quantile_oracle(record, x0):
    """How many points have F_0(x0) above the final mass on the x < 0 side."""
    cfg = record.config
    edges = cfg.x_min + cfg.dx * np.arange(cfg.cells + 1)
    rho0, rho_t = record.initial.rho(), record.final.rho()
    f0 = np.concatenate(([0.0], np.cumsum(rho0))) / np.sum(rho0)
    m_minus = np.sum(rho_t[cfg.x < 0]) / np.sum(rho_t)
    return int(np.sum(np.interp(x0, edges, f0) > m_minus))


class TestQuantileOracle:
    @pytest.mark.parametrize("theta", [np.pi / 3, np.pi / 2])
    def test_analyzer_counts(self, default_config, record_half, theta):
        n = 10_000
        rec = (record_half if theta == np.pi / 2
               else bohm.simulate(default_config, theta=theta))
        xs = bohm.sample_initial(rec.initial, n, seed=1)
        stats = bohm._stats_from_outcomes(
            bohm.integrate_ensemble(rec, xs).outcomes, seed=1
        )
        plus = quantile_oracle(rec, xs)
        assert (stats.n_plus, stats.n_minus) == (plus, n - plus)

    @pytest.mark.parametrize("prep", bohm.BS_PREPS)
    def test_beam_splitter_counts(self, prep):
        n = 400
        res = bohm.beam_splitter_scene(prep, n, seed=1)
        gate3 = quantile_oracle(res.record, res.x0)
        assert (res.stats.n_plus, res.stats.n_minus) == (gate3, n - gate3)


def order_test_points():
    """1016 starting points in a fixed shuffled order: both walls, a repeated
    value, tails beyond 6 packet widths and a dense core."""
    rng = np.random.default_rng(8)
    special = [-35.0, 35.0, -34.99, 34.99, -20.0, 20.0, -10.0, 10.0, -7.0,
               7.0, -6.5, 6.5, 0.25, 0.25, 35.0]
    x0 = np.concatenate([np.linspace(-4.0, 4.0, 801),
                         rng.uniform(-35.0, 35.0, 200), special])
    return rng.permutation(x0)


@pytest.fixture(scope="module")
def tracked_points(default_config):
    x0 = order_test_points()
    return x0, bohm.simulate(default_config, theta=np.pi / 2, points=x0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, len(order_test_points()) - 1),
                min_size=1, max_size=200))
def test_quantile_map_keeps_order(tracked_points, idx):
    """Tracked paths keep the starting order in every frame and end where
    ``integrate_ensemble`` carries the same points."""
    x0, rec = tracked_points
    x0 = x0[idx]
    ens = bohm.integrate_ensemble(rec, x0)
    xs, sigmas = rec.paths_x[:, idx], rec.paths_sigma[:, idx]
    assert xs.shape[0] == rec.config.n_steps + 1
    order = np.argsort(x0, kind="stable")
    assert np.all(np.diff(ens.final_x[order]) >= 0)
    assert np.all(np.diff(xs[:, order], axis=1) >= 0)
    assert np.array_equal(xs[-1], ens.final_x)
    assert np.array_equal(sigmas[-1], ens.final_sigma, equal_nan=True)


@pytest.mark.parametrize("x0", [[100.0], [0.0, -35.5], [np.nan], [np.inf],
                                [[0.0, 1.0]]],
                         ids=["beyond_wall", "below_x_min", "nan", "inf", "2d"])
@pytest.mark.parametrize("carry", ["integrate_ensemble", "simulate"])
def test_initial_points_outside_the_grid_rejected(record_half, monkeypatch,
                                                  carry, x0):
    if carry == "integrate_ensemble":
        with pytest.raises(DomainError):
            bohm.integrate_ensemble(record_half, x0)
        return

    def no_step(*args):
        raise AssertionError("stepped before the points were checked")

    monkeypatch.setattr(bohm, "_cn_steps", no_step)
    with pytest.raises(DomainError):
        bohm.simulate(record_half.config, np.pi / 2, points=x0)


@pytest.mark.parametrize("shape", [(1024,), (1792, 1)],
                         ids=["other_cells", "column"])
def test_field_off_the_configured_grid_rejected(default_config, monkeypatch,
                                                shape):
    """A packet that does not have the grid's shape is a DomainError before
    the first step."""
    def no_step(*args):
        raise AssertionError("stepped before the packet's shape was checked")

    monkeypatch.setattr(bohm, "_cn_steps", no_step)
    packet = np.ones(shape, dtype=complex)
    with pytest.raises(DomainError, match="grid"):
        bohm.simulate(default_config, 0.0, packet)
    with pytest.raises(DomainError, match="grid"):
        bohm.prepare(default_config, 0.0, packet)


@pytest.mark.parametrize("scene", ["analyzer", "beam_splitter"])
@pytest.mark.parametrize("paths", [-1, 6], ids=["negative", "above_n"])
def test_paths_outside_zero_to_n_rejected(default_config, monkeypatch, scene,
                                          paths):
    """At n = 5, paths = -1 and n + 1 raise DomainError before sampling or
    stepping."""
    def fail(*args, **kwargs):
        raise AssertionError("sampled or stepped before paths was checked")

    monkeypatch.setattr(bohm, "sample_initial", fail)
    monkeypatch.setattr(bohm, "_cn_steps", fail)
    n = 5
    with pytest.raises(DomainError, match="paths"):
        if scene == "analyzer":
            bohm.run_ensemble(default_config, np.pi / 2, n, seed=1, paths=paths)
        else:
            bohm.beam_splitter_scene("plus", n, seed=1, paths=paths)


class TestEnsemble:
    def test_equivariance(self, record_half):
        xs = bohm.sample_initial(record_half.initial, 4000, seed=11)
        ens = bohm.integrate_ensemble(record_half, xs)
        assert bohm.ks_distance(ens.final_x, record_half.final) < 0.02

    def test_born_rule_small(self, default_config):
        n = 1000
        stats = bohm.run_ensemble(default_config, np.pi / 3, n, seed=7).stats
        assert stats.valid
        p = np.cos(np.pi / 6) ** 2
        assert abs(stats.p_plus - p) < 3.0 * np.sqrt(p * (1 - p) / n)
        assert stats.p_plus + stats.p_minus == pytest.approx(1.0)
        assert stats.e_sigma == pytest.approx(stats.p_plus - stats.p_minus)

    def test_theta_zero_exact(self, default_config):
        stats = bohm.run_ensemble(default_config, 0.0, 200, seed=3).stats
        assert stats.p_plus == 1.0 and stats.n_unresolved == 0

    def test_no_resolved_outcome_gives_no_estimate(self):
        outcomes = np.full(5, bohm.OUTCOME_UNRESOLVED)
        stats = bohm._stats_from_outcomes(outcomes, seed=2)
        assert (stats.p_plus, stats.p_minus, stats.e_sigma) == (None, None, None)
        assert not stats.valid and stats.n_unresolved == 5
        assert stats.to_dict()["p_plus"] is None
        one = bohm._stats_from_outcomes(np.array([0, 0, -1]), seed=2)
        assert (one.p_plus, one.p_minus, one.e_sigma) == (0.0, 1.0, -1.0)


class TestBeamSplitter:
    def test_plus_exits_gate3(self):
        res = bohm.beam_splitter_scene("plus", 400, seed=5).stats
        assert res.valid
        # The thin-barrier ideal routes everything to gate 3; the finite
        # momentum spread of the packets leaks a few tenths of a percent.
        assert res.p_plus > 0.97

    def test_minus_exits_gate4(self):
        res = bohm.beam_splitter_scene("minus", 400, seed=5).stats
        assert res.valid
        assert res.p_plus < 0.03

    def test_psi1_splits_evenly(self):
        n = 400
        res = bohm.beam_splitter_scene("psi1", n, seed=5)
        assert res.stats.valid
        assert abs(res.stats.p_plus - 0.5) < 3.0 * np.sqrt(0.25 / n)
        # Mass-level calibration is much tighter than the trajectory count.
        assert abs(bohm.transmitted_mass(res.record) - 0.5) < 1e-3

    def test_plus_minus_share_initial_support(self):
        cfg = bohm.beam_splitter_config()
        f_plus = bohm.prepare(cfg, 0.0, bohm.prepare_beam_splitter(cfg, "plus"))
        f_minus = bohm.prepare(cfg, 0.0, bohm.prepare_beam_splitter(cfg, "minus"))
        # Equal up to the exponentially small tail overlap of the packets.
        assert np.max(np.abs(f_plus.rho() - f_minus.rho())) < 1e-6
        xs = bohm.sample_initial(f_plus, 400, seed=1)
        assert np.min(xs) < -5.0 and np.max(xs) > 5.0

    def test_unknown_prep(self):
        cfg = bohm.beam_splitter_config()
        with pytest.raises(DomainError):
            bohm.prepare_beam_splitter(cfg, "psi3")


@pytest.fixture(scope="module")
def model():
    return bohm.bohm_ont_model(thetas=(np.pi / 3, np.pi / 2, 2 * np.pi / 3))


class TestOntExport:
    def test_classify_epistemic(self, model):
        assert ont.classify(model) is PsiClass.PSI_EPISTEMIC

    def test_deterministic(self, model):
        ok, offenders = nogo.determinism_check(model)
        assert ok and offenders == []

    def test_predicts_born(self, model):
        for label in model.prep_labels:
            theta = float(label.split("=")[1])
            born = np.cos(theta / 2.0) ** 2
            got = ont.predict(model, label, "spin-z", "+")
            assert abs(got - born) < 0.02

    def test_born_within_one_cell(self, model):
        """The + cells are those with F_0 above sin^2(theta/2), up to one cell."""
        for label in model.prep_labels:
            theta = float(label.split("=")[1])
            cell_mass = np.max(
                model.space.weights * model.preparations[label].values
            )
            got = ont.predict(model, label, "spin-z", "+")
            assert abs(got - np.cos(theta / 2.0) ** 2) <= cell_mass

    def test_preparation_overlap_full(self, model):
        labels = model.prep_labels
        ov = ont.overlap(
            model.preparations[labels[0]], model.preparations[labels[1]]
        )
        assert ov == pytest.approx(float(np.sum(model.space.weights)), rel=1e-9)


def reference_trajectories_csv(times, xs, sigmas):
    """The per-row loop that trajectories_to_csv replaced."""
    lines = ["traj_id,t,x,sigma"]
    for tid in range(xs.shape[1]):
        for t, x, s in zip(times, xs[:, tid], sigmas[:, tid]):
            lines.append("%d,%.15g,%.15g,%.15g" % (tid, t, x, s))
    return "\n".join(lines) + "\n"


def reference_polyline_points(series):
    """The per-point pixel mapping and formatting that render_lines replaced:
    one ``points`` attribute per drawn series."""
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    x_lo, x_hi = float(np.min(xs_all[finite])), float(np.max(xs_all[finite]))
    y_lo, y_hi = float(np.min(ys_all[finite])), float(np.max(ys_all[finite]))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    width, height, margin = 640, 440, 50
    inner_w, inner_h = width - 2 * margin, height - 2 * margin
    out = []
    for xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        good = np.isfinite(xs) & np.isfinite(ys)
        pts = []
        for x, y in zip(xs[good], ys[good]):
            px = margin + (x - x_lo) / (x_hi - x_lo) * inner_w
            py = height - margin - (y - y_lo) / (y_hi - y_lo) * inner_h
            pts.append("%.6g,%.6g" % (px, py))
        if len(pts) >= 2:
            out.append(" ".join(pts))
    return out


def synthetic_paths():
    """12 paths (ids up to 11) over 9 frames, with a NaN and an infinite
    sigma, a NaN and an infinite x, and a negative zero."""
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.8, 9)
    xs = rng.normal(scale=7.0, size=(9, 12))
    sigmas = rng.uniform(-1.0, 1.0, size=(9, 12))
    sigmas[4, 11], sigmas[0, 3] = np.nan, -np.inf
    xs[2, 10], xs[6, 1], xs[1, 0] = np.inf, np.nan, -0.0
    return times, xs, sigmas


def written(writer, *args):
    """What ``writer`` writes into an open text file given first."""
    fh = io.StringIO()
    writer(fh, *args)
    return fh.getvalue()


class TestArtifactFormatting:
    def test_trajectories_csv_matches_row_loop(self, record_half):
        times, xs, sigmas = synthetic_paths()
        got = written(bohm.trajectories_to_csv, times, xs, sigmas)
        assert got == reference_trajectories_csv(times, xs, sigmas)
        assert "\n11,0.4," in got and ",nan\n" in got
        x0 = bohm.sample_initial(record_half.initial, 12, seed=3)
        rec = bohm.simulate(record_half.config, np.pi / 2, points=x0)
        times, xs, sigmas = rec.times, rec.paths_x, rec.paths_sigma
        assert (written(bohm.trajectories_to_csv, times, xs, sigmas)
                == reference_trajectories_csv(times, xs, sigmas))

    @pytest.mark.parametrize("case", ["paths", "constant_y", "constant_x"])
    def test_polylines_match_point_loop(self, case):
        times, xs, _ = synthetic_paths()
        series = {
            "paths": [(times, x) for x in xs.T],
            "constant_y": [(times, np.full_like(times, 2.5)),
                           (times, [2.5, np.nan] + [2.5] * 7)],
            "constant_x": [(np.full(4, -1.0), [0.0, 1.0, -np.inf, 3.0])],
        }[case]
        svg = written(svgplot.render_lines, series, "t")
        points = re.findall(r'points="([^"]*)"', svg)
        assert points == reference_polyline_points(series)
        assert len(points) == len(series)
