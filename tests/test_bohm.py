import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from psilab import bohm, nogo, ontology as ont
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
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(dt=-1.0)
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(t_on=2.0, t_off=1.0)
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(x_min=5.0, x_max=-5.0)
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(dt=0.5)  # grid-spacing accuracy guard
        with pytest.raises(bohm.ConfigError):
            bohm.SternGerlachConfig(b0=1e4)  # potential-phase accuracy guard
        with pytest.raises(bohm.ConfigError, match="zero steps"):
            bohm.SternGerlachConfig(t_final=1e-4)  # rounds to 0 steps of 1e-3

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


class TestEvolution:
    def test_free_gaussian_spreading(self):
        """Packet width against the closed-form free-spreading law."""
        cfg = bohm.SternGerlachConfig(
            x_min=-20.0, x_max=20.0, cells=4096, dt=1e-3, t_final=2.0, mu=0.0
        )
        rec = bohm.simulate(cfg, theta=0.0)
        sig, _ = packet_sigma(rec.rho[-1], cfg.x, cfg.dx)
        sig_exact = cfg.packet_sigma * np.sqrt(
            1.0 + (cfg.hbar * cfg.t_final / (2.0 * cfg.mass * cfg.packet_sigma**2)) ** 2
        )
        assert abs(sig / sig_exact - 1.0) < 1e-4

    def test_uniform_field_is_global_phase(self):
        """A spatially constant potential only adds a phase to free evolution."""
        cfg_v = bohm.SternGerlachConfig(b0=2.0, b1=0.0, t_final=0.5)
        cfg_0 = bohm.SternGerlachConfig(b0=0.0, b1=0.0, t_final=0.5)
        f0 = bohm.prepare(cfg_v, 0.0)
        f_v = bohm.evolve(f0, cfg_v, 100)
        f_0 = bohm.evolve(f0, cfg_0, 100)
        assert f_v.t == pytest.approx(0.1)
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
        expected = 0.5 * (-cfg.mu * cfg.b1 / cfg.mass) * cfg.t_final**2
        assert abs(mean / expected - 1.0) < 1e-3

    def test_norm_conservation(self, record_half):
        assert np.max(np.abs(record_half.norms - 1.0)) < 1e-8

    def test_continuity_residual(self):
        cfg = bohm.SternGerlachConfig(x_min=-20.0, x_max=20.0, cells=1024)
        rec = bohm.simulate(cfg, theta=np.pi / 2)
        assert np.max(rec.continuity) < 1e-4


def banded_reference_step(config, potential):
    """Crank-Nicolson step solved from scratch with the banded LU each step."""
    kin = config.hbar**2 / (2.0 * config.mass * config.dx**2)
    z = 1j * config.dt / (2.0 * config.hbar)
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


class TestStepper:
    @pytest.mark.parametrize("scene,field_on,component", [
        ("sg", True, 0), ("sg", True, 1), ("sg", False, 0), ("bs", False, 0),
    ])
    def test_factored_step_matches_banded_solve(self, scene, field_on, component):
        if scene == "sg":
            cfg = bohm.SternGerlachConfig()
            psi = bohm.prepare(cfg, np.pi / 2).up
        else:
            cfg = bohm.beam_splitter_config()
            psi = bohm.prepare_beam_splitter(cfg, "plus").up
        potential = bohm._component_potentials(cfg, field_on)[component]
        step = bohm._stepper(cfg, potential)
        reference = banded_reference_step(cfg, potential)
        a = b = psi
        for _ in range(200):
            a, b = step(a), reference(b)
            assert np.max(np.abs(a - b)) <= 1e-14

    @pytest.mark.parametrize("prep", bohm.BS_PREPS)
    def test_beam_splitter_down_stays_zero(self, prep):
        cfg = bohm.beam_splitter_config()
        rec = bohm.simulate(cfg, field0=bohm.prepare_beam_splitter(cfg, prep))
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


class TestDerivedFields:
    def test_current_zero_for_real_packet(self, default_config):
        f = bohm.prepare(default_config, np.pi / 2)
        rho, j = bohm.density_current(f)
        assert np.allclose(rho, f.rho())
        assert np.max(np.abs(j)) < 1e-12

    def test_current_plane_wave_factor(self):
        # Fine grid keeps the central-difference dispersion error below tol.
        cfg = bohm.SternGerlachConfig(
            x_min=-10.0, x_max=10.0, cells=2048, packet_k0=2.0
        )
        f = bohm.prepare(cfg, np.pi / 2)
        rho, j = bohm.density_current(f)
        bulk = np.abs(cfg.x) < 3.0
        assert np.max(np.abs(j[bulk] / rho[bulk] - 2.0)) < 1e-3

    def test_velocity_values_and_node(self, default_config):
        f_rest = bohm.prepare(default_config, 0.0)
        assert abs(bohm.velocity(f_rest, 0.3)) < 1e-10
        cfg = bohm.SternGerlachConfig(
            x_min=-10.0, x_max=10.0, cells=2048, packet_k0=2.0
        )
        f_mov = bohm.prepare(cfg, 0.0)
        assert bohm.velocity(f_mov, 0.0) == pytest.approx(2.0, abs=1e-3)
        with pytest.raises(bohm.NodeEncountered):
            bohm.velocity(f_rest, 30.0)

    def test_velocity_against_phase_gradient(self):
        """Two-packet interference region versus an unwrapped-phase oracle."""
        cfg = bohm.SternGerlachConfig(x_min=-20.0, x_max=20.0, cells=4096, mu=0.0)
        a = bohm.gaussian_packet(cfg.x, cfg.dx, -1.0, 1.0, 1.5)
        b = bohm.gaussian_packet(cfg.x, cfg.dx, 1.0, 1.0, -1.5)
        amp = (a + 1j * b) / np.sqrt(np.sum(np.abs(a + 1j * b) ** 2) * cfg.dx)
        f = bohm.SpinorField(x=cfg.x, dx=cfg.dx, up=amp, down=np.zeros_like(amp))
        xs = np.linspace(-2.0, 2.0, 41)
        v = bohm.velocity(f, xs)
        phase = np.unwrap(np.angle(amp))
        v_oracle = np.interp(xs, cfg.x, np.gradient(phase, cfg.dx))
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v - v_oracle)) < 0.02 * np.max(np.abs(v))

    def test_quantum_potential_plane_wave(self, default_config):
        cfg = bohm.SternGerlachConfig(packet_k0=3.0, packet_sigma=2.0)
        f = bohm.prepare(cfg, 0.0)
        q_up, _ = bohm.quantum_potential(f)
        center = np.abs(cfg.x) < 0.5
        # Constant-modulus contribution vanishes; only the envelope remains.
        assert np.all(np.isfinite(q_up[center]))

    def test_quantum_potential_gaussian(self, default_config):
        f = bohm.prepare(default_config, 0.0)
        q_up, q_down = bohm.quantum_potential(f)
        x = default_config.x
        sigma = default_config.packet_sigma
        oracle = (1.0 / (4.0 * sigma**2)) * (1.0 - x**2 / (2.0 * sigma**2))
        inner = np.abs(x) < 3.0 * sigma
        assert np.max(np.abs(q_up[inner] - oracle[inner])) < 1e-3
        # Down component is identically zero for theta=0: fully masked.
        assert np.all(np.isnan(q_down))

    def test_quantum_potential_mask_matches_threshold(self, default_config):
        f = bohm.prepare(default_config, 0.0)
        q_up, _ = bohm.quantum_potential(f)
        dens = np.abs(f.up) ** 2
        mask = dens < bohm.NODE_EPS_FACTOR * np.max(dens)
        assert np.array_equal(np.isnan(q_up), mask)

    def test_spin_projection(self, default_config, record_half):
        f_up = bohm.prepare(default_config, 0.0)
        assert bohm.spin_projection(f_up, 0.7) == pytest.approx(1.0)
        f_eq = bohm.prepare(default_config, np.pi / 2)
        assert abs(bohm.spin_projection(f_eq, 0.2)) < 1e-12
        # After separation the upper packet carries Sigma = +1.
        assert bohm.spin_projection(record_half.final, 10.0) > 1.0 - 1e-2
        assert bohm.spin_projection(record_half.final, -10.0) < -1.0 + 1e-2


class TestSampling:
    def test_narrow_density_concentrates_samples(self):
        cfg = bohm.SternGerlachConfig(packet_sigma=0.05)
        f = bohm.prepare(cfg, 0.0)
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

    def test_single_trajectory_wrapper(self, record_half):
        tr = bohm.integrate_trajectory(1.0, record_half)
        assert tr.outcome == bohm.OUTCOME_PLUS
        assert tr.xs.shape == record_half.times.shape
        assert abs(tr.sigmas[-1] - 1.0) < 1e-2
        csv = bohm.trajectories_to_csv([tr])
        assert csv.splitlines()[0] == "traj_id,t,x,sigma"
        assert len(csv.splitlines()) == 1 + len(tr.times)


def quantile_oracle(record, x0):
    """How many points have F_0(x0) above the final mass on the x < 0 side."""
    cfg = record.config
    edges = cfg.x_min + cfg.dx * np.arange(cfg.cells + 1)
    f0 = np.concatenate(([0.0], np.cumsum(record.rho[0]))) / np.sum(record.rho[0])
    m_minus = np.sum(record.rho[-1][cfg.x < 0]) / np.sum(record.rho[-1])
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
        assert (res.gate3, res.gate4) == (gate3, n - gate3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40))
def test_quantile_map_keeps_order(record_half, x0):
    ens = bohm.integrate_ensemble(record_half, x0, keep_paths=True)
    order = np.argsort(x0, kind="stable")
    assert np.all(np.diff(ens.final_x[order]) >= 0)
    assert np.all(np.diff(ens.paths[:, order], axis=1) >= 0)


class TestEnsemble:
    def test_equivariance(self, record_half):
        xs = bohm.sample_initial(record_half.initial, 4000, seed=11)
        ens = bohm.integrate_ensemble(record_half, xs)
        assert bohm.ks_distance(ens.final_x, record_half.final) < 0.02

    def test_born_rule_small(self, default_config):
        n = 1000
        stats = bohm.run_ensemble(default_config, np.pi / 3, n, seed=7)
        assert stats.valid
        p = np.cos(np.pi / 6) ** 2
        assert abs(stats.p_plus - p) < 3.0 * np.sqrt(p * (1 - p) / n)
        assert stats.p_plus + stats.p_minus == pytest.approx(1.0)
        assert stats.e_sigma == pytest.approx(stats.p_plus - stats.p_minus)

    def test_theta_zero_exact(self, default_config):
        stats = bohm.run_ensemble(default_config, 0.0, 200, seed=3)
        assert stats.p_plus == 1.0 and stats.n_unresolved == 0


class TestBeamSplitter:
    def test_plus_exits_gate3(self):
        res = bohm.beam_splitter_scene("plus", 400, seed=5)
        assert res.valid
        # The thin-barrier ideal routes everything to gate 3; the finite
        # momentum spread of the packets leaks a few tenths of a percent.
        assert res.p_gate3() > 0.97

    def test_minus_exits_gate4(self):
        res = bohm.beam_splitter_scene("minus", 400, seed=5)
        assert res.valid
        assert res.p_gate3() < 0.03

    def test_psi1_splits_evenly(self):
        n = 400
        res = bohm.beam_splitter_scene("psi1", n, seed=5)
        assert res.valid
        assert abs(res.p_gate3() - 0.5) < 3.0 * np.sqrt(0.25 / n)
        # Mass-level calibration is much tighter than the trajectory count.
        assert abs(bohm.transmitted_mass(res.record) - 0.5) < 1e-3

    def test_plus_minus_share_initial_support(self):
        cfg = bohm.beam_splitter_config()
        f_plus = bohm.prepare_beam_splitter(cfg, "plus")
        f_minus = bohm.prepare_beam_splitter(cfg, "minus")
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


class TestFieldCsv:
    def test_round_numbers(self, default_config):
        f = bohm.prepare(default_config, np.pi / 4)
        text = bohm.field_to_csv(f)
        lines = text.splitlines()
        assert lines[0] == "x,re_up,im_up,re_down,im_down"
        assert len(lines) == 1 + default_config.cells
