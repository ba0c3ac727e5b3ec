import numpy as np
import pytest

from ostrovsky.errors import BlowupError, ConfigError, NonFiniteError
from ostrovsky.limits import (
    SweepConfig,
    gronwall_consistency_check,
    rotation_limit_sweep,
    xs_growth_monitor,
)
from ostrovsky.solver import SolverConfig, _evolve_rows, _Stepper, evolve, gaussian_bump
from ostrovsky.spectral import Grid, half_spectrum

from _util import assert_same_trajectory


def small_template(grid, **kw):
    defaults = dict(beta=-1.0, gamma=1.0, k=5, dt=0.01, t_end=0.25, grid=grid)
    defaults.update(kw)
    return SolverConfig(**defaults)


@pytest.fixture(scope="module")
def sweep_setup():
    grid = Grid(256, 40.0)
    u0 = gaussian_bump(grid, amplitude=0.5, width=2.0)
    template = small_template(grid)
    cfg = SweepConfig(template=template, t_compare=0.25,
                      gammas=(1e-1, 1e-2, 1e-3), snapshot_every=5)
    return cfg, u0, rotation_limit_sweep(cfg, u0)


class TestSweepConfig:
    def test_gammas_must_decrease(self):
        g = Grid(64, 10.0)
        with pytest.raises(ConfigError):
            SweepConfig(template=small_template(g), t_compare=0.1, gammas=(1e-3, 1e-2))

    def test_compare_time_within_lifespan(self):
        g = Grid(64, 10.0)
        with pytest.raises(ConfigError):
            SweepConfig(template=small_template(g), t_compare=5.0)

    def test_compare_time_on_snapshot_lattice(self):
        # 25 steps at snapshot_every = 10: snapshots at 0, 0.1, 0.2 and the last, 0.25
        template = small_template(Grid(64, 10.0), t_end=0.25)
        for t in (0.1, 0.2, 0.25):
            SweepConfig(template=template, t_compare=t)
        with pytest.raises(ConfigError, match="no snapshot at t = 0.24; nearest is 0.25"):
            SweepConfig(template=template, t_compare=0.24)
        with pytest.raises(ConfigError, match="snapshot_every must be positive, got 0"):
            SweepConfig(template=template, t_compare=0.2, snapshot_every=0)


class TestRotationLimit:
    def test_first_order_rate(self, sweep_setup):
        _, _, report = sweep_setup
        assert 0.8 <= report.slope <= 1.2
        assert not report.floor_limited

    def test_errors_decrease_with_gamma(self, sweep_setup):
        _, _, report = sweep_setup
        assert np.all(np.diff(report.errors) < 0.05 * report.errors[:-1])

    def test_error_over_gamma_uniformly_bounded(self, sweep_setup):
        _, _, report = sweep_setup
        ratios = report.errors / np.asarray(report.gammas)
        assert np.max(ratios) <= 4.0 * np.min(ratios)

    def test_conservation_gate(self, sweep_setup):
        _, _, report = sweep_setup
        assert np.all(report.conservation_ok)

    def test_degenerate_sweep_hits_solver_floor(self):
        # compare the rotation run against itself at gamma0: the error is
        # pure solver self-error
        grid = Grid(256, 40.0)
        u0 = gaussian_bump(grid, amplitude=0.5, width=2.0)
        template = small_template(grid, gamma=0.03)
        a = evolve(u0, template, 5).final()
        b = evolve(u0, template, 5).final()
        assert (a - b).l2_norm() < 1e-8

    def test_stacked_sweep_equals_single_runs(self, sweep_setup):
        # the reference and the sweep points step as rows of one state;
        # each row, and so each error, is that of its own evolve
        cfg, u0, report = sweep_setup
        cfgs = [cfg.template.replace(gamma=g) for g in (0.0, *cfg.gammas)]
        singles = [evolve(u0, c, cfg.snapshot_every) for c in cfgs]
        for row, single in zip(_evolve_rows(u0, cfgs, cfg.snapshot_every), singles):
            assert_same_trajectory(row, single)
        errors = [(s.final() - singles[0].final()).l2_norm() for s in singles[1:]]
        assert np.array_equal(report.errors, errors)

    @pytest.mark.parametrize("kind", ["breach", "overflow"])
    def test_failed_point_recorded_others_kept(self, sweep_setup, monkeypatch, kind):
        # the gamma = 1e-2 run alone breaks at step 10: its CFL check
        # fails there, or its nonlinear term overflows in the next step
        cfg, u0, report = sweep_setup
        point = cfg.template.replace(gamma=1e-2)
        state = half_spectrum(evolve(u0, point, 5).fields[2].coeffs)
        if kind == "breach":
            original = SolverConfig._timestep_breach

            def breach(self, u, name):
                hit = self.gamma == 1e-2 and np.array_equal(half_spectrum(u.coeffs), state)
                return "forced breach" if hit else original(self, u, name)

            monkeypatch.setattr(SolverConfig, "_timestep_breach", breach)
        else:
            stepped = _Stepper.step_coeffs

            def overflow(self, c):
                if any(np.array_equal(row, state) for row in c):
                    raise NonFiniteError("forced overflow")
                return stepped(self, c)

            monkeypatch.setattr(_Stepper, "step_coeffs", overflow)
        failed = rotation_limit_sweep(cfg, u0)
        step = 10 if kind == "breach" else 11
        message = f"blowup detected at step {step}: forced {kind}"
        assert failed.failures == {1e-2: message}
        with pytest.raises(BlowupError) as own:
            evolve(u0, point, 5)
        assert str(own.value) == message
        assert failed.gammas == (1e-1, 1e-3)
        assert np.array_equal(failed.errors, report.errors[[0, 2]])
        assert np.array_equal(failed.gronwall_constants, report.gronwall_constants[[0, 2]])
        assert failed.self_error == report.self_error

    def test_failed_reference_raises(self, sweep_setup, monkeypatch):
        cfg, u0, _ = sweep_setup
        original = SolverConfig._timestep_breach

        def breach(self, u, name):
            hit = self.gamma == 0.0 and name == "u"
            return "forced breach" if hit else original(self, u, name)

        monkeypatch.setattr(SolverConfig, "_timestep_breach", breach)
        with pytest.raises(BlowupError, match="step 5: forced breach"):
            rotation_limit_sweep(cfg, u0)

    def test_gronwall_constant_stable_across_sweep(self, sweep_setup):
        _, _, report = sweep_setup
        cs = report.gronwall_constants
        assert np.max(cs) <= 3.0 * np.min(cs)


class TestGronwall:
    def test_zero_difference_gives_zero_constant(self):
        grid = Grid(128, 20.0)
        u0 = gaussian_bump(grid, amplitude=0.4, width=2.0)
        template = small_template(grid, gamma=0.0, t_end=0.1)
        a = evolve(u0, template, 2)
        b = evolve(u0, template, 2)
        rep = gronwall_consistency_check(a, b, gamma=0.0)
        assert rep.c_star == 0.0

    def test_lattice_mismatch_rejected(self):
        grid = Grid(128, 20.0)
        u0 = gaussian_bump(grid, amplitude=0.4, width=2.0)
        a = evolve(u0, small_template(grid, t_end=0.1), 2)
        b = evolve(u0, small_template(grid, t_end=0.1, dt=0.005), 2)
        with pytest.raises(ConfigError):
            gronwall_consistency_check(a, b, gamma=1.0)


class TestXsGrowth:
    def test_linear_run_is_isometry(self):
        grid = Grid(128, 20.0)
        u0 = gaussian_bump(grid, amplitude=0.4, width=2.0)
        traj = evolve(u0, small_template(grid, include_nonlinearity=False), 5)
        rep = xs_growth_monitor(traj)
        spread = np.max(rep.xs) - np.min(rep.xs)
        assert spread < 1e-10 * rep.xs[0]
        assert rep.c0 < 1e-8

    def test_small_data_bounded(self):
        grid = Grid(256, 40.0)
        u0 = gaussian_bump(grid, amplitude=0.4, width=2.0)
        traj = evolve(u0, small_template(grid), 5)
        rep = xs_growth_monitor(traj)
        assert rep.bounded

    def test_growth_inequality_holds_with_uniform_constant(self):
        # the fitted envelope constant itself is not data-independent at
        # desk scale (the inequality never binds for smooth data: the
        # norm is near-constant and the fit spans decades with
        # amplitude); the testable content is that one modest constant
        # satisfies d/dt||u|| <= C0 ||u||^{k+1} across data sizes
        grid = Grid(256, 40.0)
        template = small_template(grid, dt=0.002, t_end=0.1)

        def c0_for(amplitude):
            u0 = gaussian_bump(grid, amplitude=amplitude, width=2.0)
            traj = evolve(u0, template, 2)
            return xs_growth_monitor(traj).c0

        assert max(c0_for(0.6), c0_for(1.2)) <= 1e-3
