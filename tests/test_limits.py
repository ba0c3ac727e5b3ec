import numpy as np
import pytest

from ostrovsky.errors import ConfigError
from ostrovsky.limits import (
    SweepConfig,
    gronwall_consistency_check,
    rotation_limit_sweep,
    xs_growth_monitor,
)
from ostrovsky.solver import SolverConfig, evolve, gaussian_bump
from ostrovsky.spectral import Grid


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
        ratios = report.error_over_gamma()
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

    def test_reordering_invariance(self, sweep_setup):
        cfg, u0, report = sweep_setup
        shuffled = SweepConfig(
            template=cfg.template, t_compare=cfg.t_compare,
            gammas=cfg.gammas, snapshot_every=cfg.snapshot_every, jobs=2,
        )
        second = rotation_limit_sweep(shuffled, u0)
        assert np.array_equal(second.errors, report.errors)

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
        assert rep.envelope_ok

    def test_envelope_holds_pointwise(self):
        grid = Grid(256, 40.0)
        u0 = gaussian_bump(grid, amplitude=0.3, width=2.0)
        gamma = 0.05
        v = evolve(u0, small_template(grid, gamma=0.0, t_end=0.2), 4)
        u = evolve(u0, small_template(grid, gamma=gamma, t_end=0.2), 4)
        rep = gronwall_consistency_check(u, v, gamma=gamma)
        assert rep.envelope_ok

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
