import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ostrovsky import solver, spectral
from ostrovsky.errors import (
    BlowupError,
    ConfigError,
    ContractionFailureError,
    MeanZeroViolation,
    NonFiniteError,
    SolitonResidualError,
)
from ostrovsky.norms import h_s_norm
from ostrovsky.solver import (
    CFL_SAFETY,
    MAX_STEPS,
    SOLITON_OVERSAMPLING,
    SolverConfig,
    _evolve_rows,
    _flux_table,
    _int_power,
    _nonlinear_coeffs,
    check_initial_data,
    evolve,
    gaussian_bump,
    hamiltonian,
    lattice_steps,
    nonlinear_term,
    picard_iterate,
    picard_lattice,
    scaled_to_h1,
    soliton_initial_data,
    step,
)
from ostrovsky.spectral import (
    Field,
    Grid,
    MultiplierSpec,
    PhaseSymbol,
    apply_multiplier,
    band_limit,
    dealias_cutoff,
    half_spectrum,
    hermitian_extension,
    upsample,
)

from _reference import (
    complex_flux,
    reference_band_limit,
    reference_evolve,
    reference_picard,
    reference_upsample,
    whole_lattice_picard,
)
from _util import assert_same_trajectory, propagated, random_mean_zero, zero_field

# the bound on the L2 distance between the half-spectrum solver and its
# full-spectrum reference, relative to ||u0||: rounding only (the golden
# files' DIFFERENCE_SCALE)
REFERENCE_RTOL = 1e-13


def small_config(grid, gamma=1.0, dt=0.01, t_end=0.2, **kw):
    return SolverConfig(beta=-1.0, gamma=gamma, k=5, dt=dt, t_end=t_end, grid=grid, **kw)


class TestConfig:
    def test_sign_constraints(self):
        g = Grid(64, 10.0)
        with pytest.raises(ConfigError):
            SolverConfig(beta=1.0, gamma=1.0, k=5, dt=0.01, t_end=1.0, grid=g)
        with pytest.raises(ConfigError):
            SolverConfig(beta=-1.0, gamma=-0.1, k=5, dt=0.01, t_end=1.0, grid=g)

    def test_small_k_flagged_not_rejected(self, caplog):
        g = Grid(64, 10.0)
        with caplog.at_level(logging.WARNING, logger="ostrovsky"):
            cfg = SolverConfig(beta=-1.0, gamma=0.0, k=2, dt=0.01, t_end=1.0, grid=g)
        assert cfg.k == 2
        assert [r.getMessage() for r in caplog.records] == [
            "k = 2 is below the k >= 5 well-posedness range"]

    def test_timestep_guard(self):
        g = Grid(64, 10.0)
        cfg = SolverConfig(beta=-1.0, gamma=0.0, k=5, dt=0.2, t_end=1.0, grid=g)
        u0 = gaussian_bump(g, amplitude=2.0)
        with pytest.raises(ConfigError, match=r"dt = 0.2 exceeds the advection bound .*max\|u0\|"):
            check_initial_data(u0, cfg)

    def test_time_lattice(self):
        # dt divides t_end, within 1e-9 relative, under the rule delta follows
        g = Grid(64, 10.0)
        assert small_config(g, dt=0.01, t_end=0.2).n_steps == 20
        assert small_config(g, dt=0.01, t_end=0.2 * (1 + 1e-10)).n_steps == 20
        # many steps whose sum drifts from t_end by rounding: all full steps
        assert small_config(g, dt=0.1 / 6250, t_end=0.1).n_steps == 6250
        for t_end in (0.2 * (1 + 1e-8), 0.115, 0.004):
            with pytest.raises(ConfigError, match=f"dt = 0.01 does not evenly divide t_end = {t_end:g}"):
                small_config(g, dt=0.01, t_end=t_end)
        with pytest.raises(ConfigError,
                           match=r"t_end = 1e\+308 is not a finite number of steps of dt = 0.01"):
            small_config(g, dt=0.01, t_end=1e308)
        assert lattice_steps(0.05, 1e-4, "delta") == picard_lattice(
            small_config(g, dt=1e-4, t_end=0.05), 0.05, 1) == 500
        # at most MAX_STEPS steps, checked before anything runs
        assert small_config(g, dt=0.01, t_end=0.01 * MAX_STEPS).n_steps == MAX_STEPS
        with pytest.raises(ConfigError, match=f"more than MAX_STEPS = {MAX_STEPS}"):
            small_config(g, dt=0.01, t_end=0.01 * (MAX_STEPS + 1))


class TestNonlinearTerm:
    def test_quadratic_closed_form(self):
        # -(1/2) d/dx cos^2 = sin(2x)/2
        g = Grid(64, 2 * np.pi)
        out = nonlinear_term(Field.from_samples(g, np.cos(g.x)), 1)
        assert np.max(np.abs(out.samples() - 0.5 * np.sin(2 * g.x))) < 1e-12

    def test_zero_input(self):
        g = Grid(64, 2 * np.pi)
        out = nonlinear_term(zero_field(g), 5)
        assert np.all(out.coeffs == 0)

    def test_oversampling_oracle(self, rng):
        # independent evaluation: zero-pad by 4x, multiply there, truncate
        g = Grid(128, 7.0)
        k = 5
        cut = dealias_cutoff(128, k + 1)
        c = np.zeros(128, dtype=complex)
        m = np.arange(1, cut + 1)
        z = rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size)
        c[m], c[-m] = z, np.conj(z)
        u = Field(g, 0.1 * c)

        fine = 4 * 128
        cf = np.zeros(fine, dtype=complex)
        cf[:64] = u.coeffs[:64]
        cf[-64:] = u.coeffs[-64:]
        samples_fine = np.fft.ifft(cf * fine).real
        power_fine = np.fft.fft(samples_fine ** (k + 1)) / fine
        back = np.zeros(128, dtype=complex)
        back[:64] = power_fine[:64]
        back[-64:] = power_fine[-64:]
        back[np.abs(g.mode_numbers) > cut] = 0.0
        expected = (-1.0 / (k + 1)) * (1j * g.wavenumbers) * back
        expected[64] = 0.0

        out = nonlinear_term(u, k)
        scale = max(np.max(np.abs(expected)), 1e-300)
        assert np.max(np.abs(out.coeffs - expected)) / scale < 1e-11

    def test_output_mean_zero(self, rng):
        g = Grid(128, 7.0)
        out = nonlinear_term(random_mean_zero(g, rng), 5)
        assert out.coeffs[0] == 0.0

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_batched_rows_equal_single_rows(self, n, rng):
        # picard_iterate evaluates a whole time lattice of half spectra in one call
        g = Grid(n, 40.0)
        rows = np.array([(0.3 * random_mean_zero(g, rng)).coeffs for _ in range(5)])
        single = np.array([half_spectrum(nonlinear_term(Field(g, r), 5).coeffs) for r in rows])
        assert np.array_equal(_nonlinear_coeffs(half_spectrum(rows), 5, _flux_table(g, 5)),
                              single)


def pow_and_mask_flux(coeffs, grid, k):
    """The flux as computed before the cached table: np.power, then a mask
    of the modes past the dealias cutoff, then the derivative factors."""
    n = grid.n_points
    u = np.fft.ifft(coeffs * n).real
    c = np.fft.fft(u ** (k + 1)) / n
    c[..., np.abs(grid.mode_numbers) > dealias_cutoff(n, k + 1)] = 0.0
    out = (-1.0 / (k + 1)) * (1j * grid.wavenumbers) * c
    out[..., grid.nyquist_index] = 0.0
    out[..., 0] = 0.0
    return out


class TestFastFlux:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_pow_and_mask_reference(self, n, k, rng):
        # the Hermitian extension of the half-spectrum flux against both
        # full-spectrum references
        g = Grid(n, 40.0)
        single = (0.8 * random_mean_zero(g, rng, band_fraction=1.0)).coeffs
        rows = np.array([(0.8 * random_mean_zero(g, rng)).coeffs for _ in range(3)])
        for coeffs in (single, rows):
            fast = hermitian_extension(_nonlinear_coeffs(half_spectrum(coeffs), k,
                                                         _flux_table(g, k)))
            for ref in (pow_and_mask_flux(coeffs, g, k), complex_flux(coeffs, g, k)):
                assert fast.shape == ref.shape
                assert np.max(np.abs(fast - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("p", range(1, 10))
    def test_int_power_matches_np_power(self, p, rng):
        # every bit pattern of p up to 9, since the in-place updates differ per bit
        u = rng.standard_normal(257) * 3.0
        kept = u.copy()
        out = _int_power(u, p)
        assert np.array_equal(u, kept) and not np.shares_memory(out, u)
        ref = u**p
        assert np.all(np.abs(out - ref) <= p * 2.2e-16 * np.abs(ref))
        strided = _int_power(np.fft.ifft(u).real, p)  # a strided view
        ref = np.fft.ifft(u).real ** p
        assert np.all(np.abs(strided - ref) <= p * 2.2e-16 * np.abs(ref))

    def test_int_power_overflow_gives_inf(self):
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(_int_power(np.array([3e51, -3e51]), 6)))

    def test_nan_sample_raises_nonfinite(self):
        g = Grid(64, 10.0)
        samples = np.sin(2 * np.pi * g.x / 10.0)
        samples[7] = np.nan
        with pytest.raises(NonFiniteError):
            _nonlinear_coeffs(np.fft.rfft(samples, norm="forward"), 5, _flux_table(g, 5))

    def test_equal_grids_share_one_read_only_table(self):
        a = _flux_table(Grid(256, 40.0), 5)
        assert _flux_table(Grid(256, 40.0), 5) is a
        assert not a.flags.writeable
        other = _flux_table(Grid(256, 41.0), 5)
        assert other is not a and not np.array_equal(other, a)
        assert _flux_table(Grid(256, 40.0), 4) is not a


class TestStep:
    def test_linear_only_matches_propagator(self, rng):
        g = Grid(128, 10.0)
        cfg = small_config(g, include_nonlinearity=False, dt=0.02)
        u = random_mean_zero(g, rng)
        stepped = u
        for _ in range(10):
            stepped = step(stepped, cfg)
        exact = propagated(u, 0.2, cfg.symbol)
        assert (stepped - exact).l2_norm() < 1e-12 * u.l2_norm()

    def test_stationary_mode(self):
        g = Grid(64, 2 * np.pi)
        cfg = small_config(g, include_nonlinearity=False, dt=0.05)
        u = Field.from_samples(g, np.cos(g.x))
        out = step(u, cfg)
        assert np.max(np.abs(out.samples() - np.cos(g.x))) < 1e-13

    def test_self_convergence_order(self):
        g = Grid(512, 40.0)
        u0 = gaussian_bump(g, amplitude=0.6, width=2.0)

        def final(dt):
            cfg = small_config(g, dt=dt, t_end=0.2)
            return evolve(u0, cfg, snapshot_every=10**9).final()

        ref = final(0.005 / 8)
        e1 = (final(0.005) - ref).l2_norm()
        e2 = (final(0.0025) - ref).l2_norm()
        order = math.log2(e1 / e2)
        assert order >= 3.8

    def test_split_step_converges_second_order(self):
        g = Grid(256, 40.0)
        u0 = gaussian_bump(g, amplitude=0.6, width=2.0)

        def final(dt):
            cfg = small_config(g, dt=dt, t_end=0.2, integrator="split_step")
            return evolve(u0, cfg, snapshot_every=10**9).final()

        ref = final(0.005 / 16)
        e1 = (final(0.01) - ref).l2_norm()
        e2 = (final(0.005) - ref).l2_norm()
        assert 1.6 <= math.log2(e1 / e2) <= 2.6


class TestEvolve:
    def test_zero_data_stays_zero(self):
        g = Grid(64, 10.0)
        traj = evolve(zero_field(g), small_config(g), snapshot_every=5)
        assert all(np.all(f.coeffs == 0) for f in traj.fields)

    def test_first_snapshot_bitwise(self, rng):
        g = Grid(128, 10.0)
        raw = random_mean_zero(g, rng)
        u0 = raw * (0.5 / np.max(np.abs(raw.samples())))
        traj = evolve(u0, small_config(g, dt=0.005), snapshot_every=5)
        assert np.array_equal(traj.fields[0].coeffs, u0.coeffs)
        assert np.all(np.diff(traj.times) > 0)

    def test_snapshot_samples_synthesized_once_and_equal(self):
        g = Grid(128, 20.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        traj = evolve(u0, small_config(g, dt=0.01, t_end=0.11), snapshot_every=4)
        assert len(traj.fields) == 4  # steps 0, 4, 8 and the last, 11
        for field in traj.fields[1:]:
            assert field.cached_samples is not None
            assert np.array_equal(field.samples(), Field(g, field.coeffs).samples())

    def test_l2_conservation(self, rng):
        g = Grid(256, 40.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        traj = evolve(u0, small_config(g, dt=0.005, t_end=0.5), snapshot_every=10)
        drift = np.max(np.abs(traj.l2 - traj.l2[0])) / traj.l2[0]
        assert drift < 1e-8

    def test_hamiltonian_finite_difference_oracle(self):
        # dH/dt along a trajectory must vanish before H is trusted
        g = Grid(256, 40.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        traj = evolve(u0, small_config(g, dt=0.005, t_end=0.5), snapshot_every=5)
        dh = np.gradient(traj.hamiltonian, traj.times)
        scale = max(abs(traj.hamiltonian[0]), 1.0)
        assert np.max(np.abs(dh)) / scale < 1e-8

    def test_mean_stays_zero(self, rng):
        g = Grid(128, 10.0)
        raw = random_mean_zero(g, rng)
        u0 = raw * (0.5 / np.max(np.abs(raw.samples())))
        traj = evolve(u0, small_config(g, dt=0.005), snapshot_every=5)
        assert max(abs(f.mean()) for f in traj.fields) < 1e-13

    def test_rotation_needs_mean_zero(self):
        g = Grid(64, 10.0)
        u = Field.from_samples(g, 0.1 + 0.0 * g.x)
        with pytest.raises(MeanZeroViolation):
            evolve(u, small_config(g, gamma=1.0), snapshot_every=5)

    def test_gkdv_accepts_constant_background(self):
        g = Grid(64, 10.0)
        u = Field.from_samples(g, 0.05 + 0.1 * np.cos(2 * np.pi * g.x / 10.0))
        traj = evolve(u, small_config(g, gamma=0.0, dt=0.005), snapshot_every=5)
        assert traj.fields[-1].mean() == pytest.approx(0.05, abs=1e-13)

    def test_power_overflow_raises_nonfinite(self):
        from ostrovsky.errors import NonFiniteError

        g = Grid(64, 10.0)
        u = Field.from_samples(g, 1e80 * np.sin(2 * np.pi * g.x / 10.0))
        with pytest.raises(NonFiniteError):
            nonlinear_term(u, 5)

    def test_overflow_raises_nonfinite_without_warning(self):
        # the callers hold the errstate that _nonlinear_coeffs runs under
        g = Grid(64, 10.0)
        u = Field.from_samples(g, 1e80 * np.sin(2 * np.pi * g.x / 10.0))
        cfg = small_config(g, dt=0.005, t_end=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: nonlinear_term(u, 5), lambda: step(u, cfg),
                         lambda: picard_iterate(u, cfg, delta=0.05, n_iters=3)):
                with pytest.raises(NonFiniteError, match=r"u\^6 overflowed"):
                    call()

    def test_power_overflow_in_evolve_is_blowup(self, monkeypatch):
        # dt passes the advection guard, but u^6 overflows at the first step;
        # u^7 overflows first, in the t = 0 Hamiltonian, so stub that out
        import ostrovsky.solver as solver_mod

        monkeypatch.setattr(solver_mod, "hamiltonian", lambda u, cfg: 0.0)
        g = Grid(256, 40.0)
        u0 = gaussian_bump(g, amplitude=3e51)
        cfg = small_config(g, dt=1e-300, t_end=1e-300)
        with pytest.raises(BlowupError) as exc:
            evolve(u0, cfg, snapshot_every=1)
        assert exc.value.step_index == 1

    def test_hamiltonian_overflow_is_config_error(self):
        # u^6 stays finite at amplitude 1e46, u^7 in the Hamiltonian does
        # not: evolve refuses the data at t = 0, as the CLI read phase does
        g = Grid(256, 40.0)
        u0 = gaussian_bump(g, amplitude=1e46)
        cfg = small_config(g, dt=1e-300, t_end=1e-299)
        with pytest.raises(NonFiniteError):
            hamiltonian(u0, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^initial data: Hamiltonian overflowed"):
                evolve(u0, cfg, snapshot_every=5)

    def test_blowup_aborts_with_step_index(self, rng, monkeypatch):
        # the advection guard prevents honestly reaching overflow at desk
        # scale, so drive the detector by corrupting one step
        import ostrovsky.solver as solver_mod

        g = Grid(64, 10.0)
        u0 = gaussian_bump(g, amplitude=0.3, width=1.5)
        cfg = small_config(g, dt=0.01, t_end=0.1)
        original = solver_mod._Stepper.step_coeffs
        calls = {"n": 0}

        def corrupted(self, c):
            calls["n"] += 1
            out = original(self, c)
            if calls["n"] == 3:
                out = out.copy()
                out[..., 5] = np.nan
            return out

        monkeypatch.setattr(solver_mod._Stepper, "step_coeffs", corrupted)
        with pytest.raises(BlowupError) as exc:
            evolve(u0, cfg, snapshot_every=1)
        assert exc.value.step_index == 3

    def test_cfl_guard_at_snapshots(self):
        # data that refocuses under linear dispersion: max|u| grows past its
        # t = 0 value, so dt at the t = 0 bound breaches the bound later
        g = Grid(128, 20.0)
        cfg = small_config(g, gamma=0.0, t_end=0.5, include_nonlinearity=False)
        bump = gaussian_bump(g, amplitude=1.0, width=1.0)
        u0 = propagated(bump, -0.5, cfg.symbol)
        u0 = u0 * (1.2 / np.max(np.abs(u0.samples())))
        bound = cfg.timestep_bound(u0)
        at_bound = cfg.replace(dt=bound, t_end=16 * bound)  # 16 steps, past t = 0.5
        check_initial_data(u0, at_bound)
        with pytest.raises(BlowupError, match=r"exceeds the advection bound .*max\|u\|") as exc:
            evolve(u0, at_bound, snapshot_every=2)
        assert exc.value.step_index > 0 and exc.value.step_index % 2 == 0
        # a dt inside the bound of the refocused peak passes every snapshot
        fine = evolve(u0, cfg.replace(dt=1e-3), snapshot_every=1)
        peak = max(np.max(np.abs(f.samples())) for f in fine.fields)
        assert peak > 1.5
        n_safe = math.ceil(0.5 / (0.9 * CFL_SAFETY * g.dx / peak**cfg.k))
        safe = cfg.replace(dt=0.5 / n_safe)
        assert evolve(u0, safe, snapshot_every=2).times[-1] == n_safe * safe.dt

    @pytest.mark.parametrize("integrator,nonlinearity,per_step", [
        ("ifrk4", True, 4), ("split_step", True, 2), ("ifrk4", False, 0)])
    def test_counts_nonlinear_evaluations(self, integrator, nonlinearity, per_step):
        g = Grid(64, 10.0)
        u0 = gaussian_bump(g, amplitude=0.3, width=1.5)
        cfg = small_config(g, dt=0.01, t_end=0.12, integrator=integrator,
                           include_nonlinearity=nonlinearity)
        traj = evolve(u0, cfg, snapshot_every=5)
        assert traj.n_steps == cfg.n_steps == 12
        assert traj.nonlinear_evaluations == per_step * traj.n_steps

    def test_snapshot_cadence_validated(self, rng):
        g = Grid(64, 10.0)
        with pytest.raises(ConfigError):
            evolve(0.1 * random_mean_zero(g, rng), small_config(g), snapshot_every=0)


class TestStackedRows:
    """_evolve_rows steps configs that differ only in gamma as one stack;
    each row must be bit-identical to its own evolve."""

    @pytest.mark.parametrize("integrator,nonlinearity,t_end", [
        ("ifrk4", True, 0.2), ("ifrk4", True, 0.19), ("split_step", True, 0.19),
        ("ifrk4", False, 0.2)])
    def test_rows_equal_single_runs(self, integrator, nonlinearity, t_end):
        g = Grid(256, 40.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        cfgs = [small_config(g, gamma=gamma, t_end=t_end, integrator=integrator,
                             include_nonlinearity=nonlinearity) for gamma in (0.0, 0.3, 0.01, 1.0)]
        rows = _evolve_rows(u0, cfgs, 3)
        for row, cfg in zip(rows, cfgs):
            assert_same_trajectory(row, evolve(u0, cfg, 3))

    @pytest.mark.parametrize("integrator", ["ifrk4", "split_step"])
    def test_rows_equal_single_runs_past_256_kib(self, integrator):
        # six rows of 4097 complex modes, 393,312 B: from 256 KiB numpy may
        # reuse a temporary operand as the output of a product
        g = Grid(8192, 80.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        cfgs = [small_config(g, gamma=gamma, dt=0.001, t_end=0.005, integrator=integrator)
                for gamma in (0.0, 1e-3, 1e-2, 0.1, 0.3, 1.0)]
        rows = _evolve_rows(u0, cfgs, 5)
        for row, cfg in zip(rows, cfgs):
            assert_same_trajectory(row, evolve(u0, cfg, 5))

    def test_failed_row_raises_its_own_error(self, monkeypatch):
        # the CFL check fails for the gamma = 0.3 run alone, at step 4
        g = Grid(128, 20.0)
        u0 = gaussian_bump(g, amplitude=0.4, width=2.0)
        cfgs = [small_config(g, gamma=gamma, t_end=0.1) for gamma in (0.0, 0.3, 1.0)]
        target = evolve(u0, cfgs[1], 2).fields[2].samples()
        original = SolverConfig._timestep_breach

        def breach(self, u, name):
            hit = self.gamma == 0.3 and np.array_equal(u.samples(), target)
            return "forced breach" if hit else original(self, u, name)

        monkeypatch.setattr(SolverConfig, "_timestep_breach", breach)
        with pytest.raises(BlowupError) as own:
            evolve(u0, cfgs[1], 2)
        with pytest.raises(BlowupError) as stacked:
            _evolve_rows(u0, cfgs, 2)
        assert str(stacked.value) == str(own.value) == "blowup detected at step 4: forced breach"

    def test_config_errors_raise_before_stepping(self):
        g = Grid(64, 10.0)
        u = Field.from_samples(g, 0.05 + 0.1 * np.cos(2 * np.pi * g.x / 10.0))
        with pytest.raises(MeanZeroViolation):
            _evolve_rows(u, [small_config(g, gamma=gamma) for gamma in (0.0, 1.0)], 5)


class TestSoliton:
    def test_profile_peaks_at_center(self):
        g = Grid(1024, 80.0)
        field, info = soliton_initial_data(0.7, 5, -1.0, g)
        samples = field.samples()
        assert abs(np.argmax(samples) - 512) <= 1
        assert info["residual"] < 1e-8
        assert info["projection_defect"] > 0

    def test_residual_gate_accepts_resolved_profile(self):
        g = Grid(1024, 80.0)
        _, info = soliton_initial_data(0.5, 5, -1.0, g)
        assert info["residual"] < 1e-8

    def test_residual_gate_rejects_marginal_profile(self):
        # c = 1 on this grid leaves a ~7e-8 spectral-tail residual, which
        # the 1e-8 gate correctly refuses
        g = Grid(1024, 80.0)
        with pytest.raises(SolitonResidualError):
            soliton_initial_data(1.0, 5, -1.0, g)

    def test_width_scales_as_inverse_sqrt_speed(self):
        g = Grid(2048, 80.0)

        def fwhm(c):
            field, info = soliton_initial_data(c, 5, -1.0, g)
            q = field.samples() + info["projection_defect"]
            half = np.max(q) / 2.0
            above = np.where(q >= half)[0]
            lo, hi = above[0], above[-1]
            # linear interpolation of the two half-height crossings
            frac_lo = (q[lo] - half) / (q[lo] - q[lo - 1])
            frac_hi = (q[hi] - half) / (q[hi] - q[hi + 1])
            return (hi - lo + frac_lo + frac_hi) * g.dx

        ratio = fwhm(0.8) / fwhm(0.4)
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.02)

    @pytest.mark.parametrize("n", [64, 250, 1024])
    def test_band_limit_matches_full_spectrum(self, n, rng):
        g = Grid(n, 40.0)
        fine = rng.standard_normal(n * SOLITON_OVERSAMPLING)
        ref = reference_band_limit(fine, g)
        assert np.max(np.abs(band_limit(fine, g) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 250, 1024])
    def test_upsample_matches_full_spectrum(self, n, rng):
        half = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        half[0] = half[0].real
        coeffs = hermitian_extension(half)  # the Nyquist coefficient is complex
        ref = reference_upsample(coeffs)
        assert np.max(np.abs(upsample(coeffs, SOLITON_OVERSAMPLING) - ref)) <= \
            1e-14 * np.max(np.abs(ref))

    def test_translates_at_speed_c(self):
        g = Grid(1024, 80.0)
        c = 0.7
        field, info = soliton_initial_data(c, 5, -1.0, g)
        coeffs = field.coeffs.copy()
        coeffs[0] = info["projection_defect"]
        u0 = Field(g, coeffs)
        cfg = SolverConfig(beta=-1.0, gamma=0.0, k=5, dt=0.00125, t_end=0.5, grid=g)
        traj = evolve(u0, cfg, snapshot_every=10**9)
        shifted = Field(g, u0.coeffs * np.exp(-1j * g.wavenumbers * c * 0.5))
        err = (traj.final() - shifted).l2_norm() / u0.l2_norm()
        assert err < 1e-3


class TestPicard:
    def test_zero_data_fixed_at_first_iteration(self):
        g = Grid(64, 10.0)
        cfg = small_config(g, dt=0.005, t_end=0.05)
        stf, diffs = picard_iterate(zero_field(g), cfg, delta=0.05, n_iters=5)
        assert len(diffs) == 1 and diffs[0] == 0.0
        assert np.all(stf.values == 0.0)

    def test_contracts_on_small_data(self):
        g = Grid(256, 32.0)
        u0 = scaled_to_h1(gaussian_bump(g, amplitude=0.3, width=2.0), 0.1)
        cfg = small_config(g, dt=1e-4, t_end=0.05)
        _, diffs = picard_iterate(u0, cfg, delta=0.05, n_iters=12)
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        assert ratios and all(r < 0.5 for r in ratios)

    def test_agrees_with_time_stepper(self):
        g = Grid(256, 32.0)
        u0 = scaled_to_h1(gaussian_bump(g, amplitude=0.3, width=2.0), 0.1)
        cfg = small_config(g, dt=1e-4, t_end=0.05)
        stf, _ = picard_iterate(u0, cfg, delta=0.05, n_iters=12)
        traj = evolve(u0, cfg.replace(t_end=0.05), snapshot_every=10**9)
        final = Field.from_samples(g, stf.values[-1])
        assert (traj.final() - final).l2_norm() < 1e-6

    def test_lattice_must_divide_delta(self):
        g = Grid(64, 10.0)
        cfg = small_config(g, dt=0.007, t_end=0.21)
        with pytest.raises(ConfigError, match="does not evenly divide"):
            picard_iterate(zero_field(g), cfg, delta=0.05, n_iters=3)

    @pytest.mark.parametrize("delta", [0.005, 0.003])
    def test_lattice_needs_two_steps(self, delta):
        g = Grid(64, 10.0)
        cfg = small_config(g, dt=0.005)
        with pytest.raises(ConfigError, match="fewer than two steps of dt = 0.005"):
            picard_iterate(zero_field(g), cfg, delta=delta, n_iters=3)


def picard_case(name):
    """(u0, cfg, delta, n_iters) of the streamed-map oracle cases."""
    if name in ("picard_cfg", "zero"):  # scripts/configs/picard.cfg: 501 lattice rows
        g = Grid(256, 32.0)
        u0 = scaled_to_h1(gaussian_bump(g, amplitude=0.3, width=2.0), 0.1)
        u0 = zero_field(g) if name == "zero" else u0
        return u0, small_config(g, dt=1e-4, t_end=0.05), 0.05, 12
    g = Grid(64, 10.0)
    if name == "ragged":  # 72 rows: not a multiple of 7 or 64
        return gaussian_bump(g, amplitude=0.5, width=1.5), small_config(g, dt=1e-3), 0.071, 12
    # three growing ratios in a row: ContractionFailureError
    return gaussian_bump(g, amplitude=3.0, width=1.5), small_config(g, dt=1e-3), 0.2, 30


BLOCKS = [1, 7, 64, "whole"]  # "whole": one block of n_lat + 1 rows


def set_picard_block(monkeypatch, block, cfg, delta, n_iters):
    if block == "whole":
        block = picard_lattice(cfg, delta, n_iters) + 1
    monkeypatch.setattr(solver, "PICARD_BLOCK", block)


class TestPicardBlocks:
    """picard_iterate's in-place row blocks against the map over the whole
    lattice (tests/_reference.py): the same bytes at every block size."""

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("name", ["picard_cfg", "zero", "ragged"])
    def test_equals_whole_lattice(self, monkeypatch, name, block):
        u0, cfg, delta, n_iters = picard_case(name)
        set_picard_block(monkeypatch, block, cfg, delta, n_iters)
        stf, diffs = picard_iterate(u0, cfg, delta, n_iters)
        ref, ref_diffs = whole_lattice_picard(u0, cfg, delta, n_iters)
        assert diffs == ref_diffs
        assert stf.values.tobytes() == ref.values.tobytes()  # a zero's sign counts too

    @pytest.mark.parametrize("block", BLOCKS)
    def test_same_contraction_failure(self, monkeypatch, block):
        u0, cfg, delta, n_iters = picard_case("growing")
        set_picard_block(monkeypatch, block, cfg, delta, n_iters)
        with pytest.raises(ContractionFailureError) as ref:
            whole_lattice_picard(u0, cfg, delta, n_iters)
        with pytest.raises(ContractionFailureError) as exc:
            picard_iterate(u0, cfg, delta, n_iters)
        assert exc.value.factors == ref.value.factors

    def test_peak_memory_below_four_lattice_arrays(self):
        # forward, the iterate and the returned samples, plus one block; the
        # whole-lattice map held about eight lattice arrays (8.0 MiB here)
        u0, cfg, delta, n_iters = picard_case("picard_cfg")
        rows = picard_lattice(cfg, delta, n_iters) + 1
        lattice_bytes = rows * (cfg.grid.n_points // 2 + 1) * 16  # complex half spectra
        picard_iterate(u0, cfg, delta, n_iters)  # the cached flux table, built once
        tracemalloc.start()
        try:
            picard_iterate(u0, cfg, delta, n_iters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * lattice_bytes


def nyquist_datum(grid):
    """A mean-zero bump plus a real Nyquist coefficient of 1e-3."""
    c = gaussian_bump(grid, amplitude=0.3, width=1.5).coeffs.copy()
    c[grid.nyquist_index] = 1e-3
    return Field(grid, c)


class TestHalfSpectrumOracle:
    """The half-spectrum solver against the full-spectrum reference: equal
    to within REFERENCE_RTOL * ||u0|| in L2, on grids where norm="forward"
    scales exactly (n a power of two) and where it does not (n = 250)."""

    @pytest.mark.parametrize("n", [64, 256, 1024, 250])
    @pytest.mark.parametrize("integrator", ["ifrk4", "split_step"])
    def test_evolve_matches_full_spectrum(self, n, integrator):
        g = Grid(n, 40.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        cfg = small_config(g, dt=0.005, t_end=0.075, integrator=integrator)
        traj = evolve(u0, cfg, snapshot_every=4)
        ref = reference_evolve(u0, cfg, 4)
        assert len(traj.fields) == len(ref) == 5
        for field, coeffs in zip(traj.fields, ref):
            assert (field - Field(g, coeffs)).l2_norm() <= REFERENCE_RTOL * u0.l2_norm()

    def test_nonzero_nyquist_datum_matches_full_spectrum(self):
        g = Grid(256, 40.0)
        u0 = nyquist_datum(g)
        cfg = small_config(g, dt=0.005, t_end=0.1)
        traj = evolve(u0, cfg, snapshot_every=5)
        ref = reference_evolve(u0, cfg, 5)
        for field, coeffs in zip(traj.fields, ref):
            assert (field - Field(g, coeffs)).l2_norm() <= REFERENCE_RTOL * u0.l2_norm()
            # the reference's sample synthesis: the real part of the complex ifft
            samples = np.fft.ifft(coeffs * g.n_points).real
            assert np.max(np.abs(field.samples() - samples)) <= 1e-13 * np.max(np.abs(samples))
        nyquist = traj.final().coeffs[g.nyquist_index]
        assert abs(nyquist) == pytest.approx(1e-3) and abs(nyquist.imag) > 1e-5

    def test_snapshot_spectra_exactly_conjugate_symmetric(self):
        g = Grid(128, 20.0)
        traj = evolve(nyquist_datum(g), small_config(g, dt=0.01, t_end=0.1), snapshot_every=3)
        for field in traj.fields[1:]:
            c = field.coeffs
            assert np.array_equal(c[:0:-1][:63], np.conj(c[1:64]))

    @pytest.mark.parametrize("n", [64, 256, 1024, 250])
    def test_picard_matches_full_spectrum(self, n):
        g = Grid(n, 32.0)
        u0 = scaled_to_h1(gaussian_bump(g, amplitude=0.3, width=2.0), 0.1)
        cfg = small_config(g, dt=1e-3, t_end=0.02)
        stf, diffs = picard_iterate(u0, cfg, delta=0.02, n_iters=12)
        values, ref_diffs = reference_picard(u0, cfg, 0.02, 12)
        bound = REFERENCE_RTOL * u0.l2_norm()
        assert len(diffs) == len(ref_diffs) >= 2
        assert np.all(np.abs(np.asarray(diffs) - ref_diffs) <= bound)
        l2 = np.sqrt(g.dx * np.sum((stf.values - values) ** 2, axis=1))
        assert np.max(l2) <= bound


class TestHamiltonianFormula:
    def test_gamma_term_skipped_when_zero(self, rng):
        g = Grid(128, 10.0)
        u = 0.3 * random_mean_zero(g, rng)
        cfg_rot = small_config(g, gamma=2.0)
        cfg_kdv = small_config(g, gamma=0.0)
        anti = apply_multiplier(u, MultiplierSpec.derivative(-1)).samples()
        difference = hamiltonian(u, cfg_kdv) - hamiltonian(u, cfg_rot)
        assert difference == pytest.approx(np.sum(anti**2) * g.dx, rel=1e-10)

    def test_no_mean_check_and_same_value(self, rng, monkeypatch):
        # evolve checks u0 once and conserves mode 0, so H does not re-check
        g = Grid(128, 10.0)
        u = 0.3 * random_mean_zero(g, rng)
        cfg = small_config(g, gamma=2.0)
        ux = apply_multiplier(u, MultiplierSpec.derivative(1)).samples()
        vi = apply_multiplier(u, MultiplierSpec.derivative(-1)).samples()
        density = -(cfg.beta / 2.0) * ux**2 - _int_power(u.samples(), 7) / (6 * 7)
        expected = float(np.sum(density - (cfg.gamma / 2.0) * vi**2) * g.dx)
        calls = []
        monkeypatch.setattr(spectral, "require_mean_zero", lambda *a: calls.append(a))
        assert hamiltonian(u, cfg) == expected
        assert calls == []
