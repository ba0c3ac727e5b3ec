import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ostrovsky.spectral
from ostrovsky.errors import ConfigError, MeanZeroViolation
from ostrovsky.estimates import ALL_TAGS, _multilinear_weights, default_ensemble
from ostrovsky.norms import ModulationWeight, SpaceTimeField
from ostrovsky.solver import SolverConfig, _Stepper
from ostrovsky.spectral import (
    Field,
    Grid,
    MultiplierSpec,
    PhaseSymbol,
    angular_frequencies,
    apply_multiplier,
    dealias,
    dealias_cutoff,
    dft,
    fft_mode_numbers,
    half_spectrum,
    mirror_slot,
    mode_slots,
    parseval_weights,
    project_zero_mean,
)

from _reference import complex_analysis
from _util import propagated, random_mean_zero


class TestGrid:
    def test_odd_point_count_rejected(self):
        with pytest.raises(ConfigError):
            Grid(65, 1.0)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            Grid(4, 1.0)

    def test_wavenumbers_pair_up(self):
        g = Grid(64, 5.0)
        xi = g.wavenumbers
        for j in range(1, 32):
            assert xi[-j] == -xi[j]
        # Nyquist housed positive
        assert xi[32] == pytest.approx(2 * np.pi * 32 / 5.0)


class TestTransforms:
    def test_cosine_coefficients(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.cos(g.x))
        assert abs(f.coeffs[1] - 0.5) < 1e-14
        assert abs(f.coeffs[-1] - 0.5) < 1e-14
        others = np.delete(np.abs(f.coeffs), [1, 63])
        assert np.max(others) < 1e-14

    def test_zero_field(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.zeros(64))
        assert np.all(f.coeffs == 0)

    def test_roundtrip_random(self, rng):
        g = Grid(256, 3.0)
        u = rng.standard_normal(256)
        back = Field.from_coeffs(g, Field.from_samples(g, u).coeffs).samples()
        assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    def test_roundtrip_sizes(self, n, rng):
        g = Grid(n, 17.3)
        u = rng.standard_normal(n)
        back = Field.from_coeffs(g, Field.from_samples(g, u).coeffs).samples()
        assert np.max(np.abs(back - u)) < 1e-12

    def test_parseval(self, rng):
        g = Grid(128, 7.0)
        u = rng.standard_normal(128)
        f = Field.from_samples(g, u)
        physical = np.sum(u**2) * g.dx
        spectral = g.length * np.sum(np.abs(f.coeffs) ** 2)
        assert physical == pytest.approx(spectral, rel=1e-12)
        half = g.length * np.sum(parseval_weights(128) * np.abs(half_spectrum(f.coeffs)) ** 2)
        assert half == pytest.approx(spectral, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 10])
    def test_mode_slots_place_signed_modes(self, n):
        j = fft_mode_numbers(n)
        slots, housed = mode_slots(j, n)
        assert np.array_equal(slots, np.arange(n)) and housed.all()
        assert not mode_slots(np.array([-(n // 2), n // 2 + 1]), n)[1].any()
        assert np.array_equal(j[mirror_slot(j, n)], np.where(j == n // 2, j, -j))

    def test_conjugate_symmetry(self, rng):
        for n in (64, 128, 250, 1024):
            c = Field.from_samples(Grid(n, 7.0), rng.standard_normal(n)).coeffs
            assert np.array_equal(c, np.conj(c[(-np.arange(n)) % n]))

    @pytest.mark.parametrize("n", [64, 250, 1024])
    def test_analysis_matches_complex_fft(self, n, rng):
        g = Grid(n, 7.0)
        u = rng.standard_normal(n)
        ref = complex_analysis(u)
        assert abs(ref[g.nyquist_index]) > 0
        c = Field.from_samples(g, u).coeffs
        assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestPhaseSymbol:
    def test_direct_substitution(self):
        # beta*xi^3 + gamma/xi at (-1, 1, 2): -8 + 0.5
        assert PhaseSymbol(-1.0, 1.0)(2.0) == -7.5

    def test_root_at_unit_frequency(self):
        assert PhaseSymbol(-1.0, 1.0)(1.0) == 0.0

    def test_odd_symmetry(self, rng):
        # numpy's power is odd in its base only to rounding, as in table()
        sym = PhaseSymbol(-1.0, 1.0)
        xi = rng.uniform(0.1, 50.0, size=100)
        assert np.allclose(sym(-xi), -sym(xi), rtol=1e-15, atol=0.0)
        for x in xi[:10]:
            assert sym(-x) == pytest.approx(-sym(x), rel=1e-15, abs=0.0)

    def test_zero_mode_maps_to_zero(self):
        sym = PhaseSymbol(-1.0, 1.0)
        assert sym(0.0) == 0.0
        assert sym.derivative(0.0) == 0.0
        assert np.array_equal(sym(np.array([0.0, 2.0])), [0.0, -7.5])

    def test_derivative_matches_centred_difference(self):
        sym = PhaseSymbol(-1.3, 0.8)
        xi = np.array([-7.0, -2.5, -0.4, 0.3, 1.0, 6.0])
        h = 1e-6
        fd = (sym(xi + h) - sym(xi - h)) / (2.0 * h)
        assert np.allclose(sym.derivative(xi), fd, rtol=1e-7, atol=0.0)
        g = Grid(64, 5.0)
        assert np.array_equal(sym.derivative(g.wavenumbers), sym.derivative_table(g))
        assert np.array_equal(sym(g.wavenumbers), sym.table(g))

    def test_table_zero_mode_and_oddness(self):
        g = Grid(64, 2 * np.pi)
        phi = PhaseSymbol(-1.0, 1.0).table(g)
        assert phi[0] == 0.0
        for j in range(1, 32):
            assert phi[-j] == -phi[j]

    def test_gamma_zero_is_pure_cubic(self):
        g = Grid(64, 2 * np.pi)
        phi = PhaseSymbol(-2.0, 0.0).table(g)
        xi = g.wavenumbers
        nz = xi != 0
        assert np.array_equal(phi[nz], -2.0 * xi[nz] ** 3)


class TestMultipliers:
    def test_antiderivative_of_sine(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.sin(g.x))
        out = apply_multiplier(f, MultiplierSpec.derivative(-1))
        assert np.max(np.abs(out.samples() + np.cos(g.x))) < 1e-12

    def test_propagator_fixes_unit_mode(self):
        # phi(1) = beta + gamma = 0 at (-1, 1): cos x is stationary
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.cos(g.x))
        for t in (0.1, 3.0, 100.0):
            out = propagated(f, t, PhaseSymbol(-1.0, 1.0))
            assert np.max(np.abs(out.samples() - np.cos(g.x))) < 1e-12

    def test_antiderivative_requires_mean_zero(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, 1.0 + np.cos(g.x))
        with pytest.raises(MeanZeroViolation) as exc:
            apply_multiplier(f, MultiplierSpec.derivative(-1))
        assert abs(exc.value.mean - 1.0) < 1e-14

    def test_realness_preserved(self, rng):
        g = Grid(128, 11.0)
        f = random_mean_zero(g, rng)
        sym = PhaseSymbol(-1.0, 0.5)
        specs = [
            MultiplierSpec.derivative(1),
            MultiplierSpec.derivative(3),
            MultiplierSpec.derivative(-1),
            MultiplierSpec.fractional_d(0.5),
            MultiplierSpec.low_pass(3.0),
            MultiplierSpec.high_pass(3.0),
        ]
        for out in [apply_multiplier(f, spec) for spec in specs] + [propagated(f, 2.7, sym)]:
            # the inverse transform's imaginary part, relative to its real part
            z = np.fft.ifft(out.coeffs * g.n_points)
            assert np.max(np.abs(z.imag)) < 1e-12 * max(np.max(np.abs(z.real)), 1e-300)

    def test_derivative_inversion(self, rng):
        g = Grid(256, 9.0)
        f = random_mean_zero(g, rng)
        back = apply_multiplier(
            apply_multiplier(f, MultiplierSpec.derivative(-1)), MultiplierSpec.derivative(1)
        )
        assert (back - f).l2_norm() < 1e-10 * f.l2_norm()

    @given(
        t1=st.floats(-5.0, 5.0, allow_nan=False),
        t2=st.floats(-5.0, 5.0, allow_nan=False),
    )
    def test_propagator_group_property(self, t1, t2):
        g = Grid(64, 2 * np.pi)
        rng = np.random.default_rng(7)
        f = random_mean_zero(g, rng)
        sym = PhaseSymbol(-1.0, 1.0)
        one = propagated(propagated(f, t1, sym), t2, sym)
        both = propagated(f, t1 + t2, sym)
        assert (one - both).l2_norm() <= 1e-12 * max(f.l2_norm(), 1e-30)

    @given(t=st.floats(-50.0, 50.0, allow_nan=False))
    def test_propagator_isometry(self, t):
        g = Grid(64, 2 * np.pi)
        f = random_mean_zero(g, np.random.default_rng(13))
        out = propagated(f, t, PhaseSymbol(-0.7, 2.0))
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


class TestProjectionAndDealias:
    def test_constant_removed(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, 1.0 + np.cos(g.x))
        out = project_zero_mean(f)
        assert np.max(np.abs(out.samples() - np.cos(g.x))) < 1e-13

    def test_idempotent_bitwise(self, rng):
        g = Grid(64, 2 * np.pi)
        f = project_zero_mean(Field.from_samples(g, rng.standard_normal(64)))
        again = project_zero_mean(f)
        assert np.array_equal(f.coeffs, again.coeffs)

    def test_random_mean(self, rng):
        g = Grid(128, 5.0)
        out = project_zero_mean(Field.from_samples(g, rng.standard_normal(128)))
        assert abs(np.mean(out.samples())) < 1e-15

    def test_cutoff_values(self):
        assert dealias_cutoff(256, 6) == 36
        assert dealias_cutoff(96, 2) == 32  # classical 2/3 rule

    def test_band_limited_unchanged(self, rng):
        g = Grid(96, 2 * np.pi)
        f = random_mean_zero(g, rng, band_fraction=0.5)
        cut = dealias_cutoff(96, 2)
        keep = np.abs(g.mode_numbers) <= cut
        c = np.where(keep, f.coeffs, 0.0)
        banded = Field(g, c)
        out = dealias(banded, 2)
        assert np.array_equal(out.coeffs, banded.coeffs)

    def test_degree_validation(self, rng):
        g = Grid(64, 1.0)
        with pytest.raises(ConfigError):
            dealias(random_mean_zero(g, rng), 1)


class TestLayoutHome:
    SRC = pathlib.Path(ostrovsky.spectral.__file__).parent

    def test_fft_only_in_spectral(self):
        # multilinear_ratio's padded lattice convolution is not a periodic field
        tree = ast.parse((self.SRC / "estimates.py").read_text())
        lattice = next(f for f in tree.body
                       if isinstance(f, ast.FunctionDef) and f.name == "multilinear_ratio")
        allowed = range(lattice.lineno, lattice.end_lineno + 1)
        found = [(path.name, i) for path in sorted(self.SRC.glob("*.py"))
                 if path.name != "spectral.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if ("np.fft" in line or "numpy.fft" in line)
                 and not (path.name == "estimates.py" and i in allowed)]
        assert found == []

    def test_free_evolution_only_in_spectral(self):
        # e^{-i t phi} and 1 + |tau + phi| are PhaseSymbol's; the kernel's
        # np.exp(1j * ...) integrand is another formula
        found = [(path.name, i) for path in sorted(self.SRC.glob("*.py"))
                 if path.name != "spectral.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "np.exp(-1j" in line or "1.0 + np.abs(tau" in line]
        assert found == []

    def test_package_root_imports_nothing(self):
        tree = ast.parse((self.SRC / "__init__.py").read_text())
        assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


class TestFreeEvolutionTables:
    """Each table PhaseSymbol now builds, bit for bit the inline formula
    its call site wrote before."""

    SYM = PhaseSymbol(-1.0, 1.0)

    @pytest.mark.parametrize("t", [0.7, -0.5, 0.2, 2.0])
    def test_multiplier_propagator(self, t):
        g = Grid(128, 20.0)
        assert np.array_equal(self.SYM.propagator(t, g.wavenumbers),
                              np.exp(-1j * t * self.SYM.table(g)))

    def test_stepper_factors(self):
        g = Grid(256, 32.0)
        for dt in (0.005, 1e-4):
            cfgs = [SolverConfig(beta=-1.0, gamma=gamma, k=5, dt=dt, t_end=1.0, grid=g)
                    for gamma in (0.0, 1e-3, 0.1, 1.0)]
            phi = np.array([half_spectrum(c.symbol.table(g)) for c in cfgs])
            assert np.array_equal(_Stepper(cfgs).e_half, np.exp(-1j * phi * (dt / 2.0)))

    def test_picard_lattice(self):
        g = Grid(128, 20.0)
        t_lat = np.arange(501) * 1e-4
        phi = half_spectrum(self.SYM.table(g))
        assert np.array_equal(self.SYM.propagator(t_lat, half_spectrum(g.wavenumbers)),
                              np.exp(-1j * t_lat[:, None] * phi[None, :]))

    def test_window_frequencies(self):
        for n, period in ((64, 20.0), (512, 16 * math.pi), (7, 0.25)):
            j = fft_mode_numbers(n)
            assert np.array_equal(angular_frequencies(n, period), 2.0 * np.pi * j / period)
        g = Grid(128, 20.0)
        stf = SpaceTimeField(g, 0.5, np.zeros((32, 128)))
        assert np.array_equal(ModulationWeight.build(stf, self.SYM).table,
                              1.0 + np.abs(stf.tau()[:, None] + self.SYM.table(g)[None, :]))

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_ensemble_tables(self, tag):
        ens = default_ensemble(tag, 1, 2)
        modes = ens.support_modes()
        phi = ens.symbol.table(ens.grid)[modes]
        assert np.array_equal(ens.phase_table,
                              np.exp(-1j * ens.times()[:, None] * phi[None, :]))
        ell = fft_mode_numbers(ens.n_t)
        tau = (2.0 * np.pi * ell / ens.t_window)[:, None]
        d2 = np.abs(dft(ens.window[:, None] * ens.phase_table, (0,))) ** 2
        plus = (1.0 + np.abs(tau + phi)) ** (2.0 * ens.b) * d2
        minus = (1.0 + np.abs(tau - phi)) ** (2.0 * ens.b) * d2[mirror_slot(ell, ens.n_t)]
        assert np.array_equal(ens.modulation_weights,
                              np.sum(plus, axis=0) + np.sum(minus, axis=0))
        idx = np.sort(np.concatenate([modes, mirror_slot(modes, ens.grid.n_points)]))
        assert np.array_equal(  # _bilinear_spectra's phases
            ens.symbol.propagator(ens.times(), ens.grid.wavenumbers[idx]),
            np.exp(-1j * ens.times()[:, None] * ens.symbol.table(ens.grid)[idx][None, :]))

    @pytest.mark.parametrize("cells", [16, 64, 128])
    def test_multilinear_modulation(self, cells):
        idx = np.arange(-cells // 2, cells // 2)
        xi, tau = idx * 0.125, idx * 0.25
        outer, inner = _multilinear_weights(cells, 0.125, 0.25, self.SYM, 0.1, 0.52, 1e-3)
        sigma = 1.0 + np.abs(tau[None, :] + self.SYM(xi)[:, None])  # (xi, tau)
        xi_weight = (1.0 + np.abs(xi)) ** 0.1
        assert np.array_equal(outer, (np.abs(xi)[:, None] * xi_weight[:, None])
                              / sigma ** (0.5 - 1e-3 / 12.0))
        assert np.array_equal(inner, 1.0 / (xi_weight[:, None] * sigma**0.52))
