import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrovsky.errors import ConfigError, MeanZeroViolation
from ostrovsky.spectral import (
    Field,
    Grid,
    MultiplierSpec,
    PhaseSymbol,
    apply_multiplier,
    dealias,
    dealias_cutoff,
    project_zero_mean,
)

from _reference import complex_analysis
from _util import random_mean_zero


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
            out = apply_multiplier(f, MultiplierSpec.propagator(t, PhaseSymbol(-1.0, 1.0)))
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
            MultiplierSpec.propagator(2.7, sym),
        ]
        for spec in specs:
            # the inverse transform's imaginary part, relative to its real part
            z = np.fft.ifft(apply_multiplier(f, spec).coeffs * g.n_points)
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
        one = apply_multiplier(
            apply_multiplier(f, MultiplierSpec.propagator(t1, sym)),
            MultiplierSpec.propagator(t2, sym),
        )
        both = apply_multiplier(f, MultiplierSpec.propagator(t1 + t2, sym))
        assert (one - both).l2_norm() <= 1e-12 * max(f.l2_norm(), 1e-30)

    @given(t=st.floats(-50.0, 50.0, allow_nan=False))
    def test_propagator_isometry(self, t):
        g = Grid(64, 2 * np.pi)
        f = random_mean_zero(g, np.random.default_rng(13))
        out = apply_multiplier(f, MultiplierSpec.propagator(t, PhaseSymbol(-0.7, 2.0)))
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

