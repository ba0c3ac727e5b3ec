import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrovsky.errors import ConfigError, MeanZeroViolation
from ostrovsky.norms import (
    ModulationWeight,
    SpaceTimeField,
    h_s_norm,
    mixed_norm,
    time_bump,
    window_bump,
    x_s_norm,
    xsb_norm,
    xtilde_sb_norm,
)
from ostrovsky.spectral import Field, Grid, PhaseSymbol

from _util import random_mean_zero


def propagator_window(grid, coeffs, symbol, t_window, n_t):
    phi = symbol.table(grid)
    t = np.arange(n_t) * (t_window / n_t)
    spec = np.exp(-1j * t[:, None] * phi[None, :]) * coeffs[None, :]
    return SpaceTimeField(grid, t_window, np.fft.ifft(spec * grid.n_points, axis=1).real)


class TestHs:
    def test_cosine_parseval(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.cos(g.x))
        assert h_s_norm(f, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_cosine_weighted(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.cos(g.x))
        assert h_s_norm(f, 1.0) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)

    def test_zero_field(self):
        g = Grid(64, 2 * np.pi)
        assert h_s_norm(Field.zero(g), 3.7) == 0.0

    @given(s1=st.floats(-2, 4), s2=st.floats(-2, 4))
    def test_monotone_in_s(self, s1, s2):
        if s1 > s2:
            s1, s2 = s2, s1
        g = Grid(64, 2 * np.pi)
        f = random_mean_zero(g, np.random.default_rng(3))
        assert h_s_norm(f, s1) <= h_s_norm(f, s2) * (1 + 1e-12)


class TestXs:
    def test_unit_frequency(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.cos(g.x))
        assert x_s_norm(f, 0.0) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)

    def test_second_harmonic(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.cos(2 * g.x))
        expected = math.sqrt(math.pi) * 1.5
        assert x_s_norm(f, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_nonzero_mean_rejected(self):
        g = Grid(64, 2 * np.pi)
        with pytest.raises(MeanZeroViolation):
            x_s_norm(Field.from_samples(g, 1.0 + np.cos(g.x)), 0.0)

    def test_dominates_h_s(self, rng):
        g = Grid(128, 9.0)
        f = random_mean_zero(g, rng)
        for s in (-1.0, 0.0, 2.0):
            assert x_s_norm(f, s) >= h_s_norm(f, s)

    def test_triangle_inequality(self, rng):
        g = Grid(128, 9.0)
        f, h = random_mean_zero(g, rng), random_mean_zero(g, rng)
        for norm in (lambda v: h_s_norm(v, 1.5), lambda v: x_s_norm(v, 1.5)):
            assert norm(f + h) <= norm(f) + norm(h) + 1e-10


class TestMixed:
    def test_constant_field(self):
        g = Grid(64, 2 * np.pi)
        stf = SpaceTimeField(g, 1.0, np.ones((16, 64)))
        for order in ("t_outer", "x_outer"):
            assert mixed_norm(stf, 2, 2, order) == pytest.approx(math.sqrt(2 * np.pi), rel=1e-12)

    def test_time_independent_sup(self, rng):
        g = Grid(64, 2 * np.pi)
        profile = rng.standard_normal(64)
        values = np.tile(profile, (16, 1))
        stf_short = SpaceTimeField(g, 0.5, values)
        stf_long = SpaceTimeField(g, 50.0, values)
        expected = math.sqrt(np.sum(profile**2) * g.dx)
        for stf in (stf_short, stf_long):
            assert mixed_norm(stf, math.inf, 2, "t_outer") == pytest.approx(expected, rel=1e-12)

    def test_square_sum_oracle(self, rng):
        g = Grid(64, 3.0)
        values = rng.standard_normal((32, 64))
        stf = SpaceTimeField(g, 2.0, values)
        direct = math.sqrt(np.sum(values**2) * g.dx * stf.dt)
        assert mixed_norm(stf, 2, 2) == pytest.approx(direct, rel=1e-12)
        assert mixed_norm(stf, 2, 2, "x_outer") == pytest.approx(direct, rel=1e-12)

    def test_exponent_validation(self, rng):
        g = Grid(64, 3.0)
        stf = SpaceTimeField(g, 1.0, rng.standard_normal((8, 64)))
        with pytest.raises(ConfigError):
            mixed_norm(stf, 0.5, 2)

    def test_triangle_inequality(self, rng):
        g = Grid(64, 3.0)
        a = rng.standard_normal((16, 64))
        b = rng.standard_normal((16, 64))
        for p, q in ((2, 2), (4, 2), (math.inf, 2), (2, math.inf)):
            lhs = mixed_norm(SpaceTimeField(g, 1.0, a + b), p, q)
            rhs = mixed_norm(SpaceTimeField(g, 1.0, a), p, q) + mixed_norm(
                SpaceTimeField(g, 1.0, b), p, q
            )
            assert lhs <= rhs + 1e-10


class TestXsb:
    def test_zero_field(self):
        g = Grid(64, 2 * np.pi)
        stf = SpaceTimeField(g, 1.0, np.zeros((16, 64)))
        assert xsb_norm(stf, 1.0, 0.5, PhaseSymbol(-1.0, 1.0)) == 0.0

    def test_unweighted_is_l2(self, rng):
        g = Grid(64, 5.0)
        stf = SpaceTimeField(g, 2.0, rng.standard_normal((32, 64)))
        assert xsb_norm(stf, 0.0, 0.0, PhaseSymbol(-1.0, 1.0)) == pytest.approx(
            mixed_norm(stf, 2, 2), rel=1e-10
        )

    def test_propagator_orbit_reduces_to_initial_norm(self, rng):
        # b = 0 collapses the modulation weight; Parseval in time gives
        # sqrt(T) * ||u0||_{H^s} exactly for the free orbit
        g = Grid(64, 2 * np.pi)
        f = random_mean_zero(g, rng)
        sym = PhaseSymbol(-1.0, 1.0)
        stf = propagator_window(g, f.coeffs, sym, 0.75, 64)
        for s in (0.0, 1.0):
            expected = math.sqrt(0.75) * h_s_norm(f, s)
            assert xsb_norm(stf, s, 0.0, sym) == pytest.approx(expected, rel=0.02)

    def test_translation_invariance(self, rng):
        g = Grid(64, 5.0)
        values = rng.standard_normal((32, 64))
        sym = PhaseSymbol(-1.0, 0.3)
        base = xsb_norm(SpaceTimeField(g, 2.0, values), 0.7, 0.4, sym)
        rolled = xsb_norm(SpaceTimeField(g, 2.0, np.roll(values, 11, axis=1)), 0.7, 0.4, sym)
        assert rolled == pytest.approx(base, rel=1e-10)

    def test_triangle_inequality(self, rng):
        g = Grid(64, 5.0)
        sym = PhaseSymbol(-1.0, 1.0)
        a = SpaceTimeField(g, 2.0, rng.standard_normal((32, 64)))
        b = SpaceTimeField(g, 2.0, rng.standard_normal((32, 64)))
        both = SpaceTimeField(g, 2.0, a.values + b.values)
        lhs = xsb_norm(both, 0.5, 0.3, sym)
        assert lhs <= xsb_norm(a, 0.5, 0.3, sym) + xsb_norm(b, 0.5, 0.3, sym) + 1e-10

    def test_modulation_weight_at_least_one(self, rng):
        g = Grid(64, 5.0)
        stf = SpaceTimeField(g, 2.0, rng.standard_normal((32, 64)))
        w = ModulationWeight.build(stf, PhaseSymbol(-1.0, 1.0))
        assert np.all(w.table >= 1.0)

    def test_xtilde_adds_antiderivative_part(self, rng):
        g = Grid(64, 2 * np.pi)
        f = random_mean_zero(g, rng)
        sym = PhaseSymbol(-1.0, 1.0)
        stf = propagator_window(g, f.coeffs, sym, 0.5, 32)
        plain = xsb_norm(stf, 0.0, 0.25, sym)
        assert xtilde_sb_norm(stf, 0.0, 0.25, sym) > plain

    def test_xtilde_rejects_one_slice_with_mean(self, rng):
        g = Grid(64, 2 * np.pi)
        sym = PhaseSymbol(-1.0, 1.0)
        stf = propagator_window(g, random_mean_zero(g, rng).coeffs, sym, 0.5, 32)
        values = stf.values.copy()
        values[5] += 0.25
        with pytest.raises(MeanZeroViolation) as exc:
            xtilde_sb_norm(SpaceTimeField(g, 0.5, values), 0.0, 0.25, sym)
        assert exc.value.mean == pytest.approx(0.25, rel=1e-12)

    def test_odd_sample_count_rejected_for_table(self, rng):
        g = Grid(64, 5.0)
        stf = SpaceTimeField(g, 2.0, rng.standard_normal((9, 64)))
        with pytest.raises(ConfigError):
            stf.spectral_table()

    def test_2d_parseval_roundtrip(self, rng):
        g = Grid(64, 5.0)
        values = rng.standard_normal((32, 64))
        stf = SpaceTimeField(g, 2.0, values)
        table = stf.spectral_table()
        back = np.fft.ifft2(table * 32 * 64).real
        assert np.max(np.abs(back - values)) < 1e-10
        assert np.sum(np.abs(table) ** 2) * 32 * 64 == pytest.approx(
            np.sum(values**2), rel=1e-10
        )


class TestBump:
    def test_plateau_and_support(self):
        assert time_bump(0.0) == 1.0
        assert time_bump(0.999) == 1.0
        assert time_bump(2.0) == 0.0
        assert time_bump(-2.5) == 0.0
        assert 0.0 < time_bump(1.5) < 1.0

    def test_c2_shoulders(self):
        # second difference stays bounded through the joints
        h = 1e-4
        for edge in (1.0, 2.0):
            t = np.array([edge - h, edge, edge + h])
            second = (time_bump(t[2]) - 2 * time_bump(t[1]) + time_bump(t[0])) / h**2
            assert abs(second) < 10.0

    def test_window_scaling(self):
        t = np.linspace(0, 1.0, 9, endpoint=False)
        w = window_bump(t, 1.0)
        assert w[0] == 0.0
        assert w[4] == 1.0
