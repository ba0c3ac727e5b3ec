import math

import numpy as np
import pytest

from ostrovsky.errors import BoxTooSmallError, ConfigError, QuadratureAccuracyError
from ostrovsky.kernel import (
    KernelSpec,
    RegionTag,
    kernel_eval,
    kernel_mixed_norm,
    region_decay_check,
    stationary_ray_exponent,
)
from ostrovsky.spectral import Field, Grid, MultiplierSpec, PhaseSymbol, apply_multiplier


@pytest.fixture(scope="module")
def spec8():
    return KernelSpec(8.0, -1.0, 1.0)


class TestKernelEval:
    def test_block_measure_at_origin(self, spec8):
        # indicator integral: both blocks together have length 6N
        assert kernel_eval(0.0, 0.0, spec8) == pytest.approx(48.0, abs=1e-9)

    def test_static_closed_form(self, spec8):
        for x in (0.17, 1.3, 9.0):
            closed = 2.0 * (math.sin(32.0 * x) - math.sin(8.0 * x)) / x
            assert kernel_eval(x, 0.0, spec8) == pytest.approx(closed, abs=1e-9)

    def test_brute_force_trapezoid_oracle(self, spec8):
        # 1e6-node trapezoid on the positive block, doubled by symmetry
        x, t = 0.05, 0.01
        xi = np.linspace(8.0, 32.0, 10**6)
        phase = x * xi - t * (-(xi**3) + 1.0 / xi)
        brute = 2.0 * np.trapezoid(np.exp(1j * phase), xi).real
        assert kernel_eval(x, t, spec8) == pytest.approx(brute, abs=1e-7)

    def test_negative_time_rejected(self, spec8):
        with pytest.raises(ConfigError):
            kernel_eval(0.1, -1.0, spec8)

    def test_block_below_threshold_rejected(self):
        with pytest.raises(ConfigError):
            KernelSpec(0.5, -1.0, 1.0, threshold=1.0)

    def test_agrees_with_discrete_propagator(self):
        # trapezoid sampling of the block indicator turns the discrete
        # propagator into a periodized quadrature of the kernel; on a box
        # several times 100/N the images contribute below 1%
        n_block = 8.0
        spec = KernelSpec(n_block, -1.0, 1.0)
        # box > 100/N with the block edges landing exactly on grid modes
        grid = Grid(2048, 16 * math.pi)
        sym = PhaseSymbol(-1.0, 1.0)
        dxi = 2.0 * math.pi / grid.length
        absxi = np.abs(grid.wavenumbers)
        inside = (absxi > n_block + 1e-9) & (absxi < 4 * n_block - 1e-9)
        edge = np.isclose(absxi, n_block) | np.isclose(absxi, 4 * n_block)
        c = (inside * dxi + edge * (dxi / 2.0)).astype(complex)
        field = Field(grid, c)
        t = 1e-3
        evolved = apply_multiplier(field, MultiplierSpec.propagator(t, sym))
        u = evolved.samples()
        idxs = (0, 3, 11, 40, 80)
        kvals = np.array([kernel_eval(float(grid.x[i]), t, spec) for i in idxs])
        scale = np.max(np.abs(kvals))
        for i, kv in zip(idxs, kvals):
            assert abs(u[i] - kv) < 0.01 * scale


class TestRegions:
    def test_partition(self, spec8):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-40.0, 40.0)
            t = 10 ** rng.uniform(-6.0, 0.0)
            tag = RegionTag.classify(x, t, spec8)
            if abs(x) <= 1.0 / 8.0:
                assert tag is RegionTag.NEAR_FIELD
            elif abs(x) >= 4000.0 * 64.0 * t:
                assert tag is RegionTag.NON_STATIONARY
            else:
                assert tag is RegionTag.STATIONARY

    def test_near_field_modulus_bound(self, spec8):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.uniform(-1.0 / 8.0, 1.0 / 8.0)
            t = 10 ** rng.uniform(-5.0, -1.0)
            assert abs(kernel_eval(x, t, spec8)) <= 6.0 * 8.0 + 1e-9

    def test_decay_report_small(self):
        spec = KernelSpec(16.0, -1.0, 1.0)
        report = region_decay_check(spec, samples_per_region=20, seed=2)
        assert report.skipped_fraction <= 0.1
        assert report.ray_exponent <= -1.0 / 3.0 + 0.1
        for reg in report.regions.values():
            assert np.isfinite(reg.empirical_constant)

    def test_constants_stable_across_dyadic_blocks(self):
        consts = {}
        for n_block in (8.0, 16.0, 32.0):
            rep = region_decay_check(KernelSpec(n_block, -1.0, 1.0),
                                     samples_per_region=20, seed=2)
            consts[n_block] = rep.regions["NON_STATIONARY"].empirical_constant
        vals = list(consts.values())
        assert max(vals) <= 4.0 * min(vals)


class TestMixedNorm:
    def test_finite_and_tail_controlled(self):
        rep = kernel_mixed_norm(KernelSpec(8.0, -1.0, 1.0), 8.0, n_x=60, n_t=24)
        assert np.isfinite(rep.value) and rep.value > 0
        assert rep.tail_fraction < 0.01

    @pytest.mark.slow
    def test_box_doubling_changes_little(self):
        spec = KernelSpec(8.0, -1.0, 1.0)
        base = kernel_mixed_norm(spec, 8.0, c_t=1.0, n_x=60, n_t=24)
        doubled = kernel_mixed_norm(spec, 8.0, c_t=2.0, n_x=90, n_t=36)
        assert abs(doubled.value - base.value) < 0.02 * base.value

    def test_exponent_regime_validated(self):
        with pytest.raises(ConfigError):
            kernel_mixed_norm(KernelSpec(8.0, -1.0, 1.0), 4.0)


class TestRayExponent:
    def test_self_similar_in_block(self):
        a = stationary_ray_exponent(KernelSpec(16.0, -1.0, 1.0), points_per_ray=17)
        b = stationary_ray_exponent(KernelSpec(32.0, -1.0, 1.0), points_per_ray=17)
        assert a == pytest.approx(b, abs=0.02)
