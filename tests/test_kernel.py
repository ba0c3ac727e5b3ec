import dataclasses
import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest

from ostrovsky import kernel
from ostrovsky.errors import BoxTooSmallError, ConfigError, QuadratureAccuracyError
from ostrovsky.kernel import (
    RAY_OFFSETS,
    KernelSpec,
    QuadratureStats,
    RegionTag,
    _batch_integrals,
    _coarse_samples,
    _kernel_values,
    _levin_values,
    _panel_counts,
    _Panels,
    _scan_slopes,
    kernel_eval,
    kernel_mixed_norm,
    region_decay_check,
    stationary_ray_exponent,
)
from ostrovsky.spectral import Field, Grid, PhaseSymbol

import golden
from _reference import (G7_WEIGHTS, HALF_WAVELENGTH_PANELS, K15_NODES, K15_WEIGHTS,
                        QUARTER_WAVELENGTH_PANELS, classify_region, complex_levin_values,
                        k15_kernel, kronrod_rule, reference_panel_edges)
from _util import propagated


@pytest.fixture(scope="module")
def spec8():
    return KernelSpec(8.0, -1.0, 1.0)


@pytest.fixture
def gauss_kronrod_only(monkeypatch):
    """No point is eligible for Levin collocation."""
    monkeypatch.setattr(kernel, "LEVIN_MIN_TURN", math.inf)


SPEC16 = KernelSpec(16.0, -1.0, 1.0)


def levin_chunk_panels(points):
    """The least CHUNK_PANELS whose Levin chunks hold the given points."""
    return -(-points * kernel.LEVIN_NODES // 31)


# Gauss-Kronrod chunk sizes below, at and above the shipped one, two of
# them those of Levin chunks of 7 and 32 points
CHUNK_SIZES = (1, 7, 61, levin_chunk_panels(7), levin_chunk_panels(32), kernel.CHUNK_PANELS)


@pytest.fixture
def levin_by_eligibility(monkeypatch):
    """Every point the g' scan admits goes to Levin, however few nodes its
    Gauss-Kronrod panels would take: at least 31 on each coarse sub-interval."""
    monkeypatch.setattr(kernel, "LEVIN_NODES", 1)


@pytest.fixture
def absolute_tolerance(monkeypatch):
    """Accept on kernel.ABSOLUTE_TOLERANCE alone, so that a tolerance under the
    relative floor RELATIVE_TOLERANCE * 6N forces refinements and misses."""
    monkeypatch.setattr(kernel, "RELATIVE_TOLERANCE", 0.0)


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

    @pytest.mark.parametrize("x,t", [(math.inf, 0.0), (math.nan, 0.0), (0.1, math.inf)])
    def test_non_finite_point_rejected(self, spec8, x, t):
        with pytest.raises(ConfigError, match="x and t must be finite"):
            kernel_eval(x, t, spec8)

    def test_block_below_threshold_rejected(self):
        with pytest.raises(ConfigError):
            KernelSpec(0.5, -1.0, 1.0, threshold=1.0)

    def test_negative_gamma_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="gamma must be >= 0, got -1.0"):
            KernelSpec(16.0, -1.0, -1.0)

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
        evolved = propagated(field, t, sym)
        u = evolved.samples()
        idxs = (0, 3, 11, 40, 80)
        kvals = np.array([kernel_eval(float(grid.x[i]), t, spec) for i in idxs])
        scale = np.max(np.abs(kvals))
        for i, kv in zip(idxs, kvals):
            assert abs(u[i] - kv) < 0.01 * scale


class TestGaussKronrodRule:
    @pytest.mark.parametrize("n,nodes,weights,gauss_weights,tolerance", [
        (15, kernel._KRONROD_NODES, kernel._KRONROD_WEIGHTS, kernel._GAUSS_WEIGHTS, 1e-15),
        # the earlier pair's literals carry 15 decimals
        (7, K15_NODES, K15_WEIGHTS, G7_WEIGHTS, 2e-15),
    ], ids=["K31", "K15"])
    def test_literals_by_laurie(self, n, nodes, weights, gauss_weights, tolerance):
        # the Kronrod tables from Laurie's algorithm on the Legendre
        # recurrence, the Gauss ones from leggauss at the odd indices
        laurie_nodes, laurie_weights = kronrod_rule(n)
        gauss_nodes, gauss = np.polynomial.legendre.leggauss(n)
        assert nodes.size == weights.size == 2 * n + 1 and gauss_weights.size == n
        assert np.max(np.abs(nodes - laurie_nodes)) <= tolerance
        assert np.max(np.abs(weights - laurie_weights)) <= tolerance
        assert np.max(np.abs(nodes[1::2] - gauss_nodes)) <= tolerance
        assert np.max(np.abs(gauss_weights - gauss)) <= tolerance

    def test_exact_on_monomials(self):
        # K31 integrates x^d exactly up to d = 3*15 + 1 = 46, G15 up to
        # 2*15 - 1 = 29, within rounding; G15 misses x^30 by about 3e-9
        nodes, gauss_nodes = kernel._KRONROD_NODES, kernel._KRONROD_NODES[kernel._GAUSS_SLICE]
        exact = [(1.0 + (-1.0) ** d) / (d + 1.0) for d in range(47)]
        for d in range(47):
            assert abs(kernel._KRONROD_WEIGHTS @ nodes**d - exact[d]) <= 1e-15
        for d in range(30):
            assert abs(kernel._GAUSS_WEIGHTS @ gauss_nodes**d - exact[d]) <= 1e-15
        assert abs(kernel._GAUSS_WEIGHTS @ gauss_nodes**30 - 2.0 / 31.0) > 1e-10


class TestRegions:
    def test_partition(self, spec8):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-40.0, 40.0)
            t = 10 ** rng.uniform(-6.0, 0.0)
            tag = classify_region(x, t, spec8)
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
    def test_box_doubling_changes_little(self, monkeypatch):
        spec = KernelSpec(8.0, -1.0, 1.0)
        base = kernel_mixed_norm(spec, 8.0, n_x=60, n_t=24)
        monkeypatch.setattr(kernel, "MIXED_T_SPAN", 2.0)
        doubled = kernel_mixed_norm(spec, 8.0, n_x=90, n_t=36)
        assert abs(doubled.value - base.value) < 0.02 * base.value

    def test_exponent_regime_validated(self):
        with pytest.raises(ConfigError):
            kernel_mixed_norm(KernelSpec(8.0, -1.0, 1.0), 4.0)

    def test_region_samples_validated(self, spec8):
        with pytest.raises(ConfigError, match="samples_per_region must be >= 1"):
            region_decay_check(spec8, samples_per_region=0)


class TestRayExponent:
    def test_self_similar_in_block(self, monkeypatch):
        monkeypatch.setattr(kernel, "RAY_POINTS", 17)
        a = stationary_ray_exponent(KernelSpec(16.0, -1.0, 1.0))
        b = stationary_ray_exponent(KernelSpec(32.0, -1.0, 1.0))
        assert a == pytest.approx(b, abs=0.02)


def region_points(n_block):
    """Two points per decay region on the self-similar scales, then two
    with a stationary point in the block, which only Gauss-Kronrod takes:
    one whose error bound falls with each refinement and one whose panels
    exceed MAX_NODES.  The g' scan admits one point of each region tag
    among the first six to Levin, and both stationary ones there; the cost
    rule sends two of those four to Levin, one stationary."""
    n = n_block
    return [(0.5 / n, 1.0 / n**3), (-0.3 / n, 20.0 / n**3),
            (5.0 / n, 1e-4 / n**3), (-20.0 / n, 0.004 / n**3),
            (10.0 / n, 3.0 / n**3), (-3.0 / n, 25.0 / n**3),
            (-400.0 / n, 120.0 / n**3), (-1.6e5 / n, 1.6e5 / (6.0 * n**3))]


LEVIN_ELIGIBLE = [1, 3, 4, 5]  # the region_points that the g' scan admits to Levin
LEVIN_ROUTED = [1, 5]  # those whose first-refinement panels cost more than a Levin point


def levin_eligible(xs, ts, spec):
    """The points that the g' scan admits to Levin."""
    return _scan_slopes(xs, ts, _coarse_samples(spec), spec.block_start)[1]


def levin_routed(xs, ts, spec):
    """The eligible points whose first-refinement Gauss-Kronrod panels would
    take more than kernel.LEVIN_NODES nodes: the points that go to Levin."""
    nodes = 31 * panel_counts(xs, ts, spec, 1.0).sum(axis=1)
    return levin_eligible(xs, ts, spec) & (nodes > kernel.LEVIN_NODES)


def panel_counts(xs, ts, spec, refine):
    """Gauss-Kronrod panels per coarse sub-interval at refinement refine."""
    coarse = _coarse_samples(spec)
    return _panel_counts(_scan_slopes(xs, ts, coarse, spec.block_start)[0], coarse, refine)


def gauss_kronrod_bound(x, t, spec, refine):
    """One point's achieved Gauss-Kronrod bound at refinement refine, from
    the panel sums that kernel_eval and the probes share."""
    xs, ts = np.array([x], dtype=float), np.array([t], dtype=float)
    panels = _Panels(xs, ts, panel_counts(xs, ts, spec, refine), _coarse_samples(spec))
    return 2.0 * _batch_integrals(panels, spec.symbol, jobs=1)[1][0]


def assert_values_match(values, xs, ts, spec, ref_values):
    """Points that go to Levin agree with ref_values within accepted_error,
    the rest bit for bit.  Returns how many go to Levin."""
    levin = levin_routed(xs, ts, spec)
    assert np.array_equal(values[~levin], ref_values[~levin])
    assert np.all(np.abs(values[levin] - ref_values[levin]) <= spec.accepted_error)
    return np.count_nonzero(levin)


def refinement_spec(monkeypatch, n_block, level, point=None):
    """Spec at N = n_block, with kernel.ABSOLUTE_TOLERANCE set so that
    point, by default region_points' (-400/N, 120/N^3), meets it first at
    refine 4 (level 1) or 16 (level 2)."""
    spec = KernelSpec(n_block, -1.0, 1.0)
    x, t = point or region_points(n_block)[6]
    bounds = [gauss_kronrod_bound(x, t, spec, r) for r in (1.0, 4.0, 16.0)]
    assert bounds[0] > bounds[1] > bounds[2]
    monkeypatch.setattr(kernel, "ABSOLUTE_TOLERANCE", 0.5 * (bounds[level - 1] + bounds[level]))
    return spec


def scalar_values(xs, ts, spec, stats, jobs=None):
    """_kernel_values by one kernel_eval per point; kernel_eval does not
    return the bound of a converged point, so it reads 0 there."""
    values, achieved = np.full(len(xs), np.nan), np.full(len(xs), np.inf)
    for i, (x, t) in enumerate(zip(xs, ts)):
        try:
            values[i] = kernel_eval(float(x), float(t), spec)
            achieved[i] = 0.0
        except QuadratureAccuracyError as err:
            achieved[i] = err.achieved
    return values, achieved


def reference_ray_exponent(spec, offsets=RAY_OFFSETS, points_per_ray=33):
    """stationary_ray_exponent by one kernel_eval per point."""
    n_block = spec.block_start
    slope_lo = abs(spec.symbol.derivative(n_block))
    slope_hi = abs(spec.symbol.derivative(4.0 * n_block))
    logs_t, logs_k = [], []
    for cx in offsets:
        x = -cx / n_block
        ts = np.exp(np.linspace(math.log(abs(x) / slope_hi), math.log(abs(x) / slope_lo),
                                points_per_ray))
        ks = np.array([abs(kernel_eval(x, float(t), spec)) for t in ts])
        lt, lk = np.log(ts), np.log(np.maximum(ks, 1e-300))
        logs_t.append(lt - lt.mean())
        logs_k.append(lk - lk.mean())
    return float(np.polyfit(np.concatenate(logs_t), np.concatenate(logs_k), 1)[0])


def mixed_norm_axes(spec, c_t, n_x, n_t):
    """The x and t samples of kernel_mixed_norm's grid."""
    n_block = spec.block_start
    t_max = c_t / n_block**3
    x_max = max(2.0 * kernel.REGION_BOUNDARY_FACTOR * spec.threshold * n_block**2 * t_max,
                200.0 / n_block)
    ts = np.exp(np.linspace(math.log(t_max * 1e-3), math.log(t_max), n_t))
    half = np.exp(np.linspace(math.log(1e-3 / n_block), math.log(x_max), n_x))
    return np.concatenate([-half[::-1], half]), ts


def mixed_norm_points(spec, c_t, n_x, n_t):
    """kernel_mixed_norm's grid as a list of points, x outer."""
    xs, ts = mixed_norm_axes(spec, c_t, n_x, n_t)
    return np.repeat(xs, ts.size), np.tile(ts, xs.size)


def reference_mixed_norm_sup(spec, c_t, n_x, n_t):
    """sup_t |K| per x on kernel_mixed_norm's grid, x outer and t inner."""
    xs, ts = mixed_norm_axes(spec, c_t, n_x, n_t)
    sup_k = np.empty(xs.size)
    for i, x in enumerate(xs):
        best = 0.0
        for t in ts:
            best = max(best, abs(kernel_eval(float(x), float(t), spec)))
        sup_k[i] = best
    return xs, sup_k


def reference_mixed_norm_value(spec, gamma_exp, xs, sup_k):
    n_block, x_max, p = spec.block_start, xs[-1], gamma_exp / 2.0
    value_p = float(np.trapezoid(sup_k**p, xs)) + (6.0 * n_block) ** p * 2.0 * (1e-3 / n_block)
    far = np.abs(xs) > 0.5 * x_max
    c2 = float(np.max(sup_k[far] * n_block * xs[far] ** 2))
    tail_p = 2.0 * (c2 / n_block) ** p * x_max ** (1.0 - gamma_exp) / (gamma_exp - 1.0)
    return (value_p + tail_p) ** (1.0 / p)


class TestAcceptedError:
    def test_default_tolerance_up_to_n166(self, monkeypatch):
        for n_block in (8.0, 16.0, 32.0, 64.0, 166.0):
            assert KernelSpec(n_block, -1.0, 1.0).accepted_error == 1e-9
        assert KernelSpec(167.0, -1.0, 1.0).accepted_error > 1e-9
        assert KernelSpec(1024.0, -1.0, 1.0).accepted_error == 1e-12 * 6.0 * 1024.0
        monkeypatch.setattr(kernel, "ABSOLUTE_TOLERANCE", 1e-6)
        assert KernelSpec(1024.0, -1.0, 1.0).accepted_error == 1e-6

    def test_large_block_at_first_refinement(self):
        # bounds at N = 1024 sit on a rounding floor that finer panels do
        # not lower, above the absolute 1e-9 alone: a near-field sample's
        # Levin bound reads 2.4e-9, and Gauss-Kronrod's reach 2.2e-9 at the
        # stationary samples; on the ray, which has a stationary point and
        # stays with Gauss-Kronrod, they stay below 1e-10
        spec = KernelSpec(1024.0, -1.0, 1.0)
        report = region_decay_check(spec, samples_per_region=8, seed=3)
        assert report.skipped_fraction == 0.0
        assert report.quadrature.refined_x4 == 0
        assert 1e-9 < report.quadrature.max_error <= spec.accepted_error
        stationary = report.regions["STATIONARY"]
        reference = np.array([abs(kernel_eval(x, t, spec))
                              for x, t in zip(stationary.x, stationary.t)])
        assert assert_values_match(stationary.abs_k, stationary.x, stationary.t, spec,
                                   reference) > 0
        small = region_decay_check(KernelSpec(16.0, -1.0, 1.0), samples_per_region=8, seed=3)
        assert report.ray_exponent == pytest.approx(small.ray_exponent, abs=1e-3)
        for name, reg in report.regions.items():
            assert reg.empirical_constant == pytest.approx(
                small.regions[name].empirical_constant, rel=1e-4)


def assert_within_earlier_rule(n_block, rule, node_share):
    """The region points that converge, two rays of the ray fit and a
    small mixed-norm grid, every point on Gauss-Kronrod: the batched pass
    and the (G7, K15) pass on the panels of rule converge at every point
    and agree within accepted_error, the batched one on under node_share
    of the nodes."""
    spec = KernelSpec(n_block, -1.0, 1.0)
    region = region_points(n_block)[:-1]
    slope_lo = abs(spec.symbol.derivative(n_block))
    slope_hi = abs(spec.symbol.derivative(4.0 * n_block))
    ray = [(-c / n_block, t) for c in RAY_OFFSETS[::5]
           for t in np.exp(np.linspace(math.log(c / n_block / slope_hi),
                                       math.log(c / n_block / slope_lo), 5))]
    grid = list(zip(*mixed_norm_points(spec, 1.0, 6, 4)))
    xs, ts = np.array(region + ray + grid).T
    stats = QuadratureStats()
    values, achieved = _kernel_values(xs, ts, spec, stats)
    assert np.all(achieved <= spec.accepted_error)
    reference = [k15_kernel(x, t, spec, rule) for x, t in zip(xs, ts)]
    ref_values, ref_achieved = np.array(reference).T
    assert np.all(ref_achieved <= spec.accepted_error)
    assert np.all(np.abs(values - ref_values) <= spec.accepted_error)
    ref_nodes = sum(15 * (reference_panel_edges(x, t, spec, 1.0, **rule).size - 1)
                    for x, t in zip(xs, ts))
    assert stats.refined_x4 == 0 and stats.nodes < node_share * ref_nodes


@pytest.mark.usefixtures("gauss_kronrod_only")
class TestQuarterWavelengthOracle:
    @pytest.mark.parametrize("n_block", [8.0, 16.0, 32.0, 64.0])
    def test_within_accepted_error(self, n_block):
        assert_within_earlier_rule(n_block, QUARTER_WAVELENGTH_PANELS, 0.6)


@pytest.mark.usefixtures("gauss_kronrod_only")
class TestHalfWavelengthOracle:
    @pytest.mark.parametrize("n_block", [8.0, 16.0, 32.0, 64.0, 1024.0])
    def test_within_accepted_error(self, n_block):
        # the kernel's (G7, K15) pass on half-wavelength panels over 24
        # sub-intervals, before the (G15, K31) pair; this one takes about
        # half its nodes, and a quarter of the quarter-wavelength rule's
        assert_within_earlier_rule(n_block, HALF_WAVELENGTH_PANELS, 0.6)


class TestPanelEdges:
    @pytest.mark.parametrize("refine", [1.0, 4.0, 16.0])
    @pytest.mark.parametrize("n_block", [8.0, 16.0, 32.0])
    def test_equal_to_per_interval_linspace(self, n_block, refine):
        # all points' panels built at once, then again in uneven pieces
        spec = KernelSpec(n_block, -1.0, 1.0)
        rng = np.random.default_rng(int(n_block * refine))
        points = region_points(n_block)[:-1]
        for _ in range(20):
            x = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, 2.0) / n_block
            points.append((x, 10 ** rng.uniform(-4.0, 2.0) / n_block**3))
        tags = {classify_region(x, t, spec) for x, t in points}
        assert tags == set(RegionTag)
        xs, ts = np.array(points).T
        panels = _Panels(xs, ts, panel_counts(xs, ts, spec, refine), _coarse_samples(spec))
        point, left, right = panels.edges(0, panels.size)
        pieces = [panels.edges(lo, min(lo + 997, panels.size))
                  for lo in range(0, panels.size, 997)]
        assert np.array_equal(np.concatenate([p[1] for p in pieces]), left)
        assert np.array_equal(np.concatenate([p[2] for p in pieces]), right)
        starts = np.concatenate(([0], panels.point_stops[:-1]))
        for i, (a, b) in enumerate(zip(starts, panels.point_stops)):
            ref = reference_panel_edges(xs[i], ts[i], spec, refine)
            assert np.array_equal(left[a:b], ref[:-1])
            assert np.array_equal(right[a:b], ref[1:])
            assert np.array_equal(point[a:b], np.full(b - a, i))


@pytest.mark.usefixtures("absolute_tolerance")
class TestBatchedQuadrature:
    @pytest.mark.usefixtures("levin_by_eligibility")
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("n_block", [8.0, 16.0, 32.0])
    def test_equal_to_kernel_eval(self, monkeypatch, n_block, level):
        spec = refinement_spec(monkeypatch, n_block, level)
        xs, ts = np.array(region_points(n_block)).T
        stats = QuadratureStats()
        values, achieved = _kernel_values(xs, ts, spec, stats)
        ref_values, ref_achieved = scalar_values(xs, ts, spec, None)
        ok = ref_achieved <= kernel.ABSOLUTE_TOLERANCE
        assert np.all(ok[LEVIN_ELIGIBLE])
        assert assert_values_match(values[ok], xs[ok], ts[ok], spec, ref_values[ok]) > 0
        assert np.all(achieved[ok] <= kernel.ABSOLUTE_TOLERANCE)
        assert np.array_equal(achieved[~ok], ref_achieved[~ok])
        assert np.all(np.isnan(values[~ok]))
        assert ok[6] and np.isposinf(achieved[-1])
        assert stats.points == xs.size and stats.over_cap == 1
        # some Levin points miss these tight tolerances and fall back
        assert 1 <= stats.levin <= len(LEVIN_ELIGIBLE)
        assert stats.refined_x4 >= 1 and (stats.refined_x16 >= 1) == (level == 2)
        assert stats.max_error == np.max(achieved[np.isfinite(achieved)])

    @pytest.mark.parametrize("size,jobs", [(size, jobs) for size in CHUNK_SIZES
                                           for jobs in (1, 2, 8, None)] + [(1 << 40, 1)])
    def test_independent_of_chunk_size_and_jobs(self, monkeypatch, size, jobs):
        # Levin chunks of one point (sizes 1, 7 and 61), of 7 or 32 (the
        # Levin chunk before CHUNK_PANELS sized it) or of 54 with a partial
        # last one, or of all; Gauss-Kronrod chunks of one panel, of 7 that
        # cut across points, of 61, 271, 1239, the shipped size, or of every
        # panel; 1, 2, 8 or every core's worker where a pool call has more
        # than one chunk
        levin_chunk = kernel.CHUNK_PANELS * 31 // kernel.LEVIN_NODES  # 54 points
        grid_x, grid_t = mixed_norm_points(SPEC16, 1.0, 30, 12)
        routed = np.flatnonzero(levin_routed(grid_x, grid_t, SPEC16))[::3]
        # four cheap points that converge at x1, the over-cap point, and a
        # point on region_points' ray that converges at x16
        refined = (-30.0 / 16.0, 9.0 / 16.0**3)
        region = [region_points(16.0)[i] for i in (0, 2, 3, 4, 7)] + [refined]
        xs, ts = np.concatenate([np.array(region).T, [grid_x[routed], grid_t[routed]]], axis=1)
        spec = refinement_spec(monkeypatch, 16.0, 2, refined)
        assert routed.size > levin_chunk and routed.size % levin_chunk
        x1_panels = panel_counts(xs[:4], ts[:4], spec, 1.0).sum(axis=1)
        assert np.any(np.cumsum(x1_panels) % 7)
        base = _kernel_values(xs, ts, spec, QuadratureStats(), jobs=1)
        monkeypatch.setattr(kernel, "CHUNK_PANELS", size)
        stats = QuadratureStats()
        for a, b in zip(base, _kernel_values(xs, ts, spec, stats, jobs)):
            assert np.array_equal(a, b, equal_nan=True)
        assert (stats.levin, stats.refined_x4, stats.refined_x16) == (routed.size, 1, 1)
        assert stats.points == xs.size and stats.over_cap == 1 and np.isfinite(base[0][5])

    def test_points_over_budget_in_bounded_memory(self):
        # two points of about 930,000 nodes each, their panels shared out
        # to two threads CHUNK_PANELS at a time.  The stationary point
        # xi = sqrt(2) N keeps them from Levin.
        spec = KernelSpec(16.0, -1.0, 1.0)
        xs, ts = np.full(2, -1500.0), np.full(2, 0.9765625)
        nodes = 31 * panel_counts(xs, ts, spec, 1.0).sum(axis=1)
        assert np.all(nodes > 10 * 31 * kernel.CHUNK_PANELS)
        tracemalloc.start()
        try:
            values, achieved = _kernel_values(xs, ts, spec, QuadratureStats(), jobs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert values[0] == values[1] == kernel_eval(-1500.0, 0.9765625, spec)
        assert np.all(achieved <= kernel.ABSOLUTE_TOLERANCE)

    def test_acceptance_size_mixed_norm_in_bounded_memory(self):
        # a refinement holds 16 bytes per panel of all its points: 59,248
        # panels here, under 1 MiB, next to one chunk's integrand; a Levin
        # chunk's systems come before
        tracemalloc.start()
        try:
            kernel_mixed_norm(KernelSpec(16.0, -1.0, 1.0), 8.0, jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_one_slope_scan_per_call(self, monkeypatch):
        # a point that reaches the 16x panels still has its g' sampled once
        spec = refinement_spec(monkeypatch, 16.0, 2)
        xs, ts = np.array(region_points(16.0)).T
        scans = []
        scan = kernel._scan_slopes
        monkeypatch.setattr(kernel, "_scan_slopes", lambda *args: scans.append(1) or scan(*args))
        stats = QuadratureStats()
        _kernel_values(xs, ts, spec, stats)
        assert stats.refined_x16 >= 1 and len(scans) == 1
        kernel_eval(xs[6], ts[6], spec)
        assert len(scans) == 2

    @pytest.mark.usefixtures("gauss_kronrod_only")
    @pytest.mark.parametrize("jobs,name,size", [
        (1, None, None), (2, None, None), (1, "CHUNK_PANELS", 61), (2, "CHUNK_PANELS", 61),
    ])
    def test_nodes_count_every_panel_evaluated(self, monkeypatch, jobs, name, size):
        # 31 nodes per panel of each refinement a point runs, until its
        # bound meets the tolerance; none for a point past MAX_NODES
        spec = refinement_spec(monkeypatch, 16.0, 2)
        xs, ts = np.array(region_points(16.0)).T
        expected = 0
        for x, t in zip(xs, ts):
            for refine in (1.0, 4.0, 16.0):
                nodes = 31 * int(panel_counts(np.array([x]), np.array([t]), spec, refine).sum())
                if nodes > kernel.MAX_NODES:
                    break
                expected += nodes
                if gauss_kronrod_bound(x, t, spec, refine) <= spec.accepted_error:
                    break
        if name:
            monkeypatch.setattr(kernel, name, size)
        stats = QuadratureStats()
        _kernel_values(xs, ts, spec, stats, jobs)
        assert stats.refined_x16 >= 1 and stats.over_cap == 1
        assert stats.nodes == expected

    def test_tolerance_miss_keeps_bound(self, monkeypatch):
        monkeypatch.setattr(kernel, "ABSOLUTE_TOLERANCE", 1e-16)
        spec = KernelSpec(8.0, -1.0, 1.0)
        xs, ts = np.array(region_points(8.0)[:2]).T
        values, achieved = _kernel_values(xs, ts, spec, QuadratureStats())
        assert np.all(np.isnan(values))
        assert np.array_equal(achieved, scalar_values(xs, ts, spec, None)[1])


def assert_identical(a, b):
    """Reports equal field by field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_identical(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_identical(a[key], b[key])
    else:
        assert np.array_equal(a, b)


class TestWorkerCount:
    def test_reports_independent_of_jobs(self, monkeypatch):
        # a small chunk gives each probe many chunks to share out, and a
        # short switch interval interleaves the threads finely
        monkeypatch.setattr(kernel, "CHUNK_PANELS", 61)
        spec = KernelSpec(8.0, -1.0, 1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = [(region_decay_check(spec, samples_per_region=6, seed=4, jobs=jobs),
                        kernel_mixed_norm(spec, 8.0, n_x=10, n_t=6, jobs=jobs))
                       for jobs in (1, 2, 8)]
        finally:
            sys.setswitchinterval(interval)
        for decay, mixed in reports[1:]:
            assert_identical(decay, reports[0][0])
            assert_identical(mixed, reports[0][1])


class TestProbesEqualScalarLoops:
    def test_ray_exponent(self, monkeypatch):
        spec = KernelSpec(8.0, -1.0, 1.0)
        monkeypatch.setattr(kernel, "RAY_OFFSETS", RAY_OFFSETS[:4])
        monkeypatch.setattr(kernel, "RAY_POINTS", 9)
        assert stationary_ray_exponent(spec) == reference_ray_exponent(spec, RAY_OFFSETS[:4], 9)

    def test_mixed_norm(self):
        # each sup_t |K| may move by accepted_error where Levin takes points
        spec = KernelSpec(8.0, -1.0, 1.0)
        report = kernel_mixed_norm(spec, 8.0, n_x=10, n_t=6)
        xs, sup_k = reference_mixed_norm_sup(spec, 1.0, 10, 6)
        tolerance, _ = golden.mixed_norm_tolerances(sup_k, xs, 8.0, 8.0, report.x_extent,
                                                    spec.accepted_error)
        assert report.value == pytest.approx(reference_mixed_norm_value(spec, 8.0, xs, sup_k),
                                             rel=0, abs=tolerance)
        assert report.quadrature.points == 20 * 6
        assert report.quadrature.levin > 0

    def test_region_decay_check(self, monkeypatch):
        spec = KernelSpec(8.0, -1.0, 1.0)
        batched = region_decay_check(spec, samples_per_region=6, seed=4)
        monkeypatch.setattr(kernel, "_kernel_values", scalar_values)
        scalar = region_decay_check(spec, samples_per_region=6, seed=4)
        # every ray point has a stationary point in the block: Gauss-Kronrod's
        assert batched.ray_exponent == scalar.ray_exponent
        levin = 0
        for name, reg in batched.regions.items():
            ref = scalar.regions[name]
            for field in ("x", "t", "bound"):
                assert np.array_equal(getattr(reg, field), getattr(ref, field))
            routed = assert_values_match(reg.abs_k, reg.x, reg.t, spec, ref.abs_k)
            # the far samples' panels cost fewer nodes than a Levin point
            assert (routed > 0) == (name != "NON_STATIONARY")
            levin += routed
            assert np.all(np.abs(reg.ratios - ref.ratios) <= spec.accepted_error / reg.bound)
        assert batched.quadrature.points == 3 * 6 + len(RAY_OFFSETS) * 33
        assert batched.quadrature.levin == levin

    @pytest.mark.usefixtures("gauss_kronrod_only")
    def test_region_check_skips_point_over_cap(self, monkeypatch):
        # the cap binds on Gauss-Kronrod panels only, and every stationary
        # sample with more panels than the ray goes to Levin
        spec = KernelSpec(8.0, -1.0, 1.0)
        base = region_decay_check(spec, samples_per_region=20, seed=2)
        stat = base.regions["STATIONARY"]
        nodes = sorted((reference_panel_edges(x, t, spec, 1.0).size - 1) * 31
                       for x, t in zip(stat.x, stat.t))
        monkeypatch.setattr(kernel, "MAX_NODES", nodes[-2])
        capped = region_decay_check(spec, samples_per_region=20, seed=2)
        assert capped.regions["STATIONARY"].skipped == 1
        assert capped.quadrature.over_cap == 1
        monkeypatch.setattr(kernel, "_kernel_values", scalar_values)
        scalar = region_decay_check(spec, samples_per_region=20, seed=2)
        for field in ("x", "t", "abs_k"):
            assert np.array_equal(getattr(capped.regions["STATIONARY"], field),
                                  getattr(scalar.regions["STATIONARY"], field))

    @pytest.mark.usefixtures("levin_by_eligibility")
    def test_region_check_skips_point_over_cap_with_levin(self, monkeypatch):
        # orders 4 and 6 miss most eligible points, so Levin takes a few
        # cheap samples and the largest stationary one goes over the cap on
        # Gauss-Kronrod, as does no point in the all-Gauss-Kronrod reference
        monkeypatch.setattr(kernel, "_LEVIN_ORDERS", (4, 6))
        spec = KernelSpec(8.0, -1.0, 1.0)
        base = region_decay_check(spec, samples_per_region=20, seed=2)
        stat = base.regions["STATIONARY"]
        routed = levin_routed(stat.x, stat.t, spec)
        _, levin_bound = _levin_values(stat.x[routed], stat.t[routed], spec, spec.symbol)
        gauss_kronrod = ~routed
        gauss_kronrod[routed] = ~(levin_bound <= spec.accepted_error)
        nodes = sorted((reference_panel_edges(x, t, spec, 1.0).size - 1) * 31
                       for x, t in zip(stat.x[gauss_kronrod], stat.t[gauss_kronrod]))
        monkeypatch.setattr(kernel, "MAX_NODES", nodes[-2])
        capped = region_decay_check(spec, samples_per_region=20, seed=2)
        assert capped.regions["STATIONARY"].skipped == 1
        assert capped.quadrature.over_cap == 1
        assert capped.quadrature.levin == base.quadrature.levin > 0
        monkeypatch.setattr(kernel, "_kernel_values", scalar_values)
        scalar = region_decay_check(spec, samples_per_region=20, seed=2)
        for name, reg in capped.regions.items():
            ref = scalar.regions[name]
            assert reg.skipped == ref.skipped
            for field in ("x", "t"):
                assert np.array_equal(getattr(reg, field), getattr(ref, field))
            assert assert_values_match(reg.abs_k, reg.x, reg.t, spec, ref.abs_k) > 0

    def test_over_cap_raises_inf_in_ray_and_mixed_norm(self, monkeypatch):
        # points past 6 panels go over the cap: the last one or two of
        # each ray, and the mixed norm's first Gauss-Kronrod point
        spec = KernelSpec(8.0, -1.0, 1.0)
        monkeypatch.setattr(kernel, "MAX_NODES", 31 * 6)
        monkeypatch.setattr(kernel, "RAY_OFFSETS", RAY_OFFSETS[:2])
        monkeypatch.setattr(kernel, "RAY_POINTS", 5)
        with pytest.raises(QuadratureAccuracyError) as err:
            stationary_ray_exponent(spec)
        assert err.value.achieved == math.inf
        with pytest.raises(QuadratureAccuracyError) as err:
            kernel_mixed_norm(spec, 8.0, n_x=4, n_t=3)
        assert err.value.achieved == math.inf

    @pytest.mark.usefixtures("gauss_kronrod_only")
    def test_first_failure_in_scalar_order(self, absolute_tolerance, monkeypatch):
        # the outermost x points miss this tolerance at every refinement,
        # each with its own finite bound; the rest converge.  Levin would
        # meet it at those points, so Gauss-Kronrod takes every point here
        monkeypatch.setattr(kernel, "ABSOLUTE_TOLERANCE", 2e-13)
        monkeypatch.setattr(kernel, "MIXED_T_SPAN", 0.02)
        spec = KernelSpec(8.0, -1.0, 1.0)
        with pytest.raises(QuadratureAccuracyError) as scalar:
            reference_mixed_norm_sup(spec, 0.02, 8, 5)
        with pytest.raises(QuadratureAccuracyError) as batched:
            kernel_mixed_norm(spec, 8.0, n_x=8, n_t=5)
        assert math.isfinite(scalar.value.achieved)
        assert batched.value.achieved == scalar.value.achieved

    def test_first_failure_in_scalar_order_with_levin(self, absolute_tolerance, monkeypatch):
        # orders 4 and 6 meet this tolerance where the phase is nearly
        # linear, at the outermost x, whose Gauss-Kronrod panels exceed a
        # quarter of MAX_NODES at 16x; later eligible points that Levin
        # misses fail on Gauss-Kronrod, whose bounds sit near 1e-13 on the
        # rounding floor there, each with its own bound
        monkeypatch.setattr(kernel, "_LEVIN_ORDERS", (4, 6))
        monkeypatch.setattr(kernel, "MAX_NODES", kernel.MAX_NODES // 4)
        monkeypatch.setattr(kernel, "ABSOLUTE_TOLERANCE", 1e-13)
        spec = KernelSpec(8.0, -1.0, 1.0)
        xs, ts = mixed_norm_points(spec, 1.0, 8, 5)
        stats = QuadratureStats()
        _, achieved = _kernel_values(xs, ts, spec, stats)
        failed = np.flatnonzero(~(achieved <= spec.accepted_error))
        assert stats.levin > 0 and achieved[0] <= spec.accepted_error < achieved[failed[0]]
        assert achieved[failed[1]] != achieved[failed[0]]
        with pytest.raises(QuadratureAccuracyError) as outermost:
            kernel_eval(float(xs[0]), float(ts[0]), spec)
        assert outermost.value.achieved == math.inf
        with pytest.raises(QuadratureAccuracyError) as first:
            kernel_eval(float(xs[failed[0]]), float(ts[failed[0]]), spec)
        with pytest.raises(QuadratureAccuracyError) as batched:
            kernel_mixed_norm(spec, 8.0, n_x=8, n_t=5)
        assert batched.value.achieved == first.value.achieved == achieved[failed[0]]


class TestLevin:
    @pytest.mark.usefixtures("levin_by_eligibility")
    @pytest.mark.parametrize("n_block", [16.0, 32.0, 64.0])
    def test_agrees_with_kernel_eval(self, n_block):
        # four eligible points of each region tag, drawn over the decay
        # windows, and every 40th eligible point of the benchmark-size grid;
        # the cheap ones, which the cost rule keeps on Gauss-Kronrod, too
        spec = KernelSpec(n_block, -1.0, 1.0)
        rng = np.random.default_rng(7)
        xs = rng.choice([-1.0, 1.0], 400) * 10 ** rng.uniform(-3.0, 2.0, 400) / n_block
        ts = 10 ** rng.uniform(-4.0, 2.5, 400) / n_block**3
        tags = np.array([classify_region(x, t, spec) for x, t in zip(xs, ts)])
        eligible = levin_eligible(xs, ts, spec)
        picks = [np.flatnonzero(eligible & (tags == tag))[:4] for tag in RegionTag]
        assert all(pick.size == 4 for pick in picks)
        grid_x, grid_t = mixed_norm_points(spec, 1.0, 30, 12)
        on_grid = np.flatnonzero(levin_eligible(grid_x, grid_t, spec))[::40]
        px = np.concatenate([xs[pick] for pick in picks] + [grid_x[on_grid]])
        pt = np.concatenate([ts[pick] for pick in picks] + [grid_t[on_grid]])
        stats = QuadratureStats()
        values, achieved = _kernel_values(px, pt, spec, stats)
        assert stats.levin == px.size and stats.refined_x4 == 0
        assert np.all(achieved <= spec.accepted_error)
        assert np.all(np.abs(values - scalar_values(px, pt, spec, None)[0]) <= spec.accepted_error)

    def test_threshold_keeps_points_from_levin(self):
        spec = KernelSpec(16.0, -1.0, 1.0)
        # at t = 0 the phase slope is x, so min|g'| * width is |x| N / 2
        edge = kernel.LEVIN_MIN_TURN * 2.0 / spec.block_start
        xs = np.array([0.99, -0.99, 1.01, -1.01]) * edge
        assert levin_eligible(xs, np.zeros(4), spec).tolist() == [False, False, True, True]
        # the near field as t -> 0, and the stationary ray
        near_x = np.repeat([0.5 / 16.0, -1.0 / 16.0], 3)
        near_t = np.tile([0.0, 1e-6, 1e-3], 2) / 16.0**3
        slope_lo = abs(spec.symbol.derivative(16.0))
        slope_hi = abs(spec.symbol.derivative(64.0))
        ray_x = np.repeat([-c / 16.0 for c in RAY_OFFSETS], 9)
        ray_t = np.concatenate([np.exp(np.linspace(math.log(abs(x) / slope_hi),
                                                   math.log(abs(x) / slope_lo), 9))
                                for x in ray_x[::9]])
        xs, ts = np.concatenate([near_x, ray_x]), np.concatenate([near_t, ray_t])
        assert not np.any(levin_eligible(xs, ts, spec))
        stats = QuadratureStats()
        values, _ = _kernel_values(xs, ts, spec, stats)
        assert stats.levin == 0
        assert np.array_equal(values, scalar_values(xs, ts, spec, None)[0])

    def test_missed_bound_falls_back_to_gauss_kronrod(self, monkeypatch, caplog):
        # orders 4 and 6 differ by far more than 1e-9 where the phase is
        # not nearly linear, as it is at region_points' (-20/N, 0.004/N^3)
        monkeypatch.setattr(kernel, "_LEVIN_ORDERS", (4, 6))
        spec = KernelSpec(16.0, -1.0, 1.0)
        # the middle point is eligible but cheap: it goes to Gauss-Kronrod
        # first, and the two missed Levin points join it at x1
        xs, ts = np.array(region_points(16.0))[[1, 4, 5]].T
        assert np.all(levin_eligible(xs, ts, spec))
        assert levin_routed(xs, ts, spec).tolist() == [True, False, True]
        stats = QuadratureStats()
        with caplog.at_level(logging.DEBUG, logger="ostrovsky"):
            values, achieved = _kernel_values(xs, ts, spec, stats)
        assert stats.levin == 0
        assert np.array_equal(values, scalar_values(xs, ts, spec, None)[0])
        assert np.array_equal(achieved, [gauss_kronrod_bound(x, t, spec, 1.0)
                                         for x, t in zip(xs, ts)])
        nodes = 31 * panel_counts(xs, ts, spec, 1.0).sum()
        assert caplog.messages == ["kernel values: 3 points; Levin 0 accepted, 2 missed; "
                                   f"Gauss-Kronrod 3 at x1, 0 at x4, 0 at x16, {nodes} nodes"]

    def test_debug_line_per_call(self, caplog):
        spec = KernelSpec(16.0, -1.0, 1.0)
        xs, ts = np.array(region_points(16.0)).T
        stats = QuadratureStats()
        with caplog.at_level(logging.DEBUG, logger="ostrovsky"):
            _kernel_values(xs, ts, spec, stats)
        # the last point's panels exceed MAX_NODES: it counts no nodes
        rest = [0, 2, 3, 4, 6]
        nodes = 31 * panel_counts(xs[rest], ts[rest], spec, 1.0).sum()
        assert caplog.messages == ["kernel values: 8 points; Levin 2 accepted, 0 missed; "
                                   f"Gauss-Kronrod 6 at x1, 0 at x4, 0 at x16, {nodes} nodes"]
        assert (stats.levin, stats.over_cap, stats.nodes) == (2, 1, nodes)

    def test_most_non_stationary_grid_points_go_to_levin(self):
        spec = KernelSpec(16.0, -1.0, 1.0)
        xs, ts = mixed_norm_points(spec, 1.0, 30, 12)
        tags = np.array([classify_region(x, t, spec) for x, t in zip(xs, ts)])
        far = tags == RegionTag.NON_STATIONARY
        eligible, routed = levin_eligible(xs, ts, spec), levin_routed(xs, ts, spec)
        stats = QuadratureStats()
        _kernel_values(xs, ts, spec, stats)
        assert stats.levin == np.count_nonzero(routed)  # every routed point met the bound
        assert np.count_nonzero(far) == 192 and np.count_nonzero(eligible & far) >= 190
        # the cost rule keeps the far points nearest the near field on Gauss-Kronrod
        assert np.count_nonzero(routed & far) >= 150

    @pytest.mark.parametrize("n_block,n_x,n_t,orders", [
        (16.0, 30, 12, (12, 16)), (16.0, 120, 48, (16, 12)),
        (64.0, 30, 12, (16, 12)), (64.0, 120, 48, (12, 16)),
    ])
    def test_real_solve_equals_complex_lu(self, monkeypatch, n_block, n_x, n_t, orders):
        # every eligible point of the benchmark-size and acceptance-size
        # mixed-norm grids; orders (16, 12) return order 12's value.  The
        # cases hold each pair of block, grid and orders once
        monkeypatch.setattr(kernel, "_LEVIN_ORDERS", orders)
        spec = KernelSpec(n_block, -1.0, 1.0)
        xs, ts = mixed_norm_points(spec, 1.0, n_x, n_t)
        eligible = levin_eligible(xs, ts, spec)
        xs, ts = xs[eligible], ts[eligible]
        values, bounds = _levin_values(xs, ts, spec, spec.symbol)
        ref_values, ref_bounds = complex_levin_values(xs, ts, spec)
        assert np.all(np.abs(values - ref_values) <= 1e-12 * 6.0 * n_block)
        assert np.all(np.abs(bounds - ref_bounds) <= 1e-12 * 6.0 * n_block)
        assert np.all(bounds <= spec.accepted_error) and np.all(ref_bounds <= spec.accepted_error)

    def test_cost_rule(self):
        # at t = 0, g' = x on the whole block: 9 panels per coarse
        # sub-interval at x = 6 and 10 at x = 6.6, both far past the Levin turn
        xs, ts = np.array([6.0, 6.6]), np.zeros(2)
        nodes = 31 * panel_counts(xs, ts, SPEC16, 1.0).sum(axis=1)
        assert np.all(levin_eligible(xs, ts, SPEC16))
        assert nodes[0] <= kernel.LEVIN_NODES < nodes[1] == nodes[0] + 31 * kernel._COARSE
        stats = QuadratureStats()
        values, _ = _kernel_values(xs, ts, SPEC16, stats)
        assert (stats.levin, stats.refined_x4, stats.nodes) == (1, 0, nodes[0])
        assert values[0] == kernel_eval(6.0, 0.0, SPEC16)
        assert abs(values[1] - kernel_eval(6.6, 0.0, SPEC16)) <= SPEC16.accepted_error

    def test_node_cap_binds_gauss_kronrod_only(self, monkeypatch):
        spec = KernelSpec(16.0, -1.0, 1.0)
        xs, ts = np.array(region_points(16.0))[LEVIN_ROUTED].T
        base = _kernel_values(xs, ts, spec, QuadratureStats())
        monkeypatch.setattr(kernel, "MAX_NODES", 15)
        stats = QuadratureStats()
        for a, b in zip(base, _kernel_values(xs, ts, spec, stats)):
            assert np.array_equal(a, b)
        assert stats.over_cap == 0 and stats.levin == xs.size
