import dataclasses
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
    _block_integral,
    _coarse_samples,
    _kernel_values,
    _panel_counts,
    _Panels,
    kernel_eval,
    kernel_mixed_norm,
    region_decay_check,
    stationary_ray_exponent,
)
from ostrovsky.spectral import Field, Grid, MultiplierSpec, PhaseSymbol, apply_multiplier


@pytest.fixture(scope="module")
def spec8():
    return KernelSpec(8.0, -1.0, 1.0)


@pytest.fixture
def absolute_tolerance(monkeypatch):
    """Accept on spec.tolerance alone, so that a tolerance under the
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


def region_points(n_block):
    """Two points per decay region on the self-similar scales, then one
    stationary point whose error bound falls with each refinement and one
    whose panels exceed MAX_NODES."""
    n = n_block
    return [(0.5 / n, 1.0 / n**3), (-0.3 / n, 20.0 / n**3),
            (5.0 / n, 1e-4 / n**3), (-20.0 / n, 0.004 / n**3),
            (10.0 / n, 3.0 / n**3), (-3.0 / n, 25.0 / n**3),
            (-6.0 / n, 60.0 / n**3), (-3.0 / n, 6e3 / n**3)]


def refinement_spec(n_block, level):
    """Spec whose tolerance the point (-6/N, 60/N^3) meets first at
    refine 4 (level 1) or 16 (level 2)."""
    spec = KernelSpec(n_block, -1.0, 1.0)
    x, t = region_points(n_block)[6]
    bounds = [2.0 * _block_integral(x, t, spec, spec.symbol, r)[1] for r in (1.0, 4.0, 16.0)]
    assert bounds[0] > bounds[1] > bounds[2]
    return KernelSpec(n_block, -1.0, 1.0, tolerance=0.5 * (bounds[level - 1] + bounds[level]))


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


def reference_panel_edges(x, t, spec, refine):
    """One np.linspace per coarse sub-interval."""
    lo, hi = spec.block_start, 4.0 * spec.block_start
    coarse = np.linspace(lo, hi, 49)
    edges = [lo]
    for a, b in zip(coarse[:-1], coarse[1:]):
        slope = x - t * spec.symbol.derivative(np.linspace(a, b, 5))
        worst = float(np.max(np.abs(slope))) * 1.5 + 1e-30
        width_cap = 2.0 * np.pi / (4.0 * worst)
        m = max(1, int(math.ceil((b - a) / width_cap * refine)))
        edges.extend(np.linspace(a, b, m + 1)[1:])
    return np.asarray(edges)


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


def reference_mixed_norm_sup(spec, c_t, n_x, n_t):
    """sup_t |K| per x on kernel_mixed_norm's grid, x outer and t inner."""
    n_block = spec.block_start
    t_max = c_t / n_block**3
    x_max = max(2.0 * kernel.REGION_BOUNDARY_FACTOR * spec.threshold * n_block**2 * t_max,
                200.0 / n_block)
    ts = np.exp(np.linspace(math.log(t_max * 1e-3), math.log(t_max), n_t))
    half = np.exp(np.linspace(math.log(1e-3 / n_block), math.log(x_max), n_x))
    xs = np.concatenate([-half[::-1], half])
    sup_k = np.empty(xs.size)
    for i, x in enumerate(xs):
        best = 0.0
        for t in ts:
            best = max(best, abs(kernel_eval(float(x), float(t), spec)))
        sup_k[i] = best
    return xs, sup_k


def reference_mixed_norm_value(spec, gamma_exp, c_t, n_x, n_t):
    xs, sup_k = reference_mixed_norm_sup(spec, c_t, n_x, n_t)
    n_block, x_max, p = spec.block_start, xs[-1], gamma_exp / 2.0
    value_p = float(np.trapezoid(sup_k**p, xs)) + (6.0 * n_block) ** p * 2.0 * (1e-3 / n_block)
    far = np.abs(xs) > 0.5 * x_max
    c2 = float(np.max(sup_k[far] * n_block * xs[far] ** 2))
    tail_p = 2.0 * (c2 / n_block) ** p * x_max ** (1.0 - gamma_exp) / (gamma_exp - 1.0)
    return (value_p + tail_p) ** (1.0 / p)


class TestAcceptedError:
    def test_default_tolerance_up_to_n166(self):
        for n_block in (8.0, 16.0, 32.0, 64.0, 166.0):
            assert KernelSpec(n_block, -1.0, 1.0).accepted_error == 1e-9
        assert KernelSpec(167.0, -1.0, 1.0).accepted_error > 1e-9
        assert KernelSpec(1024.0, -1.0, 1.0).accepted_error == 1e-12 * 6.0 * 1024.0
        assert KernelSpec(1024.0, -1.0, 1.0, tolerance=1e-6).accepted_error == 1e-6

    def test_large_block_at_first_refinement(self):
        # two stationary samples have rounding-floor bounds near 1.9e-9 and
        # 1.4e-9 that finer panels do not lower, so the absolute 1e-9 alone
        # would skip them and fail the region
        spec = KernelSpec(1024.0, -1.0, 1.0)
        report = region_decay_check(spec, samples_per_region=8, seed=3)
        assert report.skipped_fraction == 0.0
        assert report.quadrature.refined_x4 == 0
        assert 1e-9 < report.quadrature.max_error <= spec.accepted_error
        stationary = report.regions["STATIONARY"]
        assert np.array_equal(stationary.abs_k, [abs(kernel_eval(x, t, spec))
                                                 for x, t in zip(stationary.x, stationary.t)])
        small = region_decay_check(KernelSpec(16.0, -1.0, 1.0), samples_per_region=8, seed=3)
        assert report.ray_exponent == pytest.approx(small.ray_exponent, abs=1e-3)
        for name, reg in report.regions.items():
            assert reg.empirical_constant == pytest.approx(
                small.regions[name].empirical_constant, rel=1e-4)


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
        tags = {RegionTag.classify(x, t, spec) for x, t in points}
        assert tags == set(RegionTag)
        xs, ts = np.array(points).T
        coarse = _coarse_samples(spec)
        panels = _Panels(xs, ts, _panel_counts(xs, ts, coarse, refine), coarse)
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
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("n_block", [8.0, 16.0, 32.0])
    def test_equal_to_kernel_eval(self, n_block, level):
        spec = refinement_spec(n_block, level)
        xs, ts = np.array(region_points(n_block)).T
        stats = QuadratureStats()
        values, achieved = _kernel_values(xs, ts, spec, stats)
        ref_values, ref_achieved = scalar_values(xs, ts, spec, None)
        ok = ref_achieved <= spec.tolerance
        assert np.array_equal(values[ok], ref_values[ok])
        assert np.all(achieved[ok] <= spec.tolerance)
        assert np.array_equal(achieved[~ok], ref_achieved[~ok])
        assert np.all(np.isnan(values[~ok]))
        assert ok[6] and np.isposinf(achieved[-1])
        assert stats.points == xs.size and stats.over_cap == 1
        assert stats.refined_x4 >= 1 and (stats.refined_x16 >= 1) == (level == 2)
        assert stats.max_error == np.max(achieved[np.isfinite(achieved)])

    @staticmethod
    def assert_unchanged_with(monkeypatch, name, size):
        """_kernel_values equal bit for bit after setting kernel.<name> = size."""
        spec = refinement_spec(16.0, 1)
        xs, ts = np.array(region_points(16.0)[:-1]).T
        base = _kernel_values(xs, ts, spec, QuadratureStats())
        monkeypatch.setattr(kernel, name, size)
        for a, b in zip(base, _kernel_values(xs, ts, spec, QuadratureStats())):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("budget", [1, 3000, 1 << 40])
    def test_independent_of_batch_budget(self, monkeypatch, budget):
        self.assert_unchanged_with(monkeypatch, "BATCH_NODES", budget)

    @pytest.mark.parametrize("name,size", [
        ("CHUNK_PANELS", 1), ("CHUNK_PANELS", 7), ("CHUNK_PANELS", 1 << 40),
        ("_COUNT_POINTS", 2),
    ])
    def test_independent_of_chunk_and_count_block(self, monkeypatch, name, size):
        self.assert_unchanged_with(monkeypatch, name, size)

    def test_points_over_budget_in_bounded_memory(self):
        # two points of about 680,000 nodes each, side by side on two
        # threads; evaluated whole, one point alone took about 29 MiB
        spec = KernelSpec(16.0, -1.0, 1.0)
        xs, ts = np.full(2, -0.0630), np.full(2, 0.180)
        nodes = 15 * _panel_counts(xs, ts, _coarse_samples(spec), 1.0).sum(axis=1)
        assert np.all(nodes > 10 * kernel.BATCH_NODES)
        tracemalloc.start()
        try:
            values, achieved = _kernel_values(xs, ts, spec, QuadratureStats(), jobs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert values[0] == values[1] == kernel_eval(-0.0630, 0.180, spec)
        assert np.all(achieved <= spec.tolerance)

    def test_tolerance_miss_keeps_bound(self):
        spec = KernelSpec(8.0, -1.0, 1.0, tolerance=1e-16)
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
        # a small batch budget gives each probe many batches to share out,
        # and a short switch interval interleaves the threads finely
        monkeypatch.setattr(kernel, "BATCH_NODES", 2000)
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
    def test_ray_exponent(self):
        spec = KernelSpec(8.0, -1.0, 1.0)
        assert stationary_ray_exponent(spec, RAY_OFFSETS[:4], 9) == \
            reference_ray_exponent(spec, RAY_OFFSETS[:4], 9)

    def test_mixed_norm(self):
        spec = KernelSpec(8.0, -1.0, 1.0)
        report = kernel_mixed_norm(spec, 8.0, n_x=10, n_t=6)
        assert report.value == reference_mixed_norm_value(spec, 8.0, 1.0, 10, 6)
        assert report.quadrature.points == 20 * 6

    def test_region_decay_check(self, monkeypatch):
        spec = KernelSpec(8.0, -1.0, 1.0)
        batched = region_decay_check(spec, samples_per_region=6, seed=4)
        monkeypatch.setattr(kernel, "_kernel_values", scalar_values)
        scalar = region_decay_check(spec, samples_per_region=6, seed=4)
        assert batched.ray_exponent == scalar.ray_exponent
        for name, reg in batched.regions.items():
            for field in ("x", "t", "abs_k", "bound", "ratios"):
                assert np.array_equal(getattr(reg, field), getattr(scalar.regions[name], field))
        assert batched.quadrature.points == 3 * 6 + len(RAY_OFFSETS) * 33

    def test_region_check_skips_point_over_cap(self, monkeypatch):
        spec = KernelSpec(8.0, -1.0, 1.0)
        base = region_decay_check(spec, samples_per_region=20, seed=2)
        stat = base.regions["STATIONARY"]
        nodes = sorted((reference_panel_edges(x, t, spec, 1.0).size - 1) * 15
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

    def test_over_cap_raises_inf_in_ray_and_mixed_norm(self, monkeypatch):
        spec = KernelSpec(8.0, -1.0, 1.0)
        monkeypatch.setattr(kernel, "MAX_NODES", 15 * 60)
        with pytest.raises(QuadratureAccuracyError) as err:
            stationary_ray_exponent(spec, RAY_OFFSETS[:2], 5)
        assert err.value.achieved == math.inf
        with pytest.raises(QuadratureAccuracyError) as err:
            kernel_mixed_norm(spec, 8.0, n_x=4, n_t=3)
        assert err.value.achieved == math.inf

    def test_first_failure_in_scalar_order(self, absolute_tolerance):
        # the outermost x points miss this tolerance at every refinement,
        # each with its own finite bound; the rest converge
        spec = KernelSpec(8.0, -1.0, 1.0, tolerance=2e-13)
        with pytest.raises(QuadratureAccuracyError) as scalar:
            reference_mixed_norm_sup(spec, 0.02, 8, 5)
        with pytest.raises(QuadratureAccuracyError) as batched:
            kernel_mixed_norm(spec, 8.0, c_t=0.02, n_x=8, n_t=5)
        assert math.isfinite(scalar.value.achieved)
        assert batched.value.achieved == scalar.value.achieved
