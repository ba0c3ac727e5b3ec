import math
import sys
import tracemalloc

import numpy as np
import pytest

from ostrovsky import estimates
from ostrovsky.errors import ConfigError
from ostrovsky.estimates import (
    ALL_TAGS,
    LAWS,
    LINFTY_TAGS,
    STRICHARTZ_TAGS,
    TAGS,
    Ensemble,
    _alias_free_period,
    _bilinear_spectra,
    _multilinear_weights,
    _ratio_report,
    bilinear_ratio,
    bilinear_weighted_product,
    default_ensemble,
    linfty_bounds_ratio,
    multilinear_ratio,
    propagator_orbit,
    ratio_pair_for_tag,
    run_ensemble,
    run_tag,
    strichartz_ratio,
)
from ostrovsky.norms import SpaceTimeField, mixed_norm, window_bump, xsb_norm
from ostrovsky.spectral import Field, Grid, MultiplierSpec, PhaseSymbol, multiplier_table

from _reference import full_pad_multilinear_pairs, orbit_sup_x_l2_t, whole_modulation_weights


def tiny_ensemble(tag="2.03", seed=11, n_draws=4, **kw):
    return default_ensemble(tag, seed, n_draws, **kw)


class TestEnsemble:
    def test_draws_reproducible(self):
        ens = tiny_ensemble()
        a = ens.draw(3)
        b = ens.draw(3)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_draws_differ_by_index(self):
        ens = tiny_ensemble()
        assert not np.array_equal(ens.draw(0).coeffs, ens.draw(1).coeffs)

    def test_unit_l2(self):
        ens = tiny_ensemble()
        assert ens.draw(0).l2_norm() == pytest.approx(1.0, rel=1e-12)

    def test_support_respected(self):
        ens = default_ensemble("2.055", 1, 2)
        f = ens.draw(0)
        absxi = np.abs(ens.grid.wavenumbers)
        outside = (absxi < ens.law_param) | (absxi > 4 * ens.law_param)
        assert np.max(np.abs(f.coeffs[outside])) == 0.0

    def test_under_resolved_window_rejected(self):
        grid = Grid(512, 16 * math.pi)
        with pytest.raises(ConfigError):
            Ensemble(seed=1, n_draws=1, law="gaussian_spectrum", law_param=2.0,
                     grid=grid, t_window=0.25, n_t=16)

    @pytest.mark.parametrize("law", LAWS)
    def test_draws_never_set_mode_zero(self, law):
        ens = Ensemble(seed=1, n_draws=1, law=law, law_param=1.0, grid=Grid(256, 16 * math.pi),
                       t_window=0.05, n_t=128)
        assert ens.support_modes()[0] >= 1
        assert ens.draw(0).coeffs[0] == 0

    def test_support_mismatch_rejected(self):
        grid = Grid(64, 2 * math.pi)  # houses |xi| <= 31
        with pytest.raises(ConfigError):
            Ensemble(seed=1, n_draws=1, law="band_limited", law_param=16.0,
                     grid=grid, t_window=0.01, n_t=4096)


class TestStrichartz:
    @pytest.mark.parametrize("tag", ["2.03", "2.05", "2.08", "2.09"])
    def test_finite_and_stable(self, tag):
        report = run_ensemble(tag, default_ensemble(tag, 7, 6))
        assert np.isfinite(report.max_ratio)
        assert report.stability_factor < 4.0

    def test_single_mode_closed_form(self):
        # one cosine at xi0: the L8 norm of the free orbit is the L8 norm
        # of |cos| times the window measure; the ratio is explicit
        ens = tiny_ensemble("2.03")
        grid = ens.grid
        xi0 = grid.wavenumbers[4]
        c = np.zeros(grid.n_points, dtype=complex)
        c[4] = 0.5
        c[-4] = 0.5
        u0 = Field(grid, c)
        lhs, rhs = ratio_pair_for_tag(ens, "2.03", u0)
        # |U(t)u0| = |cos(xi0 x - phi t)|: space-time L8 of cos over full
        # periods, mod window truncation
        l8_cos = (np.mean(np.cos(np.linspace(0, 2 * np.pi, 4096)) ** 8)) ** (1 / 8)
        expected = l8_cos * (grid.length * ens.t_window) ** (1 / 8)
        assert lhs == pytest.approx(expected, rel=0.02)
        assert rhs == pytest.approx(u0.l2_norm(), rel=1e-12)

    def test_maximal_low_pass_uniform_in_cutoff(self):
        maxima = []
        for m_cut in (0.125, 0.25, 0.5, 1.0):
            ens = default_ensemble("2.09", 3, 5, law_param=m_cut)
            rep = run_ensemble("2.09", ens)
            maxima.append(rep.max_ratio)
        assert max(maxima) <= 4.0 * min(maxima)

    def test_homogeneity(self):
        ens = tiny_ensemble("2.05")
        u0 = ens.draw(0)
        base = ratio_pair_for_tag(ens, "2.05", u0)
        for lam in (0.5, 2.0):
            scaled = ratio_pair_for_tag(ens, "2.05", u0 * lam)
            assert scaled[0] / scaled[1] == pytest.approx(base[0] / base[1], rel=1e-10)


class TestLinfty:
    @pytest.mark.parametrize("tag", ["2.055", "2.057", "2.060"])
    def test_finite_and_stable(self, tag):
        report = run_ensemble(tag, default_ensemble(tag, 7, 6))
        assert np.isfinite(report.max_ratio)
        assert report.stability_factor < 4.0

    def test_block_scan_within_factor_four(self):
        maxima = []
        for n_block in (1.0, 2.0, 4.0):
            ens = default_ensemble(
                "2.055", 5, 5, law_param=n_block,
                t_window=20.0 / (4.0 * n_block) ** 3,
            )
            rep = run_ensemble("2.055", ens)
            maxima.append(rep.max_ratio)
        assert max(maxima) <= 4.0 * min(maxima)

    def test_law_mismatch_rejected(self):
        ens = default_ensemble("2.055", 1, 2)
        with pytest.raises(ConfigError, match="^tag 2.057 needs low_frequency data$"):
            run_ensemble("2.057", ens)


class TestBilinear:
    def test_single_mode_annihilated(self):
        g = Grid(64, 2 * np.pi)
        f = Field.from_samples(g, np.cos(3 * g.x))
        out = bilinear_weighted_product(f, f, 0.5, PhaseSymbol(-1.0, 1.0))
        assert np.max(np.abs(out)) < 1e-13

    def test_unweighted_equals_pointwise_product(self, rng):
        g = Grid(64, 2 * np.pi)
        c = np.zeros(64, dtype=complex)
        m = np.arange(1, 8)
        z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c[m], c[-m] = z, np.conj(z)
        f = Field(g, c)
        product_spec = np.fft.fft(f.samples() * f.samples()) / 64
        out = bilinear_weighted_product(f, f, 0.0, PhaseSymbol(-1.0, 1.0))
        assert np.max(np.abs(out - product_spec)) < 1e-10 * np.max(np.abs(product_spec))

    def test_ratio_report(self):
        rep = bilinear_ratio(default_ensemble("2.027", 9, 4))
        assert np.isfinite(rep.max_ratio)
        assert rep.refinement_max == {} and rep.stability_factor == 1.0


class TestMultilinear:
    def test_zero_factor_annihilates(self):
        ens = default_ensemble("3.03", 13, 1)
        k, n_cells = 5, 16
        lhs = _one_cell_lhs(ens, k, n_cells, xi_idx=9, tau_idx=10, kill_one_factor=True)
        assert lhs == 0.0

    def test_one_cell_closed_form(self):
        # every spectrum an indicator of one cell: the convolution is an
        # indicator of the forced sum cell and the form is the product of
        # the weights there
        ens = default_ensemble("3.03", 13, 1)
        k, n_cells = 5, 16
        dxi = 2 * math.pi / ens.grid.length
        dtau = 2 * math.pi / ens.t_window
        outer_w, inner_w = _multilinear_weights(n_cells, dxi, dtau, ens.symbol,
                                                0.102, ens.b, ens.epsilon)
        half = n_cells // 2
        xi_idx, tau_idx = 1 + half, 1 + half
        direct = outer_w[(k + 1) * 1 + half, (k + 1) * 1 + half] * \
            inner_w[xi_idx, tau_idx] ** (k + 1) * (dxi * dtau) ** (k + 1)
        lhs = _one_cell_lhs(ens, k, n_cells, xi_idx, tau_idx)
        assert lhs == pytest.approx(direct, rel=1e-12)

    def test_refinement_stable(self, monkeypatch):
        monkeypatch.setattr(estimates, "MULTILINEAR_CELLS", 32)
        rep = multilinear_ratio(default_ensemble("3.03", 13, 5))
        assert rep.stability_factor < 4.0


def _one_cell_lhs(ens, k, n_cells, xi_idx, tau_idx, kill_one_factor=False):
    """LHS of the multilinear form with every spectrum an indicator of
    one cell, computed along the production FFT path."""
    dxi = 2 * math.pi / ens.grid.length
    dtau = 2 * math.pi / ens.t_window
    outer_w, inner_w = _multilinear_weights(n_cells, dxi, dtau, ens.symbol,
                                            0.102, ens.b, ens.epsilon)
    half = n_cells // 2
    pad = 1
    while pad < (k + 1) * (n_cells - 1) + 1:
        pad *= 2
    cell = np.zeros((n_cells, n_cells))
    cell[xi_idx, tau_idx] = 1.0
    prod = np.ones((pad, pad), dtype=complex)
    for j in range(k + 1):
        padded = np.zeros((pad, pad))
        if not (kill_one_factor and j == 2):
            padded[:n_cells, :n_cells] = inner_w * cell
        prod = prod * np.fft.fft2(padded)
    conv = np.fft.ifft2(prod).real
    base = (k + 1) * half
    window = conv[base - half: base + half, base - half: base + half]
    outer_f = np.zeros((n_cells, n_cells))
    sum_xi = (k + 1) * (xi_idx - half) + half
    sum_tau = (k + 1) * (tau_idx - half) + half
    if 0 <= sum_xi < n_cells and 0 <= sum_tau < n_cells:
        outer_f[sum_xi, sum_tau] = 1.0
    elif not kill_one_factor:
        raise AssertionError("forced cell escaped the outer lattice")
    return float(np.sum(outer_w * outer_f * window)) * (dxi * dtau) ** (k + 1)


class TestDispatch:
    def test_unknown_tag(self):
        with pytest.raises(ConfigError, match="^unknown tag '9.99'; valid tags: 2.03, 2.05, "):
            run_tag("9.99", seed=1, n_draws=1)
        with pytest.raises(ConfigError, match="^unknown tag '9.99'; valid tags: "):
            run_ensemble("9.99", default_ensemble("3.03", 1, 1))

    def test_all_tags_listed(self):
        assert set(ALL_TAGS) == {
            "2.03", "2.05", "2.08", "2.09", "2.027", "2.055", "2.057", "2.060", "3.03",
        }

    def test_family_tuples_are_the_orbit_records(self):
        orbit = tuple(tag for tag, record in TAGS.items() if record.pair is not None)
        assert STRICHARTZ_TAGS + LINFTY_TAGS == orbit
        assert all((record.pair is None) != (record.ratio is None) for record in TAGS.values())

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_report_label_and_refinements(self, tag):
        labels = {"2.027": "2.027(s=0.5)", "3.03": "3.03(k=5)"}
        rep = run_tag(tag, seed=3, n_draws=1)
        assert rep.tag == labels.get(tag, tag)
        assert tuple(rep.refinement_max) == TAGS[tag].refinements

    @pytest.mark.parametrize("shim,family,other", [
        (strichartz_ratio, STRICHARTZ_TAGS, "2.055"),
        (linfty_bounds_ratio, LINFTY_TAGS, "2.03"),
    ], ids=["strichartz", "linfty"])
    def test_family_shim_refuses_other_tags(self, shim, family, other):
        tag = family[-1]
        ens = default_ensemble(tag, 3, 1)
        assert np.array_equal(shim(ens, tag).ratios, run_ensemble(tag, ens).ratios)
        with pytest.raises(ConfigError, match=f"unknown tag '{other}'; expected one of"):
            shim(ens, other)

    @pytest.mark.parametrize("tag", ["2.027", "3.03", "9.99"])
    def test_pair_only_for_orbit_tags(self, tag):
        ens = default_ensemble("2.05", 3, 1)
        with pytest.raises(ConfigError, match=f"^tag '{tag}' is not orbit-based$"):
            ratio_pair_for_tag(ens, tag, ens.draw(0))

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_worker_count_independent(self, tag):
        serial = run_tag(tag, seed=11, n_draws=2, jobs=1)
        pooled = run_tag(tag, seed=11, n_draws=2, jobs=2)
        for name in ("lhs", "rhs", "ratios"):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name))
        assert serial.refinement_max == pooled.refinement_max
        assert serial.skipped == pooled.skipped

    def test_more_workers_than_cores_match_serial(self):
        # more threads than cores race to build a fresh ensemble's tables
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_tag("2.05", seed=11, n_draws=8, jobs=8)
        finally:
            sys.setswitchinterval(switch)
        serial = run_tag("2.05", seed=11, n_draws=8, jobs=1)
        assert np.array_equal(pooled.ratios, serial.ratios)
        assert pooled.refinement_max == serial.refinement_max

    def test_more_workers_than_cores_share_the_gram(self):
        # 2.08's time Gram is built before the workers start
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_tag("2.08", seed=11, n_draws=8, jobs=8)
        finally:
            sys.setswitchinterval(switch)
        serial = run_tag("2.08", seed=11, n_draws=8, jobs=1)
        assert np.array_equal(pooled.ratios, serial.ratios)
        assert pooled.refinement_max == serial.refinement_max

    def test_report_reproducible_from_seed(self):
        a = run_tag("2.057", seed=42, n_draws=3)
        b = run_tag("2.057", seed=42, n_draws=3)
        assert np.array_equal(a.ratios, b.ratios)
        assert a.refinement_max == b.refinement_max


# --------------------------------------------------------------------------
# Reference path: the full-grid orbit (one complex exponential and a complex
# inverse FFT over every mode), spatial multipliers applied by re-transforming
# the orbit, and the modulation norm from xsb_norm's 2-D FFT.

def _reference_orbit(ens, u0, windowed=True):
    grid = ens.grid
    phi = ens.symbol.table(grid)
    t = np.arange(ens.n_t) * (ens.t_window / ens.n_t)
    coeffs = np.exp(-1j * t[:, None] * phi[None, :]) * u0.coeffs[None, :]
    values = np.fft.ifft(coeffs * grid.n_points, axis=1).real
    if windowed:
        values = values * window_bump(t, ens.t_window)[:, None]
    return SpaceTimeField(grid, ens.t_window, values)


def _reference_multiplied(stf, table):
    spec = np.fft.fft(stf.values, axis=1) * table[None, :]
    return SpaceTimeField(stf.grid, stf.t_window, np.fft.ifft(spec, axis=1).real)


def _reference_pair(ens, tag, u0):
    grid = ens.grid

    def table(alpha, band=None):
        out = multiplier_table(grid, MultiplierSpec.fractional_d(alpha))
        return out if band is None else out * multiplier_table(grid, band)

    high = MultiplierSpec.high_pass(ens.threshold)
    if tag == "2.03":
        return mixed_norm(_reference_orbit(ens, u0, windowed=False), 8.0, 8.0), u0.l2_norm()
    stf = _reference_orbit(ens, u0)
    rhs = xsb_norm(stf, 0.0, ens.b, ens.symbol)
    if tag == "2.05":
        return mixed_norm(_reference_multiplied(stf, table(1.0 / 6.0, high)), 6.0, 6.0), rhs
    if tag == "2.08":
        lhs = mixed_norm(_reference_multiplied(stf, table(1.0, high)), math.inf, 2.0, "x_outer")
        return lhs, rhs
    if tag == "2.09":
        low = MultiplierSpec.low_pass(ens.law_param)
        lhs = mixed_norm(_reference_multiplied(stf, table(0.25 + ens.epsilon, low)),
                         2.0, math.inf, "x_outer")
        return lhs, rhs
    if tag == "2.055":
        return float(np.max(np.abs(stf.values))), ens.law_param ** (0.25 - ens.epsilon) * rhs
    if tag == "2.057":
        rhs = xsb_norm(_reference_multiplied(stf, table(-0.25)), 0.0, ens.b, ens.symbol)
        return mixed_norm(stf, 2.0 / (1.0 - 2.0 * ens.epsilon), math.inf, "x_outer"), rhs
    lhs = np.max(np.abs(_reference_multiplied(stf, table(-0.5 - 4.0 * ens.epsilon, high)).values))
    return float(lhs), rhs


ORBIT_CASES = [(tag, name) for tag in STRICHARTZ_TAGS
               for name in (None, "grid_x2", "grid_x4", "window_x2")] + \
              [(tag, name) for tag in LINFTY_TAGS for name in (None, "grid_x2", "window_x2")]


class TestOrbitFastPath:
    @pytest.mark.parametrize("tag,refinement", ORBIT_CASES)
    def test_pair_equals_full_grid_reference(self, tag, refinement):
        ens = default_ensemble(tag, 5, 2)
        ens = ens if refinement is None else ens.refined(refinement)
        u0 = ens.draw(1)
        lhs, rhs = ratio_pair_for_tag(ens, tag, u0)
        ref_lhs, ref_rhs = _reference_pair(ens, tag, u0)
        assert lhs == pytest.approx(ref_lhs, rel=1e-12, abs=0.0)
        assert rhs == pytest.approx(ref_rhs, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("windowed", [True, False])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_orbit_equals_full_grid_reference(self, windowed, symmetric):
        # a spectrum that is not conjugate-symmetric orbits as its real part
        ens = default_ensemble("2.060", 5, 1)
        u0 = ens.draw(0)
        if not symmetric:
            c = u0.coeffs.copy()
            c[ens.support_modes()] *= 1.0 + 0.3j
            u0 = Field(ens.grid, c)
        fast = propagator_orbit(ens, u0, windowed).values
        ref = _reference_orbit(ens, u0, windowed).values
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_tables_built_on_first_use(self):
        ens = default_ensemble("2.05", 5, 1)
        assert "phase_table" not in vars(ens) and "modulation_weights" not in vars(ens)
        ratio_pair_for_tag(ens, "2.05", ens.draw(0))
        assert ens.phase_table.shape == (ens.n_t, ens.support_modes().size)
        assert "modulation_weights" in vars(ens)

    @pytest.mark.parametrize("tag", STRICHARTZ_TAGS + LINFTY_TAGS)
    @pytest.mark.parametrize("where", ["mode_zero", "off_support"])
    def test_data_off_support_rejected(self, tag, where):
        ens = default_ensemble(tag, 5, 1)
        c = ens.draw(0).coeffs.copy()
        m = 0 if where == "mode_zero" else ens.support_modes()[-1] + 1
        c[m] += 1e-3
        c[-m] += 1e-3
        with pytest.raises(ConfigError, match="support"):
            ratio_pair_for_tag(ens, tag, Field(ens.grid, c))
        with pytest.raises(ConfigError, match="support"):
            propagator_orbit(ens, Field(ens.grid, c))

    def test_data_on_other_grid_rejected(self):
        ens = default_ensemble("2.05", 5, 1)
        other = ens.refined("grid_x2")
        with pytest.raises(ConfigError):
            ratio_pair_for_tag(ens, "2.05", other.draw(0))


def _whole_orbit_lhs(ens, tag, u0):
    """An orbit tag's LHS as mixed_norm of the whole propagator_orbit."""
    grid, eps = ens.grid, ens.epsilon
    high = multiplier_table(grid, MultiplierSpec.high_pass(ens.threshold))

    def orbit(alpha=None, band=None):
        if alpha is None:
            return propagator_orbit(ens, u0)
        d = multiplier_table(grid, MultiplierSpec.fractional_d(alpha))
        return propagator_orbit(ens, u0, multiplier=d * band)

    if tag == "2.03":
        return mixed_norm(propagator_orbit(ens, u0, windowed=False), 8.0, 8.0)
    if tag == "2.05":
        return mixed_norm(orbit(1.0 / 6.0, high), 6.0, 6.0)
    if tag == "2.09":
        low = multiplier_table(grid, MultiplierSpec.low_pass(ens.law_param))
        return mixed_norm(orbit(0.25 + eps, low), 2.0, math.inf, "x_outer")
    if tag == "2.055":
        return float(np.max(np.abs(orbit().values)))
    if tag == "2.057":
        return mixed_norm(orbit(), 2.0 / (1.0 - 2.0 * eps), math.inf, "x_outer")
    return float(np.max(np.abs(orbit(-0.5 - 4.0 * eps, high).values)))


class TestOrbitBlocks:
    """Orbit tags reduce their LHS over ORBIT_BLOCK window samples at a time."""

    @pytest.mark.parametrize("block", [1, 48, "n_t"])
    @pytest.mark.parametrize("tag,refinement", [c for c in ORBIT_CASES if c[0] != "2.08"])
    def test_streamed_lhs_equals_whole_orbit(self, monkeypatch, tag, refinement, block):
        ens = default_ensemble(tag, 5, 2)
        ens = ens if refinement is None else ens.refined(refinement)
        monkeypatch.setattr(estimates, "ORBIT_BLOCK", ens.n_t if block == "n_t" else block)
        u0 = ens.draw(1)
        assert ratio_pair_for_tag(ens, tag, u0)[0] == _whole_orbit_lhs(ens, tag, u0)

    def test_pair_holds_less_than_one_orbit(self):
        # the whole 1024 x 512 orbit of 2.03's window_x2 takes 4 MiB, and
        # synthesized whole, a pair's peak was about 12 MiB
        ens = default_ensemble("2.03", 5, 1).refined("window_x2")
        u0 = ens.draw(0)
        ratio_pair_for_tag(ens, "2.03", u0)  # builds the phase table outside the trace
        tracemalloc.start()
        try:
            ratio_pair_for_tag(ens, "2.03", u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ens.n_t * ens.grid.n_points * np.dtype(float).itemsize


def _traced_peak(fn) -> float:
    """The largest memory fn() holds at once, in bytes, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTablesInBoundedMemory:
    """The per-ensemble tables: built in mode blocks, built before the draws
    start, and shared by the grid refinements; and the peaks of run_tag."""

    @pytest.mark.parametrize("tag,refinement", ORBIT_CASES)
    def test_blocked_modulation_weights_equal_whole_table(self, tag, refinement):
        ens = default_ensemble(tag, 5, 1)
        ens = ens if refinement is None else ens.refined(refinement)
        assert np.array_equal(ens.modulation_weights, whole_modulation_weights(ens))

    def test_modulation_weights_build_holds_less_than_the_whole_tables(self):
        # built whole, the 1024 x 118 tables of 2.05's window_x2 peaked at
        # 4.75 MiB, 2.6 phase tables; in mode blocks at 1.9 MiB
        ens = default_ensemble("2.05", 5, 1).refined("window_x2")
        ens.phase_table, ens.window
        assert _traced_peak(lambda: ens.modulation_weights) < 2 * ens.phase_table.nbytes

    @pytest.mark.parametrize("tag", STRICHARTZ_TAGS + LINFTY_TAGS)
    def test_pair_builds_its_tables_before_the_draws(self, tag):
        ens = default_ensemble(tag, 5, 1)
        estimates._orbit_pair(tag, ens)
        built = {"phase_table"} if tag == "2.03" else {"phase_table", "window",
                                                         "modulation_weights"}
        if tag == "2.08":
            built.add("time_gram")
        assert set(vars(ens)) & set(estimates._SHARED_TABLES) == built

    @pytest.mark.parametrize("tag,refinement", [
        (tag, name) for tag in STRICHARTZ_TAGS + LINFTY_TAGS
        for name in TAGS[tag].refinements if name.startswith("grid")])
    def test_grid_refinement_shares_tables_equal_to_fresh_ones(self, tag, refinement):
        base = default_ensemble(tag, 5, 2)
        estimates._orbit_pair(tag, base)
        shared, fresh = base.refined(refinement), default_ensemble(tag, 5, 2).refined(refinement)
        assert not set(vars(fresh)) & set(estimates._SHARED_TABLES)
        estimates._orbit_pair(tag, fresh)
        names = set(vars(base)) & set(estimates._SHARED_TABLES)
        assert names and names == set(vars(fresh)) & set(estimates._SHARED_TABLES)
        for name in names:
            assert vars(shared)[name] is vars(base)[name]
            assert np.array_equal(np.asarray(vars(shared)[name]), np.asarray(vars(fresh)[name]))
        u0 = shared.draw(1)
        assert ratio_pair_for_tag(shared, tag, u0) == ratio_pair_for_tag(fresh, tag, u0)

    def test_refinement_with_other_support_builds_its_own(self):
        # at n = 128 the Gaussian support is cut at the grid's top mode 63,
        # at grid_x2's n = 256 it runs to mode 118
        base = default_ensemble("2.08", 5, 1, n=128)
        estimates._orbit_pair("2.08", base)
        fine = base.refined("grid_x2")
        assert fine.support_modes().size > base.support_modes().size
        assert not set(vars(fine)) & set(estimates._SHARED_TABLES)
        assert not set(vars(base.refined("window_x2"))) & set(estimates._SHARED_TABLES)

    # run_tag's peaks at jobs = 2, against the whole tables built in each
    # draw's thread and 3.03's whole-period transforms
    @pytest.mark.parametrize("tag,bound", [
        ("2.05", 3.0),  # window_x2 phase tables: 7.5 MiB whole, 4.7 in blocks
        ("2.08", 4.5),  # window_x2 phase tables: 9.6 MiB, 7.4 shared and in blocks
        ("3.03", 4.0),  # lattice_x2 period transforms: 11.4 MiB whole, 6.1 in blocks
    ])
    def test_run_tag_peak(self, tag, bound):
        if tag == "3.03":
            unit = 512 * 257 * np.dtype(complex).itemsize
        else:
            ens = default_ensemble(tag, 5, 1).refined("window_x2")
            unit = ens.n_t * ens.support_modes().size * np.dtype(complex).itemsize
        run_tag(tag, 5, 1)
        assert _traced_peak(lambda: run_tag(tag, 5, 2, jobs=2)) < bound * unit


class TestBilinearVectorized:
    @pytest.mark.parametrize("refinement", [None, "grid_x2"])
    def test_spectra_equal_per_slice_product(self, refinement):
        ens = default_ensemble("2.027", 9, 1)
        ens = ens if refinement is None else ens.refined(refinement)
        f1, f2 = ens.draw(0), ens.draw(1)
        spectra = _bilinear_spectra(ens)(f1, f2)
        phi = ens.symbol.table(ens.grid)
        for row, tl in zip(spectra, ens.times()):
            ph = np.exp(-1j * tl * phi)
            ref = bilinear_weighted_product(Field(ens.grid, f1.coeffs * ph),
                                            Field(ens.grid, f2.coeffs * ph), 0.5, ens.symbol)
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_lhs_equals_per_slice_loop(self):
        ens = default_ensemble("2.027", 9, 3)
        rep = bilinear_ratio(ens)
        grid, phi, dt = ens.grid, ens.symbol.table(ens.grid), ens.t_window / ens.n_t
        for i, lhs in enumerate(rep.lhs):
            f1, f2 = ens.draw(2 * i), ens.draw(2 * i + 1)
            total = 0.0
            for tl in ens.times():
                ph = np.exp(-1j * tl * phi)
                spec = bilinear_weighted_product(Field(grid, f1.coeffs * ph),
                                                 Field(grid, f2.coeffs * ph), 0.5, ens.symbol)
                total += grid.length * float(np.sum(np.abs(spec) ** 2)) * dt
            assert lhs == pytest.approx(math.sqrt(total), rel=1e-13, abs=0.0)


def _reference_multilinear_pair(ens, k, cells, dxi, dtau, rng_salt, i, s, b):
    """One multilinear draw with the padded (k+1)-fold product by complex
    fft2/ifft2."""
    outer_w, inner_w = _multilinear_weights(cells, dxi, dtau, ens.symbol, s, b, ens.epsilon)
    pad = 1
    while pad < (k + 1) * (cells - 1) + 1:
        pad *= 2
    rng = np.random.default_rng(np.random.SeedSequence(ens.seed, spawn_key=(rng_salt, i)))
    outer_f = rng.random((cells, cells))
    factors = [rng.random((cells, cells)) for _ in range(k + 1)]
    prod = np.ones((pad, pad), dtype=complex)
    for f in factors:
        padded = np.zeros((pad, pad))
        padded[:cells, :cells] = inner_w * f
        prod = prod * np.fft.fft2(padded)
    conv = np.maximum(np.fft.ifft2(prod).real, 0.0)
    half = cells // 2
    sl = slice((k + 1) * half - half, (k + 1) * half + half)
    measure = dxi * dtau
    left = float(np.sum(outer_w * outer_f * conv[sl, sl])) * measure ** (k + 1)
    right = math.sqrt(float(np.sum(outer_f**2)) * measure)
    for f in factors:
        right *= math.sqrt(float(np.sum(f**2)) * measure)
    return left, right


class TestMultilinearRealTransforms:
    def test_equal_to_complex_fft_loop(self, monkeypatch):
        ens = default_ensemble("3.03", 13, 2)
        k, cells = 5, 16
        s, b = 0.5 - 2.0 / k + 2.0 * ens.epsilon, ens.b
        monkeypatch.setattr(estimates, "MULTILINEAR_CELLS", cells)
        rep = multilinear_ratio(ens)
        dxi, dtau = 2 * math.pi / ens.grid.length, 2 * math.pi / ens.t_window
        for i in range(ens.n_draws):
            left, right = _reference_multilinear_pair(ens, k, cells, dxi, dtau, 0, i, s, b)
            assert rep.lhs[i] == pytest.approx(left, rel=1e-12, abs=0.0)
            assert rep.rhs[i] == right
        fine = [_reference_multilinear_pair(ens, k, 2 * cells, dxi / 2, dtau / 2, 1, i, s, b)
                for i in range(ens.n_draws)]
        assert rep.refinement_max["lattice_x2"] == pytest.approx(
            max(left / right for left, right in fine), rel=1e-12, abs=0.0)


class TestSynthesisOracles:
    """2.08's time-Gram LHS and 3.03's alias-free period, per draw against
    the orbit synthesis and the full-length pad they replace."""

    @pytest.mark.parametrize("seed", [2024, 1])
    @pytest.mark.parametrize("refinement", (None,) + TAGS["2.08"].refinements)
    def test_local_smoothing_equals_orbit_synthesis(self, seed, refinement):
        ens = default_ensemble("2.08", seed, 3)
        ens = ens if refinement is None else ens.refined(refinement)
        table = multiplier_table(ens.grid, MultiplierSpec.fractional_d(1.0)) * \
            multiplier_table(ens.grid, MultiplierSpec.high_pass(ens.threshold))
        for i in range(ens.n_draws):
            u0 = ens.draw(i)
            lhs = ratio_pair_for_tag(ens, "2.08", u0)[0]
            assert lhs == pytest.approx(orbit_sup_x_l2_t(ens, u0, table), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed", [2024, 1])
    def test_multilinear_equals_full_pad(self, seed, monkeypatch):
        # the shipped lattices: 64 cells, and 128 for lattice_x2
        ens = default_ensemble("3.03", seed, 2)
        captured = {}
        monkeypatch.setattr(estimates, "_ratio_report",
                            lambda tag, n, pair_for, *_: captured.update(pair_for=pair_for))
        multilinear_ratio(ens)
        reference = full_pad_multilinear_pairs(ens, 5, 64)
        for name in (None,) + TAGS["3.03"].refinements:
            pair, ref_pair = captured["pair_for"](name), reference(name)
            for i in range(ens.n_draws):
                (left, right), (ref_left, ref_right) = pair(i), ref_pair(i)
                assert left == pytest.approx(ref_left, rel=1e-13, abs=0.0)
                assert right == ref_right

    @pytest.mark.parametrize("seed", [2024, 1])
    def test_multilinear_window_rows_equal_irfft2(self, seed, monkeypatch):
        # PERIOD_BLOCKS column blocks of the period transforms and the
        # inverse of the window rows only, against rfft2 and irfft2 over the
        # whole period: 256 at 64 cells and 512 at 128 (lattice_x2), bit for bit
        self._assert_multilinear_equals_whole_period(seed, monkeypatch)

    @pytest.mark.parametrize("blocks", [1, 7])
    def test_multilinear_column_blocks_move_no_bit(self, blocks, monkeypatch):
        monkeypatch.setattr(estimates, "PERIOD_BLOCKS", blocks)
        self._assert_multilinear_equals_whole_period(2024, monkeypatch)

    @staticmethod
    def _assert_multilinear_equals_whole_period(seed, monkeypatch):
        ens = default_ensemble("3.03", seed, 2)
        captured = {}
        monkeypatch.setattr(estimates, "_ratio_report",
                            lambda tag, n, pair_for, *_: captured.update(pair_for=pair_for))
        multilinear_ratio(ens)
        reference = full_pad_multilinear_pairs(ens, 5, 64, period=_alias_free_period)
        for name in (None,) + TAGS["3.03"].refinements:
            pair, ref_pair = captured["pair_for"](name), reference(name)
            for i in range(ens.n_draws):
                assert pair(i) == ref_pair(i)


def _alias_free(k, cells, period):
    half = cells // 2
    base = (k + 1) * half
    return period >= base + half and base - half + period > (k + 1) * (cells - 1)


class TestAliasFreePeriod:
    @pytest.mark.parametrize("k,cells", [(5, 64), (5, 128), (5, 16), (3, 64), (1, 8), (7, 32)])
    def test_smallest_power_of_two(self, k, cells):
        period = _alias_free_period(k, cells)
        assert _alias_free(k, cells, period)
        assert not _alias_free(k, cells, period // 2)

    def test_shipped_lattices(self):
        # the full linear length pads to 512 and 1024
        assert [_alias_free_period(5, cells) for cells in (64, 128)] == [256, 512]


class TestRefinementSkips:
    def test_skipped_draws_counted_per_refinement(self):
        def pair_for(name):
            return lambda i: (1.0 + i, 0.0 if (name == "b" and i == 1) else 2.0)

        rep = _ratio_report("t", 3, pair_for, ("a", "b"), jobs=1)
        assert rep.skipped == 0
        assert rep.refinement_skipped == {"a": 0, "b": 1}
        assert rep.refinement_max == {"a": 1.5, "b": 1.5}

    def test_run_tag_reports_every_refinement(self):
        rep = run_tag("2.057", seed=3, n_draws=2)
        assert rep.refinement_skipped == {"grid_x2": 0, "window_x2": 0}


ORBIT_REFINEMENTS = [(tag, name) for tag in STRICHARTZ_TAGS + LINFTY_TAGS
                     for name in TAGS[tag].refinements]


def _orbit_lhs(ens, tag, n_draws):
    return np.array([ratio_pair_for_tag(ens, tag, ens.draw(i))[0] for i in range(n_draws)])


class TestRefinementTable:
    """Each refinement a tag runs measures something the base does not."""

    @pytest.mark.parametrize("tag,refinement", ORBIT_REFINEMENTS)
    def test_orbit_refinement_moves_lhs(self, tag, refinement):
        ens = default_ensemble(tag, 2024, 3)
        base = _orbit_lhs(ens, tag, 3)
        moved = np.abs(_orbit_lhs(ens.refined(refinement), tag, 3) - base) / base
        assert np.max(moved) > 1e-12  # beyond rounding

    def test_lattice_refinement_moves_max(self):
        rep = run_tag("3.03", seed=2024, n_draws=2)
        assert rep.refinement_max["lattice_x2"] != rep.max_ratio

    @pytest.mark.parametrize("tag", ["2.03", "2.05", "2.027"])
    def test_dropped_grid_refinement_reproduces_lhs(self, tag):
        # grid_x2 redraws the same modes at fixed L, and these integral
        # norms are exact on the base grid: the reason the table omits it
        ens = default_ensemble(tag, 2024, 3)
        fine = ens.refined("grid_x2")
        if tag == "2.027":
            base, refined = bilinear_ratio(ens).lhs, bilinear_ratio(fine).lhs
        else:
            base, refined = _orbit_lhs(ens, tag, 3), _orbit_lhs(fine, tag, 3)
        assert "grid_x2" not in TAGS[tag].refinements
        np.testing.assert_allclose(refined, base, rtol=1e-15, atol=0.0)
