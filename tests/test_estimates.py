import math

import numpy as np
import pytest

from ostrovsky.errors import ConfigError, LatticeSizeError
from ostrovsky.estimates import (
    ALL_TAGS,
    Ensemble,
    bilinear_ratio,
    bilinear_weighted_product,
    default_ensemble,
    linfty_bounds_ratio,
    multilinear_ratio,
    propagator_orbit,
    ratio_pair_for_tag,
    run_tag,
    strichartz_ratio,
)
from ostrovsky.spectral import Field, Grid, PhaseSymbol


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

    def test_support_mismatch_rejected(self):
        grid = Grid(64, 2 * math.pi)  # houses |xi| <= 31
        with pytest.raises(ConfigError):
            Ensemble(seed=1, n_draws=1, law="band_limited", law_param=16.0,
                     grid=grid, t_window=0.01, n_t=4096)


class TestStrichartz:
    @pytest.mark.parametrize("tag", ["2.03", "2.05", "2.08", "2.09"])
    def test_finite_and_stable(self, tag):
        report = strichartz_ratio(default_ensemble(tag, 7, 6), tag,
                                  refinements=("grid_x2",))
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
            rep = strichartz_ratio(ens, "2.09", refinements=())
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
        report = linfty_bounds_ratio(default_ensemble(tag, 7, 6), tag,
                                     refinements=("grid_x2",))
        assert np.isfinite(report.max_ratio)
        assert report.stability_factor < 4.0

    def test_block_scan_within_factor_four(self):
        maxima = []
        for n_block in (1.0, 2.0, 4.0):
            ens = default_ensemble(
                "2.055", 5, 5, law_param=n_block,
                t_window=20.0 / (4.0 * n_block) ** 3,
            )
            rep = linfty_bounds_ratio(ens, "2.055", refinements=())
            maxima.append(rep.max_ratio)
        assert max(maxima) <= 4.0 * min(maxima)

    def test_law_mismatch_rejected(self):
        ens = default_ensemble("2.055", 1, 2)
        with pytest.raises(ConfigError):
            linfty_bounds_ratio(ens, "2.057", refinements=())


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
        rep = bilinear_ratio(default_ensemble("2.027", 9, 4), 0.5,
                             refinements=("grid_x2",))
        assert np.isfinite(rep.max_ratio)
        assert rep.stability_factor < 4.0

    def test_s_range_validated(self):
        with pytest.raises(ConfigError):
            bilinear_ratio(default_ensemble("2.027", 9, 2), 0.75)


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
        from ostrovsky.estimates import _multilinear_weights

        outer_w, inner_w = _multilinear_weights(n_cells, dxi, dtau, ens.symbol,
                                                0.102, ens.b, ens.epsilon)
        half = n_cells // 2
        xi_idx, tau_idx = 1 + half, 1 + half
        direct = outer_w[(k + 1) * 1 + half, (k + 1) * 1 + half] * \
            inner_w[xi_idx, tau_idx] ** (k + 1) * (dxi * dtau) ** (k + 1)
        lhs = _one_cell_lhs(ens, k, n_cells, xi_idx, tau_idx)
        assert lhs == pytest.approx(direct, rel=1e-12)

    def test_lattice_guard(self):
        with pytest.raises(LatticeSizeError):
            multilinear_ratio(default_ensemble("3.03", 13, 1), k=5, n_cells=512)

    def test_refinement_stable(self):
        rep = multilinear_ratio(default_ensemble("3.03", 13, 5), k=5, n_cells=32)
        assert rep.stability_factor < 4.0


def _one_cell_lhs(ens, k, n_cells, xi_idx, tau_idx, kill_one_factor=False):
    """LHS of the multilinear form with every spectrum an indicator of
    one cell, computed along the production FFT path."""
    from ostrovsky.estimates import _multilinear_weights

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
        with pytest.raises(ConfigError):
            run_tag("9.99", seed=1, n_draws=1)

    def test_all_tags_listed(self):
        assert set(ALL_TAGS) == {
            "2.03", "2.05", "2.08", "2.09", "2.027", "2.055", "2.057", "2.060", "3.03",
        }

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_worker_count_independent(self, tag):
        serial = run_tag(tag, seed=11, n_draws=2, jobs=1)
        pooled = run_tag(tag, seed=11, n_draws=2, jobs=2)
        for name in ("lhs", "rhs", "ratios"):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name))
        assert serial.refinement_max == pooled.refinement_max
        assert serial.skipped == pooled.skipped

    def test_report_reproducible_from_seed(self):
        a = run_tag("2.057", seed=42, n_draws=3)
        b = run_tag("2.057", seed=42, n_draws=3)
        assert np.array_equal(a.ratios, b.ratios)
        assert a.refinement_max == b.refinement_max
