"""Monte-Carlo falsification harness for the dispersive-estimate zoo.

Each probe draws random data matched to an estimate's frequency support,
evolves it freely over a time window, computes the estimate's two sides,
and reports the per-draw ratios.  Constants are never asserted
numerically: the testable form of "C < infinity, independent of the
cutoff" is that the max ratio is finite and stable (within 4x) under the
tag's refinements.  A grid refinement at fixed L redraws the same modes,
so it moves only an LHS that takes a sup; it reproduced the integral
norms of 2.03, 2.05 and 2.027 to rounding, so they run no grid
refinement.  2.027 runs no refinement yet; dyadic cutoff doublings are
not yet run.

Right-hand sides in the modulation norm are those of windowed
propagator orbits.  The time sampling must resolve the fastest phase on
the data's support (n_t >= T * max|phi| / pi); otherwise the demodulated
content aliases to spurious large modulations and the weight <sigma>^{2b}
inflates the norm, polluting the cutoff scans.  Ensemble construction
enforces this.  Such norms are summed per mode in closed form from
weights each Ensemble builds once.  So is 2.08's Linf_x L2_t norm: the
time sum of |u(x, t_l)|^2 is a trigonometric polynomial in x whose
coefficients come from a time Gram of the support modes, synthesized
once per draw.  The other orbit tags synthesize the orbit from the law's
support modes ORBIT_BLOCK window samples at a time and reduce their mixed
norms block by block (norms.mixed_norm_blocks), so no draw holds a whole
orbit; the values equal those of the whole orbit bit for bit.

Where the tables live: each orbit tag's pair builder builds the tables its
draws read (the phase table, the window, the modulation weights, 2.08's
time Gram) on the calling thread before the draws start, never lazily in
a pool thread.  Ensemble.refined hands a grid refinement at fixed L the
base's built tables when it samples the same window and support
wavenumbers, so within one run_ensemble call the grid refinements build
only their mode slots; a window refinement builds its own.  There is no
cache across ensembles.  The modulation weights are built MODE_BLOCK
modes at a time and 3.03's period transforms PERIOD_BLOCKS column blocks
at a time, with the bits of the whole tables.

Estimate tags are opaque IDs, each declared once in TAGS; draws are
reproducible bit-exactly from (seed, draw index) and independent of
worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .norms import SpaceTimeField, mixed_norm_blocks, window_bump
from .pool import pool_map
from .spectral import (Field, Grid, MultiplierSpec, PhaseSymbol, angular_frequencies, dft,
                       fft_mode_numbers, hermitian_extension, mirror_slot, mode_slots,
                       multiplier_table, scatter_modes, synthesize)

# the orbit tags of TAGS; kept for labbench, ROADMAP item 1 deletes them
STRICHARTZ_TAGS = ("2.03", "2.05", "2.08", "2.09")
LINFTY_TAGS = ("2.055", "2.057", "2.060")

LAWS = ("gaussian_spectrum", "band_limited", "low_frequency", "high_frequency")

# Ensemble.refined's factors on (the grid points at fixed L, the window and n_t)
REFINED = {"grid_x2": (2, 1), "grid_x4": (4, 1), "window_x2": (1, 2)}
# Ensemble's tables that depend on the window samples and the support
# wavenumbers but not on the grid's point count; grid refinements share them
_SHARED_TABLES = ("phase_table", "window", "modulation_weights", "time_gram")
ORBIT_BLOCK = 64  # window samples an orbit tag synthesizes at a time; no value depends on it
MODE_BLOCK = 32  # support modes modulation_weights builds at a time; 8 to 64 gave the same bits
BILINEAR_S = 0.5  # 2.027's interaction weight |phi'(xi1) - phi'(xi2)|^s
MULTILINEAR_K = 5  # 3.03's form is (k+2)-linear
MULTILINEAR_CELLS = 64  # cells per side of 3.03's base mode lattice
PERIOD_BLOCKS = 4  # column blocks 3.03's period transforms run in; no value depends on it


@dataclass(frozen=True)
class Ensemble:
    """Reproducible family of random draws on a fixed grid and window."""

    seed: int
    n_draws: int
    law: str
    law_param: float
    grid: Grid
    t_window: float
    n_t: int
    beta: float = -1.0
    gamma: float = 1.0
    b: float = 0.5 + 1.0 / 48.0
    epsilon: float = 1e-3
    threshold: float = 1.0

    def __post_init__(self):
        if self.law not in LAWS:
            raise ConfigError(f"unknown data law {self.law!r}; expected one of {LAWS}")
        if self.n_draws < 1:
            raise ConfigError("n_draws must be >= 1")
        if self.n_t < 8 or self.n_t % 2 != 0:
            raise ConfigError("n_t must be an even integer >= 8")
        if not self.t_window > 0:
            raise ConfigError("t_window must be positive")
        modes = self.support_modes()
        if modes.size == 0:
            raise ConfigError(
                f"law {self.law}({self.law_param}) has empty support on this grid"
            )
        phi_max = float(np.max(np.abs(self.symbol.table(self.grid)[modes])))
        needed = self.t_window * phi_max / math.pi
        if self.n_t < needed:
            raise ConfigError(
                f"n_t = {self.n_t} cannot resolve max|phi| = {phi_max:g} over "
                f"T = {self.t_window:g}; need n_t >= {int(math.ceil(needed))}"
            )

    @property
    def symbol(self) -> PhaseSymbol:
        return PhaseSymbol(self.beta, self.gamma)

    def support_modes(self) -> np.ndarray:
        """Positive mode indices of the law's spectral support."""
        dxi = 2.0 * math.pi / self.grid.length
        top = self.grid.n_points // 2 - 1
        if self.law == "gaussian_spectrum":
            cap = self.law_param * math.sqrt(math.log(1e24))
            lo_m, hi_m = 1, min(int(cap / dxi), top)
        elif self.law == "band_limited":
            lo_m = int(math.ceil(self.law_param / dxi))
            hi_m = int(4.0 * self.law_param / dxi)
        elif self.law == "low_frequency":
            lo_m, hi_m = 1, int(self.law_param / dxi)
        else:  # high_frequency: [threshold, 8*threshold]
            lo_m = int(math.ceil(self.threshold / dxi))
            hi_m = int(8.0 * self.threshold / dxi)
        if hi_m > top:
            raise ConfigError(
                f"law {self.law}({self.law_param}) needs modes up to {hi_m}, "
                f"grid houses {top}"
            )
        return np.arange(max(lo_m, 1), hi_m + 1)

    def draw(self, index: int) -> Field:
        """Draw #index: conjugate-symmetric spectrum on the law's support,
        normalized to unit L2 norm.  Bit-reproducible from (seed, index)."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))
        modes = self.support_modes()
        dxi = 2.0 * math.pi / self.grid.length
        z = rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size)
        if self.law == "gaussian_spectrum":
            z = z * np.exp(-((modes * dxi / self.law_param) ** 2))
        c = hermitian_extension(scatter_modes(z, modes, self.grid.n_points))
        return Field(self.grid, c / Field(self.grid, c).l2_norm())

    def times(self) -> np.ndarray:
        return np.arange(self.n_t) * (self.t_window / self.n_t)

    @functools.cached_property
    def phase_table(self) -> np.ndarray:
        """exp(-i t_l phi(xi_m)) for the window samples t_l and the positive
        support modes m, shape (n_t, M)."""
        return self.symbol.propagator(self.times(), self.grid.wavenumbers[self.support_modes()])

    @functools.cached_property
    def window(self) -> np.ndarray:
        return window_bump(self.times(), self.t_window)

    @functools.cached_property
    def modulation_weights(self) -> np.ndarray:
        """W_m + W_{-m} for the positive support modes m, where
        W_j = sum_l <tau_l + phi_j>^{2b} |DFT_t[psi e^{-i t phi_j}]_l / n_t|^2
        (a mode -m sees the conjugate orbit, whose DFT is reversed in l).
        Built MODE_BLOCK modes at a time, every block MODE_BLOCK wide (the
        last one overlaps its neighbour): a column block sums its columns
        row by row as the whole table does, where a 1-column tail would
        be summed pairwise, with other bits."""
        xi = self.grid.wavenumbers[self.support_modes()]
        tau = angular_frequencies(self.n_t, self.t_window)
        reverse = mirror_slot(fft_mode_numbers(self.n_t), self.n_t)
        weights = np.empty(xi.size)
        for start in range(0, xi.size, MODE_BLOCK):
            cols = slice(max(min(start, xi.size - MODE_BLOCK), 0), start + MODE_BLOCK)
            d2 = np.abs(dft(self.window[:, None] * self.phase_table[:, cols], (0,))) ** 2
            plus = self.symbol.modulation(tau, xi[cols]) ** (2.0 * self.b) * d2
            minus = self.symbol.modulation(-tau, xi[cols]) ** (2.0 * self.b) * d2[reverse]
            weights[cols] = np.sum(plus, axis=0) + np.sum(minus, axis=0)
        return weights

    @functools.cached_property
    def time_gram(self) -> tuple:
        """(A, B) for the sup_x L2_t norm of windowed orbits: with
        P = window * phase_table, A = P^T conj(P) and B = P^T P, flattened
        over the support mode pairs (m, m').  The product stays whole:
        BLAS blocks it itself, so row blocks of it move bits."""
        p = self.window[:, None] * self.phase_table
        return (p.T @ np.conj(p)).ravel(), (p.T @ p).ravel()

    def _support_coeffs(self, u0: Field, multiplier: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of m(D) u0 on the positive support modes, m the real,
        even multiplier table (default 1), taken from u0's real part if its
        spectrum is not conjugate-symmetric.  ConfigError if u0 lives on
        another grid or has a nonzero coefficient off the support, mode 0
        and the Nyquist mode included."""
        modes = self.support_modes()
        mirror = mirror_slot(modes, self.grid.n_points)
        off = np.ones(self.grid.n_points, dtype=bool)
        off[modes] = off[mirror] = False
        if u0.grid != self.grid or np.any(u0.coeffs[off] != 0):
            raise ConfigError(f"data must live on the ensemble grid with spectrum on the "
                              f"law's support, modes +-{modes[0]}..{modes[-1]}")
        c = 0.5 * (u0.coeffs[modes] + np.conj(u0.coeffs[mirror]))
        return c if multiplier is None else c * multiplier[modes]

    def refined(self, name: str) -> "Ensemble":
        """The refinement name of this ensemble.  A grid refinement at fixed L
        with the same support modes samples the same window and support
        wavenumbers, so it takes this ensemble's tables that are built
        already instead of building its own."""
        if name not in REFINED:
            raise ConfigError(f"unknown refinement {name!r}")
        points, window = REFINED[name]
        fine = dataclasses.replace(self, grid=Grid(points * self.grid.n_points, self.grid.length),
                                   t_window=window * self.t_window, n_t=window * self.n_t)
        if window == 1 and np.array_equal(fine.support_modes(), self.support_modes()):
            vars(fine).update({key: value for key, value in vars(self).items()
                               if key in _SHARED_TABLES})
        return fine


@dataclass
class RatioReport:
    """Per-draw two-sided data for one estimate."""

    tag: str
    lhs: np.ndarray
    rhs: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    skipped: int
    refinement_max: dict
    refinement_skipped: dict

    @property
    def stability_factor(self) -> float:
        worst = 1.0
        for v in self.refinement_max.values():
            hi, lo = max(v, self.max_ratio), min(v, self.max_ratio)
            worst = max(worst, hi / max(lo, 1e-300))
        return worst


def _orbit_blocks(ens: Ensemble, u0: Field, windowed: bool, multiplier: np.ndarray | None,
                  rows: int):
    """propagator_orbit's samples, rows window samples at a time: the support
    coefficients times rows of phase_table (and of window), scattered and
    synthesized by one real inverse FFT per time sample."""
    c = ens._support_coeffs(u0, multiplier)
    modes, n = ens.support_modes(), ens.grid.n_points
    for start in range(0, ens.n_t, rows):
        half = ens.phase_table[start:start + rows] * c
        if windowed:
            half *= ens.window[start:start + rows, None]
        yield synthesize(scatter_modes(half, modes, n))


def propagator_orbit(ens: Ensemble, u0: Field, windowed: bool = True,
                     multiplier: np.ndarray | None = None) -> SpaceTimeField:
    """u(x, t_l) = psi(t_l) * (m(D) exp(-i t phi) u0)(x) on the ensemble window,
    with m the real, even multiplier table (default 1), synthesized from the
    support modes by one real inverse FFT per time sample: the one-block
    case of _orbit_blocks."""
    (values,) = _orbit_blocks(ens, u0, windowed, multiplier, ens.n_t)
    return SpaceTimeField(ens.grid, ens.t_window, values)


def _modulation_rhs(ens: Ensemble, u0: Field, multiplier: np.ndarray | None = None) -> float:
    """xsb_norm(propagator_orbit(ens, u0, True, multiplier), 0, ens.b, ens.symbol)
    in closed form: (L*T * sum_m |m_m c_m|^2 (W_m + W_{-m}))^{1/2}."""
    c = ens._support_coeffs(u0, multiplier)
    total = float(np.sum(np.abs(c) ** 2 * ens.modulation_weights))
    return math.sqrt(ens.grid.length * ens.t_window * total)


def _gram_slots(ens: Ensemble) -> np.ndarray:
    """The FFT slots of m - m' and of m + m' over the support mode pairs
    (m, m') of ens.time_gram, concatenated."""
    modes, n = ens.support_modes(), ens.grid.n_points
    return np.concatenate([mode_slots(np.subtract.outer(modes, modes), n)[0].ravel(),
                           mode_slots(np.add.outer(modes, modes), n)[0].ravel()])


def _sup_x_l2_t(ens: Ensemble, slots: np.ndarray, u0: Field, multiplier: np.ndarray) -> float:
    """mixed_norm(propagator_orbit(ens, u0, True, multiplier), inf, 2, "x_outer")
    from ens.time_gram: with a the support coefficients of m(D) u0,
    sum_l u(x, t_l)^2 = 2 Re sum_{m,m'} (a_m conj(a_m') A_mm' e^{i(xi_m - xi_m')x}
    + a_m a_m' B_mm' e^{i(xi_m + xi_m')x}), whose terms are summed onto the
    grid's modes at slots (_gram_slots; aliased, as the samples alias them),
    folded to a half spectrum and synthesized once."""
    gram_a, gram_b = ens.time_gram
    a = ens._support_coeffs(u0, multiplier)
    terms = np.concatenate([np.multiply.outer(a, np.conj(a)).ravel() * gram_a,
                            np.multiply.outer(a, a).ravel() * gram_b])
    n = ens.grid.n_points
    g = np.bincount(slots, terms.real, n) + 1j * np.bincount(slots, terms.imag, n)
    half = g[: n // 2 + 1] + np.conj(g[mirror_slot(np.arange(n // 2 + 1), n)])
    peak = float(np.max(synthesize(half)))
    return math.sqrt(peak * (ens.t_window / ens.n_t))


def _norm(ens: Ensemble, u0: Field, p, q, order="t_outer", table=None, windowed=True):
    """mixed_norm of u0's orbit, reduced ORBIT_BLOCK window samples at a time."""
    blocks = _orbit_blocks(ens, u0, windowed, table, ORBIT_BLOCK)
    return mixed_norm_blocks(blocks, ens.grid.dx, ens.t_window / ens.n_t, p, q, order)


def _d(ens: Ensemble, alpha: float, band: MultiplierSpec | None = None) -> np.ndarray:
    """The multiplier table of D^alpha, times band's if given."""
    d = multiplier_table(ens.grid, MultiplierSpec.fractional_d(alpha))
    return d if band is None else d * multiplier_table(ens.grid, band)


# The orbit tags' pair(ens) -> (u0 -> (LHS, RHS)).  Each builds the tables
# its pair reads here, on the calling thread, before the draws start
# (modulation_weights builds phase_table and window on its way): built
# lazily on a pool thread, a table would sit in that thread's malloc arena.

def _l8_pair(ens: Ensemble):
    ens.phase_table
    return lambda u0: (_norm(ens, u0, 8.0, 8.0, windowed=False), u0.l2_norm())


def _l6_pair(ens: Ensemble):
    table = _d(ens, 1.0 / 6.0, MultiplierSpec.high_pass(ens.threshold))
    ens.modulation_weights
    return lambda u0: (_norm(ens, u0, 6.0, 6.0, table=table), _modulation_rhs(ens, u0))


def _smoothing_pair(ens: Ensemble):
    table = _d(ens, 1.0, MultiplierSpec.high_pass(ens.threshold))
    slots = _gram_slots(ens)
    ens.time_gram, ens.modulation_weights
    return lambda u0: (_sup_x_l2_t(ens, slots, u0, table), _modulation_rhs(ens, u0))


def _maximal_pair(ens: Ensemble):
    table = _d(ens, 0.25 + ens.epsilon, MultiplierSpec.low_pass(ens.law_param))
    ens.modulation_weights
    return lambda u0: (_norm(ens, u0, 2.0, math.inf, "x_outer", table), _modulation_rhs(ens, u0))


def _block_pair(ens: Ensemble):
    scale = ens.law_param ** (0.25 - ens.epsilon)
    ens.modulation_weights
    return lambda u0: (_norm(ens, u0, math.inf, math.inf), scale * _modulation_rhs(ens, u0))


def _low_maximal_pair(ens: Ensemble):
    p, weight = 2.0 / (1.0 - 2.0 * ens.epsilon), _d(ens, -0.25)
    ens.modulation_weights
    return lambda u0: (_norm(ens, u0, p, math.inf, "x_outer"), _modulation_rhs(ens, u0, weight))


def _high_pointwise_pair(ens: Ensemble):
    table = _d(ens, -0.5 - 4.0 * ens.epsilon, MultiplierSpec.high_pass(ens.threshold))
    ens.modulation_weights
    return lambda u0: (_norm(ens, u0, math.inf, math.inf, table=table), _modulation_rhs(ens, u0))


def _ratio_report(tag: str, n_draws: int, pair_for, refinements, jobs: int) -> RatioReport:
    """Run an ensemble and each of its named refinements.

    pair_for(name) gives pair(i) -> (lhs, rhs) for draw i; name None is the
    base ensemble.  Draws with rhs == 0 are skipped, and a non-finite ratio
    is an error.
    """

    def evaluate(pair):
        lhs, rhs, skipped = [], [], 0
        # draws are seeded by index, so results do not depend on jobs
        for result in pool_map(pair, range(n_draws), jobs):
            if result[1] == 0.0:
                skipped += 1
                continue
            lhs.append(result[0])
            rhs.append(result[1])
        lhs, rhs = np.asarray(lhs), np.asarray(rhs)
        ratios = lhs / rhs
        if ratios.size and not np.all(np.isfinite(ratios)):
            raise ConfigError(f"non-finite ratio in tag {tag}")
        return lhs, rhs, ratios, skipped

    lhs, rhs, ratios, skipped = evaluate(pair_for(None))
    refined = {name: evaluate(pair_for(name)) for name in refinements}
    return RatioReport(
        tag=tag, lhs=lhs, rhs=rhs, ratios=ratios,
        max_ratio=float(np.max(ratios)), skipped=skipped,
        refinement_max={name: float(np.max(r[2])) for name, r in refined.items()},
        refinement_skipped={name: r[3] for name, r in refined.items()},
    )


def _orbit_pair(tag: str, ens: Ensemble):
    """The orbit tag's pair(ens), after its law check if it has one."""
    record = TAGS[tag]
    if record.fixed_law and ens.law != record.defaults["law"]:
        raise ConfigError(f"tag {tag} needs {record.defaults['law']} data")
    return record.pair(ens)


def strichartz_ratio(ens: Ensemble, which: str, jobs: int = 1) -> RatioReport:
    # kept for labbench; ROADMAP item 1 deletes it
    if which not in STRICHARTZ_TAGS:
        raise ConfigError(f"unknown tag {which!r}; expected one of {STRICHARTZ_TAGS}")
    return run_ensemble(which, ens, jobs)


def linfty_bounds_ratio(ens: Ensemble, which: str, jobs: int = 1) -> RatioReport:
    # kept for labbench; ROADMAP item 1 deletes it
    if which not in LINFTY_TAGS:
        raise ConfigError(f"unknown tag {which!r}; expected one of {LINFTY_TAGS}")
    return run_ensemble(which, ens, jobs)


def bilinear_weighted_product(f1: Field, f2: Field, s: float, symbol: PhaseSymbol) -> np.ndarray:
    """Spectrum of the weighted frequency convolution

        sum_{xi1 + xi2 = xi} |phi'(xi1) - phi'(xi2)|^s c1(xi1) c2(xi2)

    with pairs touching the zero mode excluded.  s = 0 reproduces the
    plain product spectrum of mean-zero inputs.
    """
    grid = f1.grid
    n = grid.n_points
    modes = grid.mode_numbers
    dphi = symbol.derivative_table(grid)
    nz1 = np.nonzero((np.abs(f1.coeffs) > 0) & (modes != 0))[0]
    nz2 = np.nonzero((np.abs(f2.coeffs) > 0) & (modes != 0))[0]
    if nz1.size == 0 or nz2.size == 0:
        return np.zeros(n, dtype=complex)
    slots, valid = mode_slots(modes[nz1][:, None] + modes[nz2][None, :], n)
    w = np.abs(dphi[nz1][:, None] - dphi[nz2][None, :]) ** s
    contrib = w * f1.coeffs[nz1][:, None] * f2.coeffs[nz2][None, :]
    out = np.zeros(n, dtype=complex)
    np.add.at(out, slots[valid], contrib[valid])
    return out


def _bilinear_spectra(ens: Ensemble):
    """spectra(f1, f2) -> (n_t, n): row l is bilinear_weighted_product of
    U(t_l) f1 and U(t_l) f2 for data on the law's support, all rows from one
    scatter.  The mode pairs, their targets and weights are built here once."""
    grid, n_t = ens.grid, ens.n_t
    n, modes = grid.n_points, ens.support_modes()
    idx = np.sort(np.concatenate([modes, mirror_slot(modes, n)]))
    m = grid.mode_numbers[idx]
    slots, housed = mode_slots(m[:, None] + m[None, :], n)
    i, j = np.nonzero(housed)
    dphi = ens.symbol.derivative_table(grid)[idx]
    w = np.abs(dphi[i] - dphi[j]) ** BILINEAR_S
    ph = ens.symbol.propagator(ens.times(), grid.wavenumbers[idx])
    slot = (np.arange(n_t)[:, None] * n + slots[i, j]).ravel()

    def spectra(f1: Field, f2: Field) -> np.ndarray:
        a, b = f1.coeffs[idx] * ph, f2.coeffs[idx] * ph
        contrib = ((w * a[:, i]) * b[:, j]).ravel()
        re = np.bincount(slot, contrib.real, n_t * n)
        return (re + 1j * np.bincount(slot, contrib.imag, n_t * n)).reshape(n_t, n)

    return spectra


def bilinear_ratio(ens: Ensemble, jobs: int = 1) -> RatioReport:
    """Tag 2.027, smoothing of the interaction of two free waves.

    LHS is the L2_{xt} norm of the weighted product (s = BILINEAR_S) of two
    evolved draws; RHS is the product of the data L2 norms.  The weight
    vanishes on the diagonal and anti-diagonal (phi' is even)."""
    spectra = _bilinear_spectra(ens)

    def pair(i: int):
        f1, f2 = ens.draw(2 * i), ens.draw(2 * i + 1)
        total = float(np.sum(np.abs(spectra(f1, f2)) ** 2))
        lhs = math.sqrt(ens.grid.length * total * (ens.t_window / ens.n_t))
        return lhs, f1.l2_norm() * f2.l2_norm()

    return _ratio_report(f"2.027(s={BILINEAR_S:g})", ens.n_draws, lambda name: pair,
                         TAGS["2.027"].refinements, jobs)


def _multilinear_weights(n_cells: int, dxi: float, dtau: float,
                         symbol: PhaseSymbol, s: float, b: float, epsilon: float):
    half = n_cells // 2
    idx = np.arange(-half, half)
    xi = idx * dxi
    tau = idx * dtau
    sigma = symbol.modulation(tau, xi).T  # (xi, tau)
    xi_weight = (1.0 + np.abs(xi)) ** s
    outer = (np.abs(xi)[:, None] * xi_weight[:, None]) / sigma ** (0.5 - epsilon / 12.0)
    inner = 1.0 / (xi_weight[:, None] * sigma**b)
    return outer, inner


def _alias_free_period(k: int, cells: int) -> int:
    """The smallest power-of-two period P whose circular (k+1)-fold
    convolution of cells x cells factors equals the linear one on the
    window [base - half, base + half)^2 that multilinear_ratio reads,
    half = cells / 2 (cells even) and base = (k+1) * half.  P must hold
    the window, P >= base + half; then no point of the linear
    convolution's support [0, (k+1)(cells-1)] wraps into it, as
    (k+1)(cells-1) < 2 * base <= base - half + P."""
    period = 1
    while period < (k + 2) * (cells // 2):
        period *= 2
    return period


def multilinear_ratio(ens: Ensemble, jobs: int = 1) -> RatioReport:
    """Tag 3.03, the (k+2)-linear convolution inequality on a space-time
    mode lattice of MULTILINEAR_CELLS^2 cells, k = MULTILINEAR_K.

    All spectra are drawn nonnegative, so the integral is monotone and
    the Monte-Carlo ratio is a one-sided-safe test.  The (k+1)-fold
    convolution is evaluated by 2-D FFTs on the smallest period that
    leaves the window the outer factor reads equal to the linear
    convolution (_alias_free_period: 256 at 64 cells and 512 at 128 for
    k = 5), PERIOD_BLOCKS column blocks at a time, inverting only the
    window's rows; the lattice spacing comes
    from the ensemble's grid and window, the regularity s = 1/2 - 2/k +
    2 eps from k and the ensemble, and the modulation exponent from
    ens.b.  The refinement lattice_x2 halves the spacing at a fixed box
    extent; it and the base lattice draw with RNG salts 1 and 0.
    """
    k = MULTILINEAR_K
    s = 0.5 - 2.0 / k + 2.0 * ens.epsilon
    dxi = 2.0 * math.pi / ens.grid.length
    dtau = 2.0 * math.pi / ens.t_window
    lattices = {
        None: (MULTILINEAR_CELLS, dxi, dtau, 0),
        "lattice_x2": (2 * MULTILINEAR_CELLS, dxi / 2.0, dtau / 2.0, 1),
    }

    def pair_for(name):
        cells, dxi, dtau, rng_salt = lattices[name]
        outer_w, inner_w = _multilinear_weights(cells, dxi, dtau, ens.symbol, s, ens.b,
                                                ens.epsilon)
        pad = _alias_free_period(k, cells)
        # outer cell i holds mode i - half; a sum of k+1 modes, each indexed
        # with a +half shift, sits at position mode + (k+1)*half, so the
        # outer lattice reads positions k*half + i
        half = cells // 2
        sl = slice(k * half, (k + 2) * half)
        measure = dxi * dtau
        width = -(-(pad // 2 + 1) // PERIOD_BLOCKS)
        column_blocks = [slice(lo, lo + width) for lo in range(0, pad // 2 + 1, width)]

        def transform(f, cols):
            """Columns cols of rfft2(inner_w * f, (pad, pad)), in rfft2's own
            order: rfft along axis 1 on the cells rows, then fft along axis 0."""
            return np.fft.fft(np.fft.rfft(inner_w * f, pad, axis=1)[:, cols], pad, axis=0)

        def pair(i: int):
            rng = np.random.default_rng(
                np.random.SeedSequence(ens.seed, spawn_key=(rng_salt, i))
            )
            outer_f = rng.random((cells, cells))
            factors = [rng.random((cells, cells)) for _ in range(k + 1)]
            # the transforms along axis 0 work column by column, so a column
            # block at a time has the bits of the whole; irfft2 runs ifft
            # along axis 0, then irfft along axis 1, here on the window's rows
            rows = np.empty((cells, pad // 2 + 1), dtype=complex)
            for cols in column_blocks:
                prod = transform(factors[0], cols)
                for f in factors[1:]:
                    prod *= transform(f, cols)
                rows[:, cols] = np.fft.ifft(prod, pad, axis=0)[sl]
            window = np.maximum(np.fft.irfft(rows, pad, axis=1)[:, sl], 0.0)
            left = float(np.sum(outer_w * outer_f * window)) * measure ** (k + 1)
            right = math.sqrt(float(np.sum(outer_f**2)) * measure)
            for f in factors:
                right *= math.sqrt(float(np.sum(f**2)) * measure)
            return left, right

        return pair

    return _ratio_report(f"3.03(k={k})", ens.n_draws, pair_for, TAGS["3.03"].refinements, jobs)


def ratio_pair_for_tag(ens: Ensemble, tag: str, u0: Field):
    """(LHS, RHS) of one draw for the orbit-based tags; test hook for the
    homogeneity invariant."""
    if tag not in TAGS or TAGS[tag].pair is None:
        raise ConfigError(f"tag {tag!r} is not orbit-based")
    return _orbit_pair(tag, ens)(u0)


class Tag(NamedTuple):
    """An estimate tag: default_ensemble's fields (n and length make the
    grid), the refinements run beside the base ensemble, and how a draw is
    evaluated: an orbit tag's pair(ens) -> (u0 -> (lhs, rhs)), the others'
    ratio(ens, jobs).  fixed_law: only data of the default law are accepted."""

    defaults: dict
    refinements: tuple
    pair: Callable | None = None
    ratio: Callable | None = None
    fixed_law: bool = False


# gaussian-spectrum family on L = 16*pi: decay 2 caps support at |xi| <= 14.9,
# so max|phi| ~ 3.3e3 and T = 0.25 needs n_t >= 265
_GAUSSIAN = dict(law="gaussian_spectrum", law_param=2.0, n=512, length=16 * math.pi,
                 t_window=0.25, n_t=512)
# low-frequency laws need a long box so |xi| <= 1 is well populated; the
# slowest mode carries phi ~ gamma/dxi
_LOW = dict(law="low_frequency", law_param=1.0, n=256, length=128 * math.pi, t_window=1.0, n_t=128)
# Grid refinements are left out where they matched every per-draw LHS of the
# base within 2e-16 relative (2.03, 2.05 and 2.027 at seeds 1, 7, 99 and 2024).
TAGS = {
    "2.03": Tag(_GAUSSIAN, ("window_x2",), _l8_pair),
    "2.05": Tag(_GAUSSIAN, ("window_x2",), _l6_pair),
    "2.08": Tag(_GAUSSIAN, ("grid_x2", "grid_x4", "window_x2"), _smoothing_pair),
    "2.09": Tag(_LOW, ("grid_x2", "grid_x4", "window_x2"), _maximal_pair),
    "2.027": Tag(dict(law="band_limited", law_param=1.0, n=256, length=8 * math.pi,
                      t_window=0.5, n_t=64), (), ratio=bilinear_ratio),
    "2.055": Tag(dict(law="band_limited", law_param=4.0, n=512, length=8 * math.pi,
                      t_window=20.0 / 16.0**3, n_t=64),
                 ("grid_x2", "window_x2"), _block_pair, fixed_law=True),
    "2.057": Tag(_LOW, ("grid_x2", "window_x2"), _low_maximal_pair, fixed_law=True),
    "2.060": Tag(dict(law="high_frequency", law_param=1.0, n=512, length=16 * math.pi,
                      t_window=0.25, n_t=128),
                 ("grid_x2", "window_x2"), _high_pointwise_pair, fixed_law=True),
    # only the lattice spacings dxi = 2pi/L and dtau = 2pi/T matter here;
    # draws are fresh nonnegative cell values, not orbit data
    "3.03": Tag(dict(law="band_limited", law_param=1.0, n=256, length=16 * math.pi,
                     t_window=8.0, n_t=256), ("lattice_x2",), ratio=multilinear_ratio),
}
ALL_TAGS = tuple(TAGS)


def _tag(tag: str) -> Tag:
    if tag not in TAGS:
        raise ConfigError(f"unknown tag {tag!r}; valid tags: {', '.join(ALL_TAGS)}")
    return TAGS[tag]


def default_ensemble(tag: str, seed: int, n_draws: int, **overrides) -> Ensemble:
    """The tag's default ensemble (TAGS); overrides replace its entries or
    set any other Ensemble field, whose own default applies otherwise."""
    d = dict(_tag(tag).defaults, **overrides)
    grid = Grid(d.pop("n"), d.pop("length"))
    return Ensemble(seed=seed, n_draws=n_draws, grid=grid, **d)


def run_tag(tag: str, seed: int, n_draws: int, jobs: int = 1, **overrides) -> RatioReport:
    """Dispatch one acceptance tag with its default ensemble."""
    return run_ensemble(tag, default_ensemble(tag, seed, n_draws, **overrides), jobs)


def run_ensemble(tag: str, ens: Ensemble, jobs: int = 1) -> RatioReport:
    """Run one acceptance tag on ens, with its refinements."""
    record = _tag(tag)
    if record.ratio is not None:
        return record.ratio(ens, jobs=jobs)

    def pair_for(name):
        e = ens if name is None else ens.refined(name)
        pair = _orbit_pair(tag, e)
        return lambda i: pair(e.draw(i))

    return _ratio_report(tag, ens.n_draws, pair_for, record.refinements, jobs)
