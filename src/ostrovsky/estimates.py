"""Monte-Carlo falsification harness for the dispersive-estimate zoo.

Each probe draws random data matched to an estimate's frequency support,
synthesizes the windowed free evolution, computes the estimate's two
sides, and reports the per-draw ratios.  Constants are never asserted
numerically: the testable form of "C < infinity, independent of the
cutoff" is that the max ratio is finite and stable (within 4x) under
grid refinement, window refinement, and dyadic cutoff doublings.

Right-hand sides in the modulation norm are computed on windowed
propagator orbits.  The time sampling must resolve the fastest phase on
the data's support (n_t >= T * max|phi| / pi); otherwise the demodulated
content aliases to spurious large modulations and the weight <sigma>^{2b}
inflates the norm, polluting the cutoff scans.  Ensemble construction
enforces this.

Estimate tags are opaque IDs (see TAG_DEFAULTS for the menu); draws are
reproducible bit-exactly from (seed, draw index) and independent of
worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LatticeSizeError
from .norms import SpaceTimeField, mixed_norm, window_bump, xsb_norm
from .spectral import Field, Grid, MultiplierSpec, PhaseSymbol, multiplier_table

DEFAULT_B = 0.5 + 1.0 / 48.0
DEFAULT_EPSILON = 1e-3

STRICHARTZ_TAGS = ("2.03", "2.05", "2.08", "2.09")
LINFTY_TAGS = ("2.055", "2.057", "2.060")
ALL_TAGS = STRICHARTZ_TAGS + ("2.027",) + LINFTY_TAGS + ("3.03",)

LAWS = ("gaussian_spectrum", "band_limited", "low_frequency", "high_frequency")


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
    b: float = DEFAULT_B
    epsilon: float = DEFAULT_EPSILON
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
        c = np.zeros(self.grid.n_points, dtype=complex)
        c[modes] = z
        c[-modes] = np.conj(z)
        f = Field(self.grid, c)
        norm = f.l2_norm()
        return Field(self.grid, c / norm)

    def replace(self, **kw) -> "Ensemble":
        return dataclasses.replace(self, **kw)

    def refined(self, which: str) -> "Ensemble":
        if which == "grid_x2":
            return self.replace(grid=Grid(2 * self.grid.n_points, self.grid.length))
        if which == "grid_x4":
            return self.replace(grid=Grid(4 * self.grid.n_points, self.grid.length))
        if which == "window_x2":
            return self.replace(t_window=2.0 * self.t_window, n_t=2 * self.n_t)
        raise ConfigError(f"unknown refinement {which!r}")


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

    @property
    def stability_factor(self) -> float:
        worst = 1.0
        for v in self.refinement_max.values():
            hi, lo = max(v, self.max_ratio), min(v, self.max_ratio)
            worst = max(worst, hi / max(lo, 1e-300))
        return worst


def propagator_orbit(ens: Ensemble, u0: Field, windowed: bool = True) -> SpaceTimeField:
    """u(x, t_l) = psi(t_l) * (exp(-i t phi) c0)(x) on the ensemble window."""
    grid = ens.grid
    phi = ens.symbol.table(grid)
    t = np.arange(ens.n_t) * (ens.t_window / ens.n_t)
    coeffs = np.exp(-1j * t[:, None] * phi[None, :]) * u0.coeffs[None, :]
    values = np.fft.ifft(coeffs * grid.n_points, axis=1).real
    if windowed:
        values = values * window_bump(t, ens.t_window)[:, None]
    return SpaceTimeField(grid, ens.t_window, values)


def _apply_spatial_multiplier(stf: SpaceTimeField, table: np.ndarray) -> SpaceTimeField:
    spec = np.fft.fft(stf.values, axis=1) * table[None, :]
    return SpaceTimeField(stf.grid, stf.t_window, np.fft.ifft(spec, axis=1).real)


def _strichartz_pair(ens: Ensemble, which: str, u0: Field):
    grid = ens.grid
    if which == "2.03":
        stf = propagator_orbit(ens, u0, windowed=False)
        return mixed_norm(stf, 8.0, 8.0), u0.l2_norm()
    stf = propagator_orbit(ens, u0, windowed=True)
    rhs = xsb_norm(stf, 0.0, ens.b, ens.symbol)
    high = multiplier_table(grid, MultiplierSpec.high_pass(ens.threshold))
    if which == "2.05":
        table = multiplier_table(grid, MultiplierSpec.fractional_d(1.0 / 6.0)) * high
        return mixed_norm(_apply_spatial_multiplier(stf, table), 6.0, 6.0), rhs
    if which == "2.08":
        table = multiplier_table(grid, MultiplierSpec.fractional_d(1.0)) * high
        return mixed_norm(_apply_spatial_multiplier(stf, table), math.inf, 2.0, "x_outer"), rhs
    if which == "2.09":
        s1 = 0.25 + ens.epsilon
        table = multiplier_table(grid, MultiplierSpec.fractional_d(s1))
        table = table * multiplier_table(grid, MultiplierSpec.low_pass(ens.law_param))
        return mixed_norm(_apply_spatial_multiplier(stf, table), 2.0, math.inf, "x_outer"), rhs
    raise ConfigError(f"unknown tag {which!r}; expected one of {STRICHARTZ_TAGS}")


def _linfty_pair(ens: Ensemble, which: str, u0: Field):
    grid = ens.grid
    stf = propagator_orbit(ens, u0, windowed=True)
    if which == "2.055":
        if ens.law != "band_limited":
            raise ConfigError("tag 2.055 needs band_limited data")
        rhs = ens.law_param ** (0.25 - ens.epsilon) * xsb_norm(stf, 0.0, ens.b, ens.symbol)
        return float(np.max(np.abs(stf.values))), rhs
    if which == "2.057":
        if ens.law != "low_frequency":
            raise ConfigError("tag 2.057 needs low_frequency data")
        table = multiplier_table(grid, MultiplierSpec.fractional_d(-0.25))
        rhs = xsb_norm(_apply_spatial_multiplier(stf, table), 0.0, ens.b, ens.symbol)
        lhs = mixed_norm(stf, 2.0 / (1.0 - 2.0 * ens.epsilon), math.inf, "x_outer")
        return lhs, rhs
    if which == "2.060":
        if ens.law != "high_frequency":
            raise ConfigError("tag 2.060 needs high_frequency data")
        table = multiplier_table(grid, MultiplierSpec.fractional_d(-0.5 - 4.0 * ens.epsilon))
        table = table * multiplier_table(grid, MultiplierSpec.high_pass(ens.threshold))
        lhs = float(np.max(np.abs(_apply_spatial_multiplier(stf, table).values)))
        return lhs, xsb_norm(stf, 0.0, ens.b, ens.symbol)
    raise ConfigError(f"unknown tag {which!r}; expected one of {LINFTY_TAGS}")


def _map_draws(fn, n_draws: int, jobs: int) -> list:
    """Per-draw evaluation, order-preserving; results are independent of
    the worker count because draws are seeded by index."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, range(n_draws)))
    return [fn(i) for i in range(n_draws)]


def _ratio_report(tag: str, n_draws: int, pair_for, refinements, jobs: int) -> RatioReport:
    """Run an ensemble and each of its named refinements.

    pair_for(name) gives pair(i) -> (lhs, rhs) for draw i, or None to skip
    the draw; name None is the base ensemble.  Draws with rhs == 0 are
    skipped too, and a non-finite ratio is an error.
    """

    def evaluate(pair):
        lhs, rhs, skipped = [], [], 0
        for result in _map_draws(pair, n_draws, jobs):
            if result is None or result[1] == 0.0:
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
    refinement_max = {name: float(np.max(evaluate(pair_for(name))[2])) for name in refinements}
    return RatioReport(
        tag=tag, lhs=lhs, rhs=rhs, ratios=ratios,
        max_ratio=float(np.max(ratios)), skipped=skipped,
        refinement_max=refinement_max,
    )


def _ensemble_pairs(ens: Ensemble, pair):
    """pair_for over ens and its Ensemble.refined variants, from pair(e, i)."""
    return lambda name: functools.partial(pair, ens if name is None else ens.refined(name))


def strichartz_ratio(ens: Ensemble, which: str,
                     refinements=("grid_x2", "grid_x4", "window_x2"),
                     jobs: int = 1) -> RatioReport:
    """Space-time integrability gains of the free propagator.

    2.03: L8_{xt} against the L2 norm of the data (no window cutoff);
    2.05: D^{1/6} high-pass in L6_{xt}; 2.08: one full derivative
    high-pass in Linf_x L2_t (local smoothing); 2.09: D^{1/4+eps}
    low-pass in L2_x Linf_t (maximal function).  RHS for the windowed
    variants is the modulation norm with b = ens.b.
    """
    if which not in STRICHARTZ_TAGS:
        raise ConfigError(f"unknown tag {which!r}; expected one of {STRICHARTZ_TAGS}")
    pairs = _ensemble_pairs(ens, lambda e, i: _strichartz_pair(e, which, e.draw(i)))
    return _ratio_report(which, ens.n_draws, pairs, refinements, jobs)


def linfty_bounds_ratio(ens: Ensemble, which: str,
                        refinements=("grid_x2", "window_x2"),
                        jobs: int = 1) -> RatioReport:
    """Pointwise bounds: block data in Linf_{xt} against N^{1/4-eps},
    low-frequency maximal bound, and the weighted high-frequency
    Linf bound."""
    if which not in LINFTY_TAGS:
        raise ConfigError(f"unknown tag {which!r}; expected one of {LINFTY_TAGS}")
    pairs = _ensemble_pairs(ens, lambda e, i: _linfty_pair(e, which, e.draw(i)))
    return _ratio_report(which, ens.n_draws, pairs, refinements, jobs)


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
    m1 = modes[nz1][:, None]
    m2 = modes[nz2][None, :]
    target = m1 + m2
    half = n // 2
    valid = (target >= -(half - 1)) & (target <= half)
    w = np.abs(dphi[nz1][:, None] - dphi[nz2][None, :]) ** s if s != 0 else \
        np.ones((nz1.size, nz2.size))
    contrib = w * f1.coeffs[nz1][:, None] * f2.coeffs[nz2][None, :]
    out = np.zeros(n, dtype=complex)
    np.add.at(out, target[valid] % n, contrib[valid])
    return out


def bilinear_ratio(ens: Ensemble, s: float,
                   refinements=("grid_x2", "grid_x4"), jobs: int = 1) -> RatioReport:
    """Smoothing of the interaction of two free waves.

    LHS is the L2_{xt} norm of the weighted product of two evolved
    draws; RHS is the product of the data L2 norms.  The interaction
    weight vanishes on the diagonal and anti-diagonal (phi' is even), so
    single-mode data are annihilated.
    """
    if not 0.0 <= s <= 0.5:
        raise ConfigError(f"s must lie in [0, 1/2], got {s}")

    def pair(e: Ensemble, i: int):
        grid = e.grid
        phi = e.symbol.table(grid)
        t = np.arange(e.n_t) * (e.t_window / e.n_t)
        dt = e.t_window / e.n_t
        f1 = e.draw(2 * i)
        f2 = e.draw(2 * i + 1)
        if np.abs(f1.coeffs[0]) > 0 or np.abs(f2.coeffs[0]) > 0:
            return None
        total = 0.0
        for tl in t:
            ph = np.exp(-1j * tl * phi)
            spec = bilinear_weighted_product(
                Field(grid, f1.coeffs * ph), Field(grid, f2.coeffs * ph), s, e.symbol
            )
            total += grid.length * float(np.sum(np.abs(spec) ** 2)) * dt
        return math.sqrt(total), f1.l2_norm() * f2.l2_norm()

    tag = f"2.027(s={s:g})" if s == 0.5 else f"bilinear(s={s:g})"
    return _ratio_report(tag, ens.n_draws, _ensemble_pairs(ens, pair), refinements, jobs)


MULTILINEAR_CELL_GUARD = 256


def _multilinear_weights(n_cells: int, dxi: float, dtau: float,
                         symbol: PhaseSymbol, s: float, b: float, epsilon: float):
    half = n_cells // 2
    idx = np.arange(-half, half)
    xi = idx * dxi
    tau = idx * dtau
    sigma = 1.0 + np.abs(tau[None, :] + symbol(xi)[:, None])  # (xi, tau)
    xi_weight = (1.0 + np.abs(xi)) ** s
    outer = (np.abs(xi)[:, None] * xi_weight[:, None]) / sigma ** (0.5 - epsilon / 12.0)
    inner = 1.0 / (xi_weight[:, None] * sigma**b)
    return outer, inner


def multilinear_ratio(ens: Ensemble, k: int = 5, s: float | None = None,
                      b: float | None = None, n_cells: int = 64,
                      refine: bool = True, rng_offset: int = 0,
                      jobs: int = 1) -> RatioReport:
    """(k+2)-linear convolution inequality on a space-time mode lattice.

    All spectra are drawn nonnegative, so the integral is monotone and
    the Monte-Carlo ratio is a one-sided-safe test.  The (k+1)-fold
    convolution is evaluated by padded 2-D FFTs (linear, not circular);
    the lattice spacing comes from the ensemble's grid and window.
    Refinement halves the spacing at a fixed box extent.
    """
    if n_cells > MULTILINEAR_CELL_GUARD:
        raise LatticeSizeError(
            f"{n_cells}^2 cells per factor exceeds the {MULTILINEAR_CELL_GUARD}^2 guard"
        )
    if s is None:
        s = 0.5 - 2.0 / k + 2.0 * ens.epsilon
    if b is None:
        b = ens.b
    dxi = 2.0 * math.pi / ens.grid.length
    dtau = 2.0 * math.pi / ens.t_window
    lattices = {
        None: (n_cells, dxi, dtau, rng_offset),
        "lattice_x2": (2 * n_cells, dxi / 2.0, dtau / 2.0, rng_offset + 1),
    }

    def pair_for(name):
        cells, dxi, dtau, rng_salt = lattices[name]
        outer_w, inner_w = _multilinear_weights(cells, dxi, dtau, ens.symbol, s, b, ens.epsilon)
        half = cells // 2
        pad = 1
        while pad < (k + 1) * (cells - 1) + 1:
            pad *= 2
        measure = dxi * dtau

        def pair(i: int):
            rng = np.random.default_rng(
                np.random.SeedSequence(ens.seed, spawn_key=(rng_salt, i))
            )
            outer_f = rng.random((cells, cells))
            factors = [rng.random((cells, cells)) for _ in range(k + 1)]
            prod = np.ones((pad, pad), dtype=complex)
            for f in factors:
                padded = np.zeros((pad, pad))
                padded[:cells, :cells] = inner_w * f
                prod = prod * np.fft.fft2(padded)
            conv = np.fft.ifft2(prod).real
            conv = np.maximum(conv, 0.0)
            # cell (i, l) of the outer variable pairs with the convolution
            # evaluated at mode sum i; offsets: sum of (k+1) indices each
            # shifted by +half lands at i + (k+1)*half in padded position
            base = (k + 1) * half
            sl = slice(base - half, base + half)
            window = conv[sl, sl]
            left = float(np.sum(outer_w * outer_f * window)) * measure ** (k + 1)
            right = math.sqrt(float(np.sum(outer_f**2)) * measure)
            for f in factors:
                right *= math.sqrt(float(np.sum(f**2)) * measure)
            return left, right

        return pair

    refinements = ("lattice_x2",) if refine else ()
    return _ratio_report(f"3.03(k={k})", ens.n_draws, pair_for, refinements, jobs)


def ratio_pair_for_tag(ens: Ensemble, tag: str, u0: Field):
    """(LHS, RHS) of one draw for the orbit-based tags; test hook for the
    homogeneity invariant."""
    if tag in STRICHARTZ_TAGS:
        return _strichartz_pair(ens, tag, u0)
    if tag in LINFTY_TAGS:
        return _linfty_pair(ens, tag, u0)
    raise ConfigError(f"tag {tag!r} is not orbit-based")


TAG_DEFAULTS = {
    # gaussian-spectrum family on L = 16*pi: decay 2 caps support at
    # |xi| <= 14.9, so max|phi| ~ 3.3e3 and T = 0.25 needs n_t >= 265
    "2.03": dict(law="gaussian_spectrum", law_param=2.0, n=512, length=16 * math.pi,
                 t_window=0.25, n_t=512),
    "2.05": dict(law="gaussian_spectrum", law_param=2.0, n=512, length=16 * math.pi,
                 t_window=0.25, n_t=512),
    "2.08": dict(law="gaussian_spectrum", law_param=2.0, n=512, length=16 * math.pi,
                 t_window=0.25, n_t=512),
    # low-frequency laws need a long box so |xi| <= 1 is well populated;
    # the slowest mode carries phi ~ gamma/dxi
    "2.09": dict(law="low_frequency", law_param=1.0, n=256, length=128 * math.pi,
                 t_window=1.0, n_t=128),
    "2.057": dict(law="low_frequency", law_param=1.0, n=256, length=128 * math.pi,
                  t_window=1.0, n_t=128),
    "2.060": dict(law="high_frequency", law_param=1.0, n=512, length=16 * math.pi,
                  t_window=0.25, n_t=128),
    "2.027": dict(law="band_limited", law_param=1.0, n=256, length=8 * math.pi,
                  t_window=0.5, n_t=64),
    "2.055": dict(law="band_limited", law_param=4.0, n=512, length=8 * math.pi,
                  t_window=20.0 / 16.0**3, n_t=64),
    # only the lattice spacings dxi = 2pi/L and dtau = 2pi/T matter here;
    # draws are fresh nonnegative cell values, not orbit data
    "3.03": dict(law="band_limited", law_param=1.0, n=256, length=16 * math.pi,
                 t_window=8.0, n_t=256),
}


def default_ensemble(tag: str, seed: int, n_draws: int, beta: float = -1.0,
                     gamma: float = 1.0, **overrides) -> Ensemble:
    if tag not in TAG_DEFAULTS:
        raise ConfigError(f"unknown tag {tag!r}; valid tags: {', '.join(ALL_TAGS)}")
    d = dict(TAG_DEFAULTS[tag])
    d.update(overrides)
    grid = Grid(d["n"], d["length"])
    return Ensemble(
        seed=seed, n_draws=n_draws, law=d["law"], law_param=d["law_param"],
        grid=grid, t_window=d["t_window"], n_t=d["n_t"], beta=beta, gamma=gamma,
        b=d.get("b", DEFAULT_B), epsilon=d.get("epsilon", DEFAULT_EPSILON),
        threshold=d.get("threshold", 1.0),
    )


def run_tag(tag: str, seed: int, n_draws: int, jobs: int = 1, **overrides) -> RatioReport:
    """Dispatch one acceptance tag with its default ensemble."""
    ens = default_ensemble(tag, seed, n_draws, **overrides)
    if tag in STRICHARTZ_TAGS:
        return strichartz_ratio(ens, tag, jobs=jobs)
    if tag in LINFTY_TAGS:
        return linfty_bounds_ratio(ens, tag, jobs=jobs)
    if tag == "2.027":
        return bilinear_ratio(ens, 0.5, jobs=jobs)
    return multilinear_ratio(ens, k=5, jobs=jobs)
