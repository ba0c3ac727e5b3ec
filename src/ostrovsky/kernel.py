"""Direct quadrature of the dyadic oscillatory kernel

    K(x, t) = int exp(i(x*xi - t*phi(xi))) chi_{[N,4N]}(|xi|) dxi

and verification of its three-region decay bounds and the mixed
L_x^{g/2} L_t^inf norm scaling N^{(g-2)/g}.

The two signed frequency blocks are complex conjugates, so K is real and
only the positive block is integrated.  One scan per call samples
g' = x - t*phi' of the phase g = x*xi - t*phi on a coarse grid of [N, 4N].

A point whose g' keeps one sign, with min|g'| times a Levin piece width
at least LEVIN_MIN_TURN, goes to Levin collocation, whose cost does not
grow with |g'|, when its first-refinement Gauss-Kronrod panels would take
more than LEVIN_NODES nodes, the measured cost of a Levin point.  Levin
solves in real arithmetic and accepts a point when its two orders agree
within spec.accepted_error.  The other points take the one Gauss-Kronrod
(G15, K31) pass, on panels no wider than two local wavelengths 2*pi/|g'|
at a 1.5x margin on |g'|; there the embedded G15 estimate is still at
rounding level, so it does not hold the panels below the width the K31
value needs.  Each of the _COARSE coarse sub-intervals sizes its panels
from g' at five samples that include its ends: where g' is monotone
(gamma >= 0, away from phi'' = 0), |g'| is largest at an end.
Both passes share one work unit, CHUNK_PANELS Gauss-Kronrod panels: a
pool of jobs threads solves Levin in chunks of max(1, CHUNK_PANELS * 31
// LEVIN_NODES) points, which cost as many nodes, then at each refinement
cuts the panels of every point still to do into chunks of CHUNK_PANELS;
a worker holds one chunk's integrand, a refinement 16 bytes per panel.
Levin's misses join the Gauss-Kronrod pass, which re-runs the points
that miss accepted_error at 4x and then 16x finer panels.  kernel_eval,
the tests' reference for Levin, is that pass on one point.  No value
depends on the chunk or pool size.

Sampling windows follow the kernel's self-similar scales x ~ 1/N,
t ~ 1/N^3, so empirical constants are comparable across dyadic N.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BoxTooSmallError, ConfigError, QuadratureAccuracyError
from .pool import pool_map
from .spectral import PhaseSymbol

log = logging.getLogger("ostrovsky")


def _mirrored(half, sign: float = 1.0) -> np.ndarray:
    """A rule's table over [-1, 1] from its entries at the nodes in [-1, 0];
    the rules are symmetric about 0."""
    half = np.array(half)
    return np.concatenate([half, sign * half[-2::-1]])


# 31-point Kronrod extension of 15-point Gauss on [-1, 1] (QUADPACK's qk31)
_KRONROD_NODES = _mirrored([
    -0.99800229869339706, -0.98799251802048543, -0.96773907567913913,
    -0.93727339240070590, -0.89726453234408190, -0.84820658341042722,
    -0.79041850144246593, -0.72441773136017005, -0.65099674129741697,
    -0.57097217260853885, -0.48508186364023968, -0.39415134707756337,
    -0.29918000715316881, -0.20119409399743452, -0.10114206691871750,
    0.0,
], -1.0)
_KRONROD_WEIGHTS = _mirrored([
    0.0053774798729233490, 0.015007947329316123, 0.025460847326715320,
    0.035346360791375846, 0.044589751324764877, 0.053481524690928087,
    0.062009567800670640, 0.069854121318728259, 0.076849680757720379,
    0.083080502823133021, 0.088564443056211771, 0.093126598170825321,
    0.096642726983623679, 0.099173598721791959, 0.10076984552387560,
    0.10133000701479155,
])
_GAUSS_WEIGHTS = _mirrored([
    0.030753241996117268, 0.070366047488108125, 0.10715922046717194,
    0.13957067792615431, 0.16626920581699393, 0.18616100001556221,
    0.19843148532711158, 0.20257824192556127,
])
_GAUSS_SLICE = slice(1, 30, 2)  # Gauss-15 nodes sit at the odd Kronrod indices

REGION_BOUNDARY_FACTOR = 4000.0
MAX_NODES = 4_000_000
CHUNK_PANELS = (1 << 16) // 31  # both pool calls' work unit; a Levin chunk costs its nodes
_COARSE = 4  # coarse sub-intervals of [N, 4N], each with its own panel width
_PANEL_WAVELENGTHS = 2.0  # widest panel in local wavelengths 2*pi/|g'| at the 1.5x slope margin
_REFINES = (1.0, 4.0, 16.0)  # panel refinements tried in turn
ABSOLUTE_TOLERANCE = 1e-9  # error bound a point may always have
RELATIVE_TOLERANCE = 1e-12  # error bound relative to the |K| <= 6N envelope
_LEVIN_PIECES = 6  # equal pieces of [N, 4N], each collocated on its own
_LEVIN_ORDERS = (12, 16)  # Chebyshev-Lobatto orders; their gap bounds the error
LEVIN_MIN_TURN = 4.0  # least min|g'| * piece width that sends a point to Levin
LEVIN_NODES = 1200  # first-refinement Gauss-Kronrod nodes that cost as much as a Levin point


@dataclass(frozen=True)
class KernelSpec:
    """Frequency block [N, 4N] in |xi| plus the phase coefficients.

    threshold is the desk-scale stand-in a for the dyadic frequency cutoff
    in the region boundary |x| = region_speed * t = 4000*a*N^2*t; the paper's
    cutoff 2^[A] is far too large for O(1) coefficients (2^99 at
    beta = -1, gamma = 1).  The kernel's time scale 1/N^3 needs (4N)^3
    finite, and its phase needs phi and phi' finite at both block ends,
    hence on the whole block (gamma >= 0 and xi > 0), and phi' nonzero
    there: the stationary rays run at the group velocities phi'(N) and
    phi'(4N).
    """

    block_start: float
    beta: float
    gamma: float
    threshold: float = 1.0

    def __post_init__(self):
        if not self.block_start > 0:
            raise ConfigError(f"block start N must be positive, got {self.block_start}")
        if not self.threshold > 0:
            raise ConfigError("threshold must be positive")
        if self.block_start < self.threshold:
            raise ConfigError(
                f"block start N = {self.block_start} below threshold a = {self.threshold}"
            )
        ends = np.array([self.block_start, 4.0 * self.block_start])
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(ends[1] ** 3):
                raise ConfigError(f"block start N = {self.block_start:g} has no finite (4N)^3")
            symbol = self.symbol  # PhaseSymbol refuses gamma < 0
            slopes = symbol.derivative(ends)
            if not np.all(np.isfinite([symbol.at_nonzero(ends), slopes])):
                raise ConfigError(f"phi or phi' is not finite on the block [{ends[0]:g}, "
                                  f"{ends[1]:g}] at beta = {self.beta:g}, gamma = {self.gamma:g}")
        if not np.all(slopes != 0.0):
            raise ConfigError(f"phi' vanishes at an end of the block [{ends[0]:g}, {ends[1]:g}] "
                              f"at beta = {self.beta:g}, gamma = {self.gamma:g}")

    @property
    def symbol(self) -> PhaseSymbol:
        return PhaseSymbol(self.beta, self.gamma)

    @property
    def accepted_error(self) -> float:
        """Largest achieved error bound a point may have, QUADPACK's
        max(epsabs, epsrel*|I|) with the |K| <= 6N envelope for |I|: the
        bound's rounding floor grows with N.  It is ABSOLUTE_TOLERANCE,
        1e-9, up to N = 166."""
        return max(ABSOLUTE_TOLERANCE, RELATIVE_TOLERANCE * 6.0 * self.block_start)

    @property
    def region_speed(self) -> float:
        return REGION_BOUNDARY_FACTOR * self.threshold * self.block_start**2

    def region_time_boundary(self, x: float) -> float:
        """t above which (x, t) leaves the non-stationary region."""
        return abs(x) / self.region_speed


class RegionTag(enum.Enum):
    """The three-way partition of {(x, t): t > 0} from the decay proof."""

    NEAR_FIELD = 1        # |x| <= 1/N
    NON_STATIONARY = 2    # |x| > 1/N and |x| >= 4000 a N^2 t
    STATIONARY = 3        # |x| > 1/N and |x| < 4000 a N^2 t


def _coarse_samples(spec: KernelSpec):
    """Ends a, b of the coarse sub-intervals of [N, 4N] and phi' at five
    equispaced samples of each, shape (_COARSE, 5); the same for every
    point, so taken once per call."""
    n_block = spec.block_start
    coarse = np.linspace(n_block, 4.0 * n_block, _COARSE + 1)
    a, b = coarse[:-1], coarse[1:]
    return a, b, spec.symbol.derivative(np.linspace(a, b, 5, axis=1))


def _scan_slopes(xs: np.ndarray, ts: np.ndarray, coarse, n_block: float):
    """g' = x - t*phi' at the coarse samples, in one broadcast.  Returns
    each point's widest panel per coarse sub-interval, _PANEL_WAVELENGTHS
    local wavelengths 2*pi/(1.5*max|g'|), shape (points, _COARSE); and
    whether it goes to Levin: no stationary point, and collocation systems
    far from the singular g' = 0."""
    slope = xs[:, None, None] - ts[:, None, None] * coarse[2]
    top, bottom = slope.max(axis=2), slope.min(axis=2)
    worst = np.maximum(top, -bottom) * 1.5 + 1e-30
    # max(min g', -max g') is min|g'| when g' keeps one sign, else <= 0
    least = np.maximum(bottom.min(axis=1), -top.max(axis=1))
    piece = 3.0 * n_block / _LEVIN_PIECES
    return _PANEL_WAVELENGTHS * 2.0 * np.pi / worst, least * piece >= LEVIN_MIN_TURN


def _panel_counts(widths: np.ndarray, coarse, refine: float) -> np.ndarray:
    """Equal panels per coarse sub-interval, shape (points, _COARSE), each
    no wider than the point's width from _scan_slopes divided by refine."""
    a, b, _ = coarse
    return np.maximum(1, np.ceil((b - a) / widths * refine)).astype(np.intp)


@functools.cache
def _collocation(order: int):
    """Chebyshev-Lobatto nodes cos(pi*j/order), j = 0..order (the right end
    first), their differentiation matrix D on [-1, 1], and the (n, n^2)
    table of D_ik D_kj, row k holding (i, j) flattened."""
    j = np.arange(order + 1)
    nodes = np.cos(np.pi * j / order)
    c = np.where((j == 0) | (j == order), 2.0, 1.0) * (-1.0) ** j
    diff = np.outer(c, 1.0 / c) / (nodes[:, None] - nodes[None, :] + np.eye(order + 1))
    diff = diff - np.diag(diff.sum(axis=1))
    return nodes, diff, (diff.T[:, :, None] * diff[:, None, :]).reshape(order + 1, -1)


def _levin_values(xs: np.ndarray, ts: np.ndarray, spec: KernelSpec, symbol: PhaseSymbol):
    """K at each point by Levin collocation (D. Levin, Math. Comp. 38
    (1982) 531-538) and its achieved bound, twice the gap between the two
    orders as the GK bound is twice K31 - G15.  On each piece, p' + i g' p = 1
    at the nodes makes (p e^{ig})' the integrand, so the piece contributes
    p e^{ig} at its right end minus at its left; p does not oscillate when
    g' has no zero, so the cost is the same at every frequency.

    With h the half width and S = diag(g'), (D/h + iS)p = 1 is solved as
    ((D/h) S^-1 (D/h) + S)v = -1, u = -S^-1 (D/h)v at the ends, p = u + iv;
    each point's matrix is its own product with _collocation's table, so
    no value depends on how many points a call takes."""
    edges = np.linspace(spec.block_start, 4.0 * spec.block_start, _LEVIN_PIECES + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    ends = [0, -1]  # the nodes 1 and -1 of every order
    xi_ends = mid[:, None] + half[:, None] * np.array([1.0, -1.0])
    phase = xs[:, None, None] * xi_ends - ts[:, None, None] * symbol.at_nonzero(xi_ends)
    wave = np.exp(1j * phase)
    integrals = []
    for order in _LEVIN_ORDERS:
        nodes, diff, products = _collocation(order)
        xi = mid[:, None] + half[:, None] * nodes  # (pieces, order + 1)
        slope = xs[:, None, None] - ts[:, None, None] * symbol.derivative(xi)
        system = np.matmul(1.0 / (half[:, None] ** 2 * slope), products)  # stacked per point
        system[..., ::order + 2] += slope  # the diagonal
        v = np.linalg.solve(system.reshape(slope.shape + (order + 1,)),
                            np.full(slope.shape + (1,), -1.0))[..., 0]
        u = -np.matmul(v, diff[ends].T) / (half[:, None] * slope[..., ends])
        piece = (u + 1j * v[..., ends]) * wave
        integrals.append((piece[..., 0] - piece[..., 1]).sum(axis=1))
    low, high = integrals
    return 2.0 * high.real, 2.0 * np.abs(high - low)


class _Panels:
    """The panels of consecutive points (xs[i], ts[i]) with panel counts m,
    point by point and coarse sub-interval by sub-interval; entry k of the
    flattened (points, _COARSE) layout holds m.flat[k] equal panels."""

    def __init__(self, xs: np.ndarray, ts: np.ndarray, m: np.ndarray, coarse):
        self.xs, self.ts = xs, ts
        self.a, self.b, _ = coarse
        self.m = m.ravel()
        self.width = ((self.b - self.a) / m).ravel()
        self.stops = np.cumsum(self.m)
        self.point_stops = self.stops[_COARSE - 1::_COARSE]
        self.size = int(self.stops[-1])

    def edges(self, lo: int, hi: int):
        """Point index and left and right edges of panels lo..hi-1, with the
        arithmetic of np.linspace(a, b, m + 1) per coarse sub-interval."""
        p = np.arange(lo, hi)
        k = np.searchsorted(self.stops, p, side="right")
        j = p + 1 - (self.stops[k] - self.m[k])  # 1..m within entry k
        a, width = self.a[k % _COARSE], self.width[k]
        left = (j - 1) * width + a
        right = np.where(j == self.m[k], self.b[k % _COARSE], j * width + a)
        return k // _COARSE, left, right


def kernel_eval(x: float, t: float, spec: KernelSpec) -> float:
    """K(x, t), real by the conjugate symmetry of the two blocks: the
    one-point case of the probes' Gauss-Kronrod pass, run inline.

    Raises QuadratureAccuracyError with the achieved bound when the
    embedded error estimate cannot be brought under spec.accepted_error.
    """
    if not (math.isfinite(x) and math.isfinite(t)):
        raise ConfigError(f"x and t must be finite, got x = {x}, t = {t}")
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    xs, ts = np.array([x], dtype=float), np.array([t], dtype=float)
    coarse = _coarse_samples(spec)
    widths, _ = _scan_slopes(xs, ts, coarse, spec.block_start)
    values, achieved, _, _ = _gauss_kronrod(xs, ts, widths, coarse, spec, jobs=1)
    _require_converged(achieved, spec)
    return float(values[0])


@dataclass
class QuadratureStats:
    """What the quadrature did over one probe's points.

    levin counts the points Levin accepted; refined_x4 and refined_x16
    count the points that were re-run at 4x (and then 16x) finer panels;
    nodes counts the Gauss-Kronrod nodes evaluated, 31 per panel over
    every refinement; max_error is the largest finite achieved error
    bound, over converged and failed points alike.
    """

    points: int = 0
    levin: int = 0
    refined_x4: int = 0
    refined_x16: int = 0
    nodes: int = 0
    over_cap: int = 0
    max_error: float = 0.0


def _weighted_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * rows[k], added row by row in k order, so that no
    entry's sum depends on how many columns rows has."""
    total = weights[0] * rows[0]
    for weight, row in zip(weights[1:], rows[1:]):
        total += weight * row
    return total


def _batch_integrals(panels: _Panels, symbol: PhaseSymbol, jobs: int | None):
    """Real part of the Gauss-Kronrod value of the positive block and its
    error estimate, the sum of |K31 - G15|, for each point of panels.  The
    pool evaluates the integrand CHUNK_PANELS panels at a time, row k
    holding node k of every panel, into per-panel arrays that one sum per
    point reduces.  The nodes lie in [N, 4N], so phi needs no masking of
    xi = 0."""
    k31 = np.empty(panels.size)
    gap = np.empty(panels.size)

    def chunk(lo: int):
        hi = min(lo + CHUNK_PANELS, panels.size)
        point, left, right = panels.edges(lo, hi)
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        nodes = mid + half * _KRONROD_NODES[:, None]
        phase = panels.xs[point] * nodes - panels.ts[point] * symbol.at_nonzero(nodes)
        cos, sin = np.cos(phase), np.sin(phase)
        k31_cos = _weighted_rows(cos, _KRONROD_WEIGHTS)
        gap_cos = k31_cos - _weighted_rows(cos[_GAUSS_SLICE], _GAUSS_WEIGHTS)
        gap_sin = _weighted_rows(sin, _KRONROD_WEIGHTS) \
            - _weighted_rows(sin[_GAUSS_SLICE], _GAUSS_WEIGHTS)
        k31[lo:hi] = k31_cos * half
        gap[lo:hi] = np.hypot(gap_cos, gap_sin) * half

    pool_map(chunk, range(0, panels.size, CHUNK_PANELS), jobs)
    starts = np.concatenate(([0], panels.point_stops[:-1]))
    return np.add.reduceat(k31, starts), np.add.reduceat(gap, starts)


def _gauss_kronrod(xs, ts, widths, coarse, spec: KernelSpec, jobs: int | None):
    """K at the points (xs[i], ts[i]) on panels of the _scan_slopes widths,
    each point's achieved bound, the points evaluated at each refinement,
    and the nodes evaluated over all of them.

    Only the points that miss spec.accepted_error are re-run at the next
    refinement.  A point that misses after the last gets value nan and
    keeps its bound; a point whose panels exceed MAX_NODES gets nan and
    bound inf.
    """
    symbol, accepted = spec.symbol, spec.accepted_error
    values, achieved = np.full(xs.size, np.nan), np.full(xs.size, np.inf)
    todo = np.arange(xs.size)
    reached, evaluated = [0] * len(_REFINES), 0
    for level, refine in enumerate(_REFINES):
        reached[level] = todo.size
        m = _panel_counts(widths[todo], coarse, refine)
        under = _KRONROD_NODES.size * m.sum(axis=1) <= MAX_NODES
        achieved[todo[~under]] = math.inf
        todo, m = todo[under], m[under]
        if not todo.size:
            break
        panels = _Panels(xs[todo], ts[todo], m, coarse)
        evaluated += _KRONROD_NODES.size * panels.size
        value, err = _batch_integrals(panels, symbol, jobs)
        achieved[todo] = 2.0 * err
        ok = achieved[todo] <= accepted
        values[todo[ok]] = 2.0 * value[ok]
        todo = todo[~ok]
    return values, achieved, reached, evaluated


def _kernel_values(xs, ts, spec: KernelSpec, stats: QuadratureStats, jobs: int | None = None):
    """K at the points (xs[i], ts[i]) and each point's achieved error bound.

    Levin takes the points routed to it by cost; the rest and Levin's
    misses take kernel_eval's Gauss-Kronrod pass and equal kernel_eval bit
    for bit for t >= 0.  No value depends on jobs.  Adds what the
    quadrature did to stats.
    """
    xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
    symbol, accepted = spec.symbol, spec.accepted_error
    coarse = _coarse_samples(spec)
    widths, eligible = _scan_slopes(xs, ts, coarse, spec.block_start)
    nodes_x1 = _KRONROD_NODES.size * _panel_counts(widths, coarse, 1.0).sum(axis=1)
    levin = np.flatnonzero(eligible & (nodes_x1 > LEVIN_NODES))
    values, achieved = np.full(xs.size, np.nan), np.full(xs.size, np.inf)
    size = max(1, CHUNK_PANELS * _KRONROD_NODES.size // LEVIN_NODES)
    chunks = [levin[lo:lo + size] for lo in range(0, levin.size, size)]
    solved = pool_map(lambda rows: _levin_values(xs[rows], ts[rows], spec, symbol), chunks, jobs)
    for rows, (value, bound) in zip(chunks, solved):
        achieved[rows] = bound
        values[rows] = np.where(bound <= accepted, value, np.nan)
    todo = np.flatnonzero(~(achieved <= accepted))  # the rest and Levin's misses
    values[todo], achieved[todo], reached, nodes = _gauss_kronrod(
        xs[todo], ts[todo], widths[todo], coarse, spec, jobs)
    finite = achieved[np.isfinite(achieved)]
    levin_ok = xs.size - todo.size
    log.debug("kernel values: %d points; Levin %d accepted, %d missed; Gauss-Kronrod %d at x1, "
              "%d at x4, %d at x16, %d nodes", xs.size, levin_ok, levin.size - levin_ok,
              *reached, nodes)
    stats.points += xs.size
    stats.levin += levin_ok
    stats.refined_x4 += reached[1]
    stats.refined_x16 += reached[2]
    stats.nodes += nodes
    stats.over_cap += int(np.sum(np.isposinf(achieved)))
    stats.max_error = max(stats.max_error, float(np.max(finite, initial=0.0)))
    return values, achieved


def _require_converged(achieved: np.ndarray, spec: KernelSpec):
    """QuadratureAccuracyError with the bound of the first point that
    missed spec.accepted_error."""
    failed = np.flatnonzero(~(achieved <= spec.accepted_error))
    if failed.size:
        raise QuadratureAccuracyError(float(achieved[failed[0]]), spec.accepted_error)


@dataclass
class RegionSamples:
    tag: RegionTag
    x: np.ndarray
    t: np.ndarray
    abs_k: np.ndarray
    bound: np.ndarray
    ratios: np.ndarray
    empirical_constant: float
    skipped: int


@dataclass
class DecayReport:
    regions: dict
    ray_exponent: float
    samples_per_region: int
    skipped_fraction: float
    quadrature: QuadratureStats


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _region_bound(tag: RegionTag, x, t, spec: KernelSpec):
    n_block = spec.block_start
    if tag is RegionTag.NEAR_FIELD:
        return np.full_like(np.asarray(x, dtype=float), n_block)
    if tag is RegionTag.NON_STATIONARY:
        return 1.0 / (n_block * np.asarray(x, dtype=float) ** 2)
    return np.asarray(t, dtype=float) ** (-1.0 / 3.0)


SAMPLE_X_SPAN = 100.0
SAMPLE_T_SPAN = 200.0
MIXED_T_SPAN = 1.0  # kernel_mixed_norm's box is t in (0, MIXED_T_SPAN/N^3]


def require_samples(samples_per_region: int):
    """ConfigError unless region_decay_check gets a sample per region."""
    if samples_per_region < 1:
        raise ConfigError(f"samples_per_region must be >= 1, got {samples_per_region}")


def _sample_times(spec: KernelSpec):
    """Ends of region_decay_check's t window (0.2/N^3, SAMPLE_T_SPAN/N^3]."""
    return 0.2 / spec.block_start**3, SAMPLE_T_SPAN / spec.block_start**3


def _stationary_window(spec: KernelSpec, x: float):
    """Ends of the log-uniform t window of a stationary sample at x."""
    t_lo, t_hi = _sample_times(spec)
    return max(spec.region_time_boundary(x) * 1.001, t_lo), t_hi * 10.0


def require_sample_windows(spec: KernelSpec):
    """ConfigError unless region_decay_check's stationary t window is
    nonempty at every sampled x; its start grows with |x|, so at the
    widest, SAMPLE_X_SPAN/N.  It is for a >= about 1.25e-5."""
    n_block = spec.block_start
    lo, hi = _stationary_window(spec, SAMPLE_X_SPAN / n_block)
    if not lo <= hi:
        raise ConfigError(f"threshold a = {spec.threshold:g} leaves the stationary region no "
                          f"sample times at N = {n_block:g}")


def _mixed_norm_box(spec: KernelSpec):
    """kernel_mixed_norm's box ends T = MIXED_T_SPAN/N^3 and X."""
    t_max = MIXED_T_SPAN / spec.block_start**3
    return t_max, max(2.0 * spec.region_speed * t_max, 200.0 / spec.block_start)


def require_mixed_exponent(gamma_exp: float, spec: KernelSpec):
    """ConfigError unless kernel_mixed_norm's exponent is at least 7 and
    the norm's p-th power on spec's box, p = gamma_exp/2, stays finite: its
    |K| <= 6N envelope (6N)^p times 4X, and (6N)^p itself."""
    if gamma_exp < 7:
        raise ConfigError(f"gamma_exp must be >= 7, got {gamma_exp}")
    n_block, (_, x_max) = spec.block_start, _mixed_norm_box(spec)
    log_envelope = gamma_exp / 2.0 * math.log(6.0 * n_block) + math.log(max(4.0 * x_max, 1.0))
    if not log_envelope < math.log(sys.float_info.max):
        raise ConfigError(f"gamma_exp = {gamma_exp:g} overflows the mixed norm's envelope "
                          f"(6N)^(gamma_exp/2) at N = {n_block:g}")


def region_decay_check(spec: KernelSpec, samples_per_region: int = 60,
                       seed: int = 0, jobs: int | None = None) -> DecayReport:
    """Empirical sup |K| / bound per region plus the stationary-region
    time-decay exponent fitted along a ray of fixed x.

    Sample windows scale with the block: x in (1/N, SAMPLE_X_SPAN/N], t in
    region-consistent slices of (0.2/N^3, SAMPLE_T_SPAN/N^3].  More than
    10% quadrature failures in a region fails the probe.  jobs is the
    number of quadrature threads, None for every available core; the
    report does not depend on it.
    """
    require_samples(samples_per_region)
    require_sample_windows(spec)
    rng = np.random.default_rng(seed)
    n_block = spec.block_start
    t_lo, t_hi = _sample_times(spec)
    m = samples_per_region
    signs = rng.choice([-1.0, 1.0], size=m)

    x1 = signs * _log_uniform(rng, 1e-3 / n_block, 1.0 / n_block, m)
    t1 = _log_uniform(rng, t_lo, t_hi, m)

    x2 = signs * _log_uniform(rng, 1.001 / n_block, SAMPLE_X_SPAN / n_block, m)
    t2 = np.minimum(
        _log_uniform(rng, t_lo, t_hi, m),
        np.array([spec.region_time_boundary(x) for x in x2]) * 0.999,
    )

    x3 = signs * _log_uniform(rng, 1.001 / n_block, SAMPLE_X_SPAN / n_block, m)
    t3 = np.array([_log_uniform(rng, *_stationary_window(spec, x), 1)[0] for x in x3])

    # one quadrature call over the regions, in RegionTag order, balances the pool
    stats = QuadratureStats()
    xs, ts = np.concatenate([x1, x2, x3]), np.concatenate([t1, t2, t3])
    values, achieved = _kernel_values(xs, ts, spec, stats, jobs)
    regions = {}
    for j, tag in enumerate(RegionTag):
        part = slice(j * m, (j + 1) * m)
        keep = achieved[part] <= spec.accepted_error
        skipped = int(m - np.count_nonzero(keep))
        if skipped > 0.1 * m:
            raise QuadratureAccuracyError(math.inf, spec.accepted_error)
        keep_x, keep_t = xs[part][keep], ts[part][keep]
        abs_k = np.abs(values[part][keep])
        bound = _region_bound(tag, keep_x, keep_t, spec)
        ratios = abs_k / bound
        regions[tag.name] = RegionSamples(
            tag=tag, x=keep_x, t=keep_t, abs_k=abs_k, bound=bound,
            ratios=ratios, empirical_constant=float(np.max(ratios)),
            skipped=skipped,
        )

    exponent = stationary_ray_exponent(spec, stats=stats, jobs=jobs)

    return DecayReport(
        regions=regions,
        ray_exponent=exponent,
        samples_per_region=m,
        skipped_fraction=sum(r.skipped for r in regions.values()) / max(3 * m, 1),
        quadrature=stats,
    )


RAY_OFFSETS = (3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)
RAY_POINTS = 33  # log-spaced t samples per ray


def stationary_ray_exponent(spec: KernelSpec, stats: QuadratureStats | None = None,
                            jobs: int | None = None) -> float:
    """Pooled time-decay exponent of |K| over rays x = -c/N, c in RAY_OFFSETS,
    each sampled at RAY_POINTS times.

    Each ray is sampled over the window where the stationary frequency
    x/t = phi'(xi_s) traverses the block [N, 4N]; there the kernel decays
    like t^{-1/4}..t^{-1/3} (the stationary point slides toward the
    weak-curvature edge).  Per-ray log-log data are de-meaned and fitted
    jointly, which averages out block-edge interference wiggles; the
    estimate is self-similar in N by construction.  stats, when given,
    accumulates what the quadrature did; jobs is as in region_decay_check.
    """
    n_block = spec.block_start
    slope_lo = abs(spec.symbol.derivative(n_block))
    slope_hi = abs(spec.symbol.derivative(4.0 * n_block))
    rays_x = [-cx / n_block for cx in RAY_OFFSETS]
    rays_t = [np.exp(np.linspace(math.log(abs(x) / slope_hi), math.log(abs(x) / slope_lo),
                                 RAY_POINTS)) for x in rays_x]
    values, achieved = _kernel_values(np.repeat(rays_x, RAY_POINTS),
                                      np.concatenate(rays_t), spec, stats or QuadratureStats(),
                                      jobs)
    _require_converged(achieved, spec)
    logs_t, logs_k = [], []
    for ts, ks in zip(rays_t, np.abs(values).reshape(len(rays_x), RAY_POINTS)):
        lt, lk = np.log(ts), np.log(np.maximum(ks, 1e-300))
        logs_t.append(lt - lt.mean())
        logs_k.append(lk - lk.mean())
    pooled_t = np.concatenate(logs_t)
    pooled_k = np.concatenate(logs_k)
    return float(np.polyfit(pooled_t, pooled_k, 1)[0])


@dataclass
class MixedNormReport:
    value: float
    x_extent: float
    tail_fraction: float
    scaled_ratio: float
    quadrature: QuadratureStats


def _mixed_norm_terms(sup_k, xs, n_block: float, gamma_exp: float, x_max: float):
    """The box's p-th power of the norm and the tail's, p = gamma_exp/2, from
    sup_t |K| at xs; each is nondecreasing in every sup_k."""
    p = gamma_exp / 2.0
    value_p = float(np.trapezoid(sup_k**p, xs))
    # near-field gap [-x_min, x_min] around the origin: |K| <= 6N there
    value_p += (6.0 * n_block) ** p * 2.0 * (1e-3 / n_block)

    # beyond X the whole t-range is non-stationary: |K| <= C2 / (N x^2)
    far = np.abs(xs) > 0.5 * x_max
    c2 = float(np.max(sup_k[far] * n_block * xs[far] ** 2)) if np.any(far) else 1.0
    return value_p, 2.0 * (c2 / n_block) ** p * x_max ** (1.0 - gamma_exp) / (gamma_exp - 1.0)


def kernel_mixed_norm(spec: KernelSpec, gamma_exp: float, n_x: int = 120, n_t: int = 48,
                      jobs: int | None = None) -> MixedNormReport:
    """|| sup_t |K| ||_{L_x^{g/2}} on the box [-X, X] x (0, T].

    T = MIXED_T_SPAN / N^3 (the kernel's self-similar time scale) and X is at
    least twice the region boundary 4000*a*N^2*T, so every |x| > X sits
    in the non-stationary region for all t <= T; the omitted tail is
    then bounded by the x^{-2} envelope and must stay below 1%.  jobs is
    as in region_decay_check.
    """
    require_mixed_exponent(gamma_exp, spec)
    n_block = spec.block_start
    t_max, x_max = _mixed_norm_box(spec)

    ts = np.exp(np.linspace(math.log(t_max * 1e-3), math.log(t_max), n_t))
    half = np.exp(np.linspace(math.log(1e-3 / n_block), math.log(x_max), n_x))
    xs = np.concatenate([-half[::-1], half])

    stats = QuadratureStats()
    values, achieved = _kernel_values(np.repeat(xs, ts.size), np.tile(ts, xs.size), spec, stats,
                                      jobs)
    _require_converged(achieved, spec)
    sup_k = np.max(np.abs(values).reshape(xs.size, ts.size), axis=1, initial=0.0)
    value_p, tail_p = _mixed_norm_terms(sup_k, xs, n_block, gamma_exp, x_max)
    tail_fraction = tail_p / max(value_p, 1e-300)
    if tail_fraction > 0.01:
        raise BoxTooSmallError(
            f"tail fraction {tail_fraction:.2%} exceeds 1% with X = {x_max:g}"
        )

    value = (value_p + tail_p) ** (2.0 / gamma_exp)
    scaling = n_block ** ((gamma_exp - 2.0) / gamma_exp)
    return MixedNormReport(value=value, x_extent=x_max, tail_fraction=tail_fraction,
                           scaled_ratio=value / scaling, quadrature=stats)
