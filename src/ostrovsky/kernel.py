"""Direct quadrature of the dyadic oscillatory kernel

    K(x, t) = int exp(i(x*xi - t*phi(xi))) chi_{[N,4N]}(|xi|) dxi

and verification of its three-region decay bounds and the mixed
L_x^{g/2} L_t^inf norm scaling N^{(g-2)/g}.

The two signed frequency blocks are complex conjugates, so K is real and
only the positive block is integrated.  Quadrature is panel-wise
Gauss-Kronrod (G7, K15) with panel widths tied to the local oscillation
wavelength 2*pi/|d/dxi (x*xi - t*phi)|.

The probes evaluate their points in batches: the panels of consecutive
points are stacked up to a constant budget of BATCH_NODES nodes, the
integrand is evaluated once per batch, and only the points whose
embedded error estimate misses tolerance are re-run at 4x and then 16x
finer panels.  Each point's sums are taken exactly as kernel_eval takes
them, so the batched values equal the scalar ones bit for bit;
kernel_eval stays the one-point reference.

Sampling windows follow the kernel's self-similar scales x ~ 1/N,
t ~ 1/N^3, so empirical constants are comparable across dyadic N.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxTooSmallError, ConfigError, QuadratureAccuracyError
from .spectral import PhaseSymbol

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_SLICE = slice(1, 14, 2)  # Gauss-7 nodes sit at the odd Kronrod indices

REGION_BOUNDARY_FACTOR = 4000.0
MAX_NODES = 4_000_000
BATCH_NODES = 1 << 16  # nodes per batched evaluation; a larger point runs alone
_REFINES = (1.0, 4.0, 16.0)  # panel refinements tried in turn


@dataclass(frozen=True)
class KernelSpec:
    """Frequency block [N, 4N] in |xi| plus the phase coefficients.

    threshold is the desk-scale stand-in for the dyadic frequency
    cutoff entering the region boundary |x| = 4000*a*N^2*t; the
    formula-derived value is available from spectral.frequency_threshold
    but is far too large for O(1) coefficients.
    """

    block_start: float
    beta: float
    gamma: float
    tolerance: float = 1e-9
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

    @property
    def symbol(self) -> PhaseSymbol:
        return PhaseSymbol(self.beta, self.gamma)

    def region_time_boundary(self, x: float) -> float:
        """t above which (x, t) leaves the non-stationary region."""
        return abs(x) / (REGION_BOUNDARY_FACTOR * self.threshold * self.block_start**2)


class RegionTag(enum.Enum):
    """The three-way partition of {(x, t): t > 0} from the decay proof."""

    NEAR_FIELD = 1        # |x| <= 1/N
    NON_STATIONARY = 2    # |x| > 1/N and |x| >= 4000 a N^2 t
    STATIONARY = 3        # |x| > 1/N and |x| < 4000 a N^2 t

    @classmethod
    def classify(cls, x: float, t: float, spec: KernelSpec) -> "RegionTag":
        if t <= 0:
            raise ConfigError("regions partition t > 0 only")
        if abs(x) <= 1.0 / spec.block_start:
            return cls.NEAR_FIELD
        boundary = REGION_BOUNDARY_FACTOR * spec.threshold * spec.block_start**2 * t
        return cls.NON_STATIONARY if abs(x) >= boundary else cls.STATIONARY


def _panel_edges(x: float, t: float, spec: KernelSpec, symbol: PhaseSymbol,
                 refine: float) -> np.ndarray:
    """Panel edges over [N, 4N] with width <= local wavelength / 4.

    Each of 48 coarse sub-intervals [a, b] gets m equal panels, its
    edges built with the arithmetic of np.linspace(a, b, m + 1).  Raises
    QuadratureAccuracyError (bound inf) before building more panels than
    MAX_NODES nodes fill.
    """
    n_block = spec.block_start
    coarse = np.linspace(n_block, 4.0 * n_block, 49)
    a, b = coarse[:-1], coarse[1:]
    slope = x - t * symbol.derivative(np.linspace(a, b, 5, axis=1))
    worst = np.max(np.abs(slope), axis=1) * 1.5 + 1e-30
    width_cap = 2.0 * np.pi / (4.0 * worst)
    m = np.maximum(1, np.ceil((b - a) / width_cap * refine)).astype(np.intp)
    last = np.cumsum(m)
    if last[-1] * 15 > MAX_NODES:
        raise QuadratureAccuracyError(math.inf, spec.tolerance)
    j = np.arange(1, last[-1] + 1) - np.repeat(last - m, m)
    edges = np.empty(last[-1] + 1)
    edges[0] = n_block
    edges[1:] = j * np.repeat((b - a) / m, m) + np.repeat(a, m)
    edges[last] = b
    return edges


def _block_integral(x: float, t: float, spec: KernelSpec, symbol: PhaseSymbol,
                    refine: float):
    """Gauss-Kronrod value and error estimate of the positive block."""
    edges = _panel_edges(x, t, spec, symbol, refine)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _KRONROD_NODES[None, :]).ravel()
    vals = np.exp(1j * (x * nodes - t * symbol(nodes))).reshape(half.size, -1)
    k15 = (vals * _KRONROD_WEIGHTS[None, :]).sum(axis=1) * half
    g7 = (vals[:, _GAUSS_SLICE] * _GAUSS_WEIGHTS[None, :]).sum(axis=1) * half
    return complex(k15.sum()), float(np.abs(k15 - g7).sum())


def kernel_eval(x: float, t: float, spec: KernelSpec) -> float:
    """K(x, t), real by the conjugate symmetry of the two blocks.

    Raises QuadratureAccuracyError with the achieved bound when the
    embedded error estimate cannot be brought under spec.tolerance.
    """
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    symbol = spec.symbol
    achieved = math.inf
    for refine in _REFINES:
        value, err = _block_integral(x, t, spec, symbol, refine)
        achieved = 2.0 * err
        if achieved <= spec.tolerance:
            return 2.0 * value.real
    raise QuadratureAccuracyError(achieved, spec.tolerance)


@dataclass
class QuadratureStats:
    """What the quadrature did over one probe's points.

    refined_x4 and refined_x16 count the points that were re-run at 4x
    (and then 16x) finer panels; max_error is the largest finite achieved
    error bound, over converged and failed points alike.
    """

    points: int = 0
    refined_x4: int = 0
    refined_x16: int = 0
    over_cap: int = 0
    max_error: float = 0.0


def _batch_integrals(xs: np.ndarray, ts: np.ndarray, edge_sets: list,
                     symbol: PhaseSymbol):
    """_block_integral for each (xs[i], ts[i]) with panels edge_sets[i],
    from one evaluation of the integrand over all their nodes."""
    counts = [e.size - 1 for e in edge_sets]
    mid = np.concatenate([0.5 * (e[:-1] + e[1:]) for e in edge_sets])
    half = np.concatenate([0.5 * (e[1:] - e[:-1]) for e in edge_sets])
    x = np.repeat(xs, counts)[:, None]
    t = np.repeat(ts, counts)[:, None]
    nodes = mid[:, None] + half[:, None] * _KRONROD_NODES[None, :]
    vals = np.exp(1j * (x * nodes - t * symbol(nodes)))
    k15 = (vals * _KRONROD_WEIGHTS[None, :]).sum(axis=1) * half
    g7 = (vals[:, _GAUSS_SLICE] * _GAUSS_WEIGHTS[None, :]).sum(axis=1) * half
    gap = np.abs(k15 - g7)
    stops = np.cumsum(counts)
    starts = stops - counts
    values = np.array([k15[a:b].sum() for a, b in zip(starts, stops)])
    errs = np.array([gap[a:b].sum() for a, b in zip(starts, stops)])
    return values, errs


def _batches(xs: np.ndarray, ts: np.ndarray, points: np.ndarray, spec: KernelSpec,
             symbol: PhaseSymbol, refine: float):
    """Consecutive points with their panel edges, grouped up to
    BATCH_NODES nodes (a larger point comes alone); yields (indices,
    edge sets).  A point over MAX_NODES comes alone with edge sets None."""
    batch, edge_sets, nodes = [], [], 0
    for i in points:
        try:
            edges = _panel_edges(xs[i], ts[i], spec, symbol, refine)
        except QuadratureAccuracyError:
            yield np.array([i]), None
            continue
        size = (edges.size - 1) * 15
        if batch and nodes + size > BATCH_NODES:
            yield np.array(batch), edge_sets
            batch, edge_sets, nodes = [], [], 0
        batch.append(i)
        edge_sets.append(edges)
        nodes += size
    if batch:
        yield np.array(batch), edge_sets


def _kernel_values(xs, ts, spec: KernelSpec, stats: QuadratureStats):
    """K at the points (xs[i], ts[i]) and each point's achieved error bound.

    Equal bit for bit to kernel_eval point by point for t >= 0.  A point
    that misses spec.tolerance after the last refinement gets value nan
    and keeps its bound; a point whose panels exceed MAX_NODES gets nan
    and bound inf.  Adds what the quadrature did to stats.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    symbol = spec.symbol
    values = np.full(xs.size, np.nan)
    achieved = np.full(xs.size, np.inf)
    todo = np.arange(xs.size)
    reached = [0] * len(_REFINES)  # points evaluated at each refinement
    for level, refine in enumerate(_REFINES):
        if not todo.size:
            break
        reached[level] = todo.size
        missed = []
        for batch, edge_sets in _batches(xs, ts, todo, spec, symbol, refine):
            if edge_sets is None:
                achieved[batch] = math.inf
                continue
            value, err = _batch_integrals(xs[batch], ts[batch], edge_sets, symbol)
            achieved[batch] = 2.0 * err
            ok = achieved[batch] <= spec.tolerance
            values[batch[ok]] = 2.0 * value.real[ok]
            missed.extend(batch[~ok])
        todo = np.array(missed, dtype=np.intp)
    finite = achieved[np.isfinite(achieved)]
    stats.points += xs.size
    stats.refined_x4 += reached[1]
    stats.refined_x16 += reached[2]
    stats.over_cap += int(np.sum(np.isposinf(achieved)))
    stats.max_error = max(stats.max_error, float(np.max(finite, initial=0.0)))
    return values, achieved


def _require_converged(achieved: np.ndarray, spec: KernelSpec):
    """Raise, as kernel_eval would, for the first point that failed."""
    failed = np.flatnonzero(~(achieved <= spec.tolerance))
    if failed.size:
        raise QuadratureAccuracyError(float(achieved[failed[0]]), spec.tolerance)


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
    spec: KernelSpec
    regions: dict
    ray_exponent: float
    ray_x: float
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


def region_decay_check(spec: KernelSpec, samples_per_region: int = 60,
                       seed: int = 0, x_span: float = 100.0,
                       t_span: float = 200.0) -> DecayReport:
    """Empirical sup |K| / bound per region plus the stationary-region
    time-decay exponent fitted along a ray of fixed x.

    Sample windows scale with the block: x in (1/N, x_span/N], t in
    region-consistent slices of (0.2/N^3, t_span/N^3].  More than 10%
    quadrature failures in a region fails the probe.
    """
    rng = np.random.default_rng(seed)
    n_block = spec.block_start
    t_lo, t_hi = 0.2 / n_block**3, t_span / n_block**3
    regions = {}
    total, skipped_total = 0, 0
    stats = QuadratureStats()

    def collect(tag, xs, ts):
        nonlocal total, skipped_total
        values, achieved = _kernel_values(xs, ts, spec, stats)
        keep = achieved <= spec.tolerance
        skipped = int(xs.size - np.count_nonzero(keep))
        total += len(xs)
        skipped_total += skipped
        if skipped > 0.1 * len(xs):
            raise QuadratureAccuracyError(math.inf, spec.tolerance)
        keep_x, keep_t = xs[keep], ts[keep]
        abs_k = np.abs(values[keep])
        bound = _region_bound(tag, keep_x, keep_t, spec)
        ratios = abs_k / bound
        regions[tag.name] = RegionSamples(
            tag=tag, x=keep_x, t=keep_t, abs_k=abs_k, bound=bound,
            ratios=ratios, empirical_constant=float(np.max(ratios)),
            skipped=skipped,
        )

    m = samples_per_region
    signs = rng.choice([-1.0, 1.0], size=m)

    x1 = signs * _log_uniform(rng, 1e-3 / n_block, 1.0 / n_block, m)
    collect(RegionTag.NEAR_FIELD, x1, _log_uniform(rng, t_lo, t_hi, m))

    x2 = signs * _log_uniform(rng, 1.001 / n_block, x_span / n_block, m)
    t2 = np.minimum(
        _log_uniform(rng, t_lo, t_hi, m),
        np.array([spec.region_time_boundary(x) for x in x2]) * 0.999,
    )
    collect(RegionTag.NON_STATIONARY, x2, t2)

    x3 = signs * _log_uniform(rng, 1.001 / n_block, x_span / n_block, m)
    t3 = np.array([
        _log_uniform(rng, max(spec.region_time_boundary(x) * 1.001, t_lo), t_hi * 10.0, 1)[0]
        for x in x3
    ])
    collect(RegionTag.STATIONARY, x3, t3)

    exponent = stationary_ray_exponent(spec, stats=stats)

    return DecayReport(
        spec=spec,
        regions=regions,
        ray_exponent=exponent,
        ray_x=-4.0 / n_block,
        samples_per_region=m,
        skipped_fraction=skipped_total / max(total, 1),
        quadrature=stats,
    )


RAY_OFFSETS = (3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)


def stationary_ray_exponent(spec: KernelSpec, offsets=RAY_OFFSETS,
                            points_per_ray: int = 33,
                            stats: QuadratureStats | None = None) -> float:
    """Pooled time-decay exponent of |K| over rays x = -c/N.

    Each ray is sampled over the window where the stationary frequency
    x/t = phi'(xi_s) traverses the block [N, 4N]; there the kernel decays
    like t^{-1/4}..t^{-1/3} (the stationary point slides toward the
    weak-curvature edge).  Per-ray log-log data are de-meaned and fitted
    jointly, which averages out block-edge interference wiggles; the
    estimate is self-similar in N by construction.  stats, when given,
    accumulates what the quadrature did.
    """
    n_block = spec.block_start
    slope_lo = abs(spec.symbol.derivative(n_block))
    slope_hi = abs(spec.symbol.derivative(4.0 * n_block))
    rays_x = [-cx / n_block for cx in offsets]
    rays_t = [np.exp(np.linspace(math.log(abs(x) / slope_hi), math.log(abs(x) / slope_lo),
                                 points_per_ray)) for x in rays_x]
    values, achieved = _kernel_values(np.repeat(rays_x, points_per_ray),
                                      np.concatenate(rays_t), spec, stats or QuadratureStats())
    _require_converged(achieved, spec)
    logs_t, logs_k = [], []
    for ts, ks in zip(rays_t, np.abs(values).reshape(len(rays_x), points_per_ray)):
        lt, lk = np.log(ts), np.log(np.maximum(ks, 1e-300))
        logs_t.append(lt - lt.mean())
        logs_k.append(lk - lk.mean())
    pooled_t = np.concatenate(logs_t)
    pooled_k = np.concatenate(logs_k)
    return float(np.polyfit(pooled_t, pooled_k, 1)[0])


@dataclass
class MixedNormReport:
    spec: KernelSpec
    gamma_exp: float
    value: float
    x_extent: float
    t_extent: float
    tail_fraction: float
    scaled_ratio: float
    quadrature: QuadratureStats


def kernel_mixed_norm(spec: KernelSpec, gamma_exp: float, c_t: float = 1.0,
                      n_x: int = 120, n_t: int = 48) -> MixedNormReport:
    """|| sup_t |K| ||_{L_x^{g/2}} on the box [-X, X] x (0, T].

    T = c_t / N^3 (the kernel's self-similar time scale) and X is at
    least twice the region boundary 4000*a*N^2*T, so every |x| > X sits
    in the non-stationary region for all t <= T; the omitted tail is
    then bounded by the x^{-2} envelope and must stay below 1%.
    """
    if gamma_exp < 7:
        raise ConfigError(f"gamma_exp must be >= 7, got {gamma_exp}")
    n_block = spec.block_start
    t_max = c_t / n_block**3
    x_boundary = REGION_BOUNDARY_FACTOR * spec.threshold * n_block**2 * t_max
    x_max = max(2.0 * x_boundary, 200.0 / n_block)

    ts = np.exp(np.linspace(math.log(t_max * 1e-3), math.log(t_max), n_t))
    half = np.exp(np.linspace(math.log(1e-3 / n_block), math.log(x_max), n_x))
    xs = np.concatenate([-half[::-1], half])

    stats = QuadratureStats()
    values, achieved = _kernel_values(np.repeat(xs, ts.size), np.tile(ts, xs.size), spec, stats)
    _require_converged(achieved, spec)
    sup_k = np.max(np.abs(values).reshape(xs.size, ts.size), axis=1, initial=0.0)

    p = gamma_exp / 2.0
    value_p = float(np.trapezoid(sup_k**p, xs))
    # near-field gap [-x_min, x_min] around the origin: |K| <= 6N there
    value_p += (6.0 * n_block) ** p * 2.0 * (1e-3 / n_block)

    # beyond X the whole t-range is non-stationary: |K| <= C2 / (N x^2)
    far = np.abs(xs) > 0.5 * x_max
    c2 = float(np.max(sup_k[far] * n_block * xs[far] ** 2)) if np.any(far) else 1.0
    tail_p = 2.0 * (c2 / n_block) ** p * x_max ** (1.0 - gamma_exp) / (gamma_exp - 1.0)
    tail_fraction = tail_p / max(value_p, 1e-300)
    if tail_fraction > 0.01:
        raise BoxTooSmallError(
            f"tail fraction {tail_fraction:.2%} exceeds 1% with X = {x_max:g}"
        )

    value = (value_p + tail_p) ** (1.0 / p)
    scaling = n_block ** ((gamma_exp - 2.0) / gamma_exp)
    return MixedNormReport(
        spec=spec, gamma_exp=gamma_exp, value=value, x_extent=x_max,
        t_extent=t_max, tail_fraction=tail_fraction,
        scaled_ratio=value / scaling, quadrature=stats,
    )
