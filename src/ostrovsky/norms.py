"""Norms quantified over by the well-posedness estimates.

Spatial norms use Parseval sums L * sum_j |c_j|^2 with the weight
<xi> = 1 + |xi|.  Space-time fields carry a periodic time window
[0, T) whose DFT frequencies tau_l = 2*pi*l/T stand in for the
continuum modulation variable; sigma = tau + phi(xi) weights the
Bourgain norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectral import (
    Field,
    Grid,
    MultiplierSpec,
    PhaseSymbol,
    analyze,
    angular_frequencies,
    apply_multiplier,
    dft,
    half_spectrum,
    hermitian_extension,
    multiplier_table,
    require_mean_zero,
    synthesize,
)


@dataclass(frozen=True)
class SpaceTimeField:
    """Real samples u(x_m, t_l) on grid x window, shape (n_t, n_points).

    The time window is [0, t_window) with n_t uniform samples.  The 2-D
    spectral table (and hence the Bourgain norm) requires even n_t; odd
    sample counts are accepted for lattice-only uses such as the
    fixed-point iteration output.
    """

    grid: Grid
    t_window: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.grid.n_points:
            raise ConfigError(f"values shape {v.shape} does not match grid")
        if v.shape[0] < 2:
            raise ConfigError("need at least two time samples")
        if not self.t_window > 0:
            raise ConfigError("t_window must be positive")
        object.__setattr__(self, "values", v)

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return self.t_window / self.n_t

    def tau(self) -> np.ndarray:
        """Temporal DFT frequencies with the Nyquist housed positive."""
        return angular_frequencies(self.n_t, self.t_window)

    def spectral_table(self) -> np.ndarray:
        """2-D coefficients F[l, j] = (1/(n_t*n)) sum u e^{-i xi x - i tau t}."""
        if self.n_t % 2 != 0:
            raise ConfigError("2-D spectral table needs an even number of time samples")
        return dft(self.values, (0, 1))


@dataclass(frozen=True)
class ModulationWeight:
    """Table <sigma>_{l,j} = 1 + |tau_l + phi(xi_j)|, always >= 1."""

    table: np.ndarray

    @classmethod
    def build(cls, stf: SpaceTimeField, symbol: PhaseSymbol) -> "ModulationWeight":
        return cls(symbol.modulation(stf.tau(), stf.grid.wavenumbers))


@functools.lru_cache(maxsize=64)
def _sobolev_weights(grid: Grid, s: float) -> np.ndarray:
    """(1+|xi_j|)^{2s} on the grid's modes, read-only and shared per (grid, s)."""
    w = (1.0 + np.abs(grid.wavenumbers)) ** (2.0 * s)
    w.flags.writeable = False
    return w


def h_s_norm(field: Field, s: float) -> float:
    """Sobolev norm (L * sum_j (1+|xi_j|)^{2s} |c_j|^2)^{1/2}."""
    w = _sobolev_weights(field.grid, s)
    return math.sqrt(field.grid.length * float(np.sum(w * np.abs(field.coeffs) ** 2)))


def x_s_norm(field: Field, s: float) -> float:
    """h_s_norm of the field plus h_s_norm of its spectrum divided by |xi|.

    Defined on mean-zero fields only (the division is singular at the
    zero mode).
    """
    inverse = apply_multiplier(field, MultiplierSpec.fractional_d(-1.0))
    return h_s_norm(field, s) + h_s_norm(inverse, s)


def mixed_norm(stf: SpaceTimeField, p: float, q: float, order: str = "t_outer") -> float:
    """Riemann-sum mixed norm.

    order="t_outer" evaluates (int (int |f|^q dx)^{p/q} dt)^{1/p};
    order="x_outer" swaps the roles (x integral outermost).  Infinite
    exponents take the maximum over their axis.  The one-block case of
    mixed_norm_blocks.
    """
    return mixed_norm_blocks([stf.values], stf.grid.dx, stf.dt, p, q, order)


def mixed_norm_blocks(blocks, dx: float, dt: float, p: float, q: float,
                      order: str = "t_outer") -> float:
    """mixed_norm of the samples whose time rows come in blocks, each of
    shape (rows, n_x), without stacking them.  t_outer reduces each row
    over x within its block; x_outer at q = inf keeps a running maximum over
    t.  Both equal the stacked reduction bit for bit.  x_outer at finite q
    sums every row into each column, so it takes one block only.
    """
    if p < 1 or q < 1:
        raise ConfigError(f"exponents must be >= 1, got p={p}, q={q}")
    if order not in ("t_outer", "x_outer"):
        raise ConfigError(f"order must be 't_outer' or 'x_outer', got {order!r}")

    def reduce(v, axis, meas):
        if math.isinf(q):
            return v.max(axis=axis)
        return (np.sum(v**q, axis=axis) * meas) ** (1.0 / q)

    if order == "t_outer":
        inner = np.concatenate([reduce(np.abs(v), 1, dx) for v in blocks])
        outer_meas = dt
    else:
        inner, outer_meas = None, dx
        for v in blocks:
            if inner is not None and not math.isinf(q):
                raise ConfigError("x_outer at finite q needs the samples in one block")
            part = reduce(np.abs(v), 0, dt)
            inner = part if inner is None else np.maximum(inner, part)
    if math.isinf(p):
        return float(inner.max())
    return float((np.sum(inner**p) * outer_meas) ** (1.0 / p))


def xsb_norm(stf: SpaceTimeField, s: float, b: float, symbol: PhaseSymbol) -> float:
    """Bourgain-type norm (L*T * sum <xi>^{2s} <sigma>^{2b} |Fu|^2)^{1/2}."""
    table = stf.spectral_table()
    wx = _sobolev_weights(stf.grid, s)
    ws = ModulationWeight.build(stf, symbol).table ** (2.0 * b)
    total = float(np.sum(wx[None, :] * ws * np.abs(table) ** 2))
    return math.sqrt(stf.grid.length * stf.t_window * total)


def xtilde_sb_norm(stf: SpaceTimeField, s: float, b: float, symbol: PhaseSymbol) -> float:
    """xsb norm of u plus xsb norm of its spatial antiderivative."""
    slices = hermitian_extension(analyze(stf.values))
    require_mean_zero(slices, "antiderivative norm")
    inv = slices * multiplier_table(stf.grid, MultiplierSpec.derivative(-1))
    anti = SpaceTimeField(stf.grid, stf.t_window, synthesize(half_spectrum(inv)))
    return xsb_norm(stf, s, b, symbol) + xsb_norm(anti, s, b, symbol)


def norm_record(name: str, value: float, **params) -> dict:
    """One JSON-serializable norm report, e.g.
    {"norm": "Xsb", "s": 0.0, "b": 0.5, "value": 1.25}."""
    record = {"norm": name}
    record.update({k: float(v) for k, v in params.items()})
    record["value"] = float(value)
    return record


def _time_bump(t):
    """Smooth cutoff: 1 on |t| <= 1, 0 for |t| >= 2, C^2 shoulders.

    The shoulder is a quintic smoothstep; only the support and the
    smoothness class matter to consumers.
    """
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    mid = (a > 1.0) & (a < 2.0)
    y = a[mid] - 1.0
    out[mid] = 1.0 - (10.0 * y**3 - 15.0 * y**4 + 6.0 * y**5)
    return out if out.ndim else float(out)


def window_bump(times: np.ndarray, t_window: float) -> np.ndarray:
    """_time_bump rescaled so it is 1 on the middle half of [0, T) and
    vanishes smoothly at both window edges."""
    return _time_bump(4.0 * (times - 0.5 * t_window) / t_window)
