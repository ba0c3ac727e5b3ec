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
    apply_multiplier,
    fft_mode_numbers,
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
        return 2.0 * np.pi * fft_mode_numbers(self.n_t) / self.t_window

    def spectral_table(self) -> np.ndarray:
        """2-D coefficients F[l, j] = (1/(n_t*n)) sum u e^{-i xi x - i tau t}."""
        if self.n_t % 2 != 0:
            raise ConfigError("2-D spectral table needs an even number of time samples")
        return np.fft.fft2(self.values) / (self.n_t * self.grid.n_points)


@dataclass(frozen=True)
class ModulationWeight:
    """Table <sigma>_{l,j} = 1 + |tau_l + phi(xi_j)|, always >= 1."""

    table: np.ndarray

    @classmethod
    def build(cls, stf: SpaceTimeField, symbol: PhaseSymbol) -> "ModulationWeight":
        phi = symbol.table(stf.grid)
        tau = stf.tau()
        return cls(1.0 + np.abs(tau[:, None] + phi[None, :]))


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
    exponents take the maximum over their axis.
    """
    if p < 1 or q < 1:
        raise ConfigError(f"exponents must be >= 1, got p={p}, q={q}")
    if order not in ("t_outer", "x_outer"):
        raise ConfigError(f"order must be 't_outer' or 'x_outer', got {order!r}")
    v = np.abs(stf.values)  # shape (n_t, n_x)
    dx, dt = stf.grid.dx, stf.dt
    if order == "t_outer":
        inner_axis, inner_meas, outer_meas = 1, dx, dt
    else:
        inner_axis, inner_meas, outer_meas = 0, dt, dx
    if math.isinf(q):
        inner = v.max(axis=inner_axis)
    else:
        inner = (np.sum(v**q, axis=inner_axis) * inner_meas) ** (1.0 / q)
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
