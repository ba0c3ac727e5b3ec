"""Periodic spectral representation and Fourier-multiplier operators.

Fields live on a uniform periodic grid over [0, L).  Spectral coefficients
follow the convention

    c_j = (1/n) * sum_m u(x_m) exp(-i xi_j x_m),   xi_j = 2*pi*j/L,

with mode numbers j = -n/2+1, ..., n/2.  The Nyquist mode is housed at
+n/2 and is zeroed by every odd-symmetric multiplier (odd-order
derivatives) so that no unpaired phantom mode survives; the propagator
keeps it, using the phase evaluated at +xi_{n/2}.

The dispersion symbol phi(xi) = beta*xi**3 + gamma/xi is singular at
xi = 0.  All evolved fields are kept mean-zero, and phi(0) := 0 by
convention so the zero mode never participates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeanZeroViolation

MEAN_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length) with an even number of points."""

    n_points: int
    length: float
    x: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    mode_numbers: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, length = self.n_points, self.length
        if n % 2 != 0:
            raise ConfigError(f"n_points must be even, got {n}")
        if n < 8:
            raise ConfigError(f"n_points must be >= 8, got {n}")
        if not length > 0:
            raise ConfigError(f"length must be positive, got {length}")
        j = np.arange(n)
        j[j > n // 2] -= n  # FFT order with the Nyquist housed at +n/2
        object.__setattr__(self, "mode_numbers", j)
        object.__setattr__(self, "x", np.arange(n) * (length / n))
        object.__setattr__(self, "wavenumbers", 2.0 * np.pi * j / length)

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def nyquist_index(self) -> int:
        return self.n_points // 2


@dataclass(frozen=True)
class Field:
    """One real-valued function in its spectral representation.

    Fields built from real samples keep them cached, so snapshot
    write/read cycles are bit-exact; operator outputs drop the cache and
    synthesize samples from the spectrum.
    """

    grid: Grid
    coeffs: np.ndarray
    cached_samples: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_samples(cls, grid: Grid, samples) -> "Field":
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.n_points,):
            raise ConfigError(
                f"samples shape {samples.shape} does not match grid n={grid.n_points}"
            )
        return cls(grid, np.fft.fft(samples) / grid.n_points, samples.copy())

    @classmethod
    def from_coeffs(cls, grid: Grid, coeffs) -> "Field":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n_points,):
            raise ConfigError("coefficient array does not match grid size")
        return cls(grid, coeffs)

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_points, dtype=complex))

    def samples(self) -> np.ndarray:
        if self.cached_samples is not None:
            return self.cached_samples
        return np.fft.ifft(self.coeffs * self.grid.n_points).real

    def mean(self) -> float:
        return float(self.coeffs[0].real)

    def l2_norm(self) -> float:
        # Parseval: sum_m |u|^2 dx = L * sum_j |c_j|^2
        return math.sqrt(self.grid.length * float(np.sum(np.abs(self.coeffs) ** 2)))

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise ConfigError("fields live on different grids")


def _off_zero(xi, fn):
    """fn(xi) elementwise where xi != 0 and 0 where xi == 0; a float for
    scalar xi."""
    xi = np.asarray(xi, dtype=float)
    nz = xi != 0.0
    out = np.where(nz, fn(np.where(nz, xi, 1.0)), 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PhaseSymbol:
    """Dispersion symbol phi(xi) = beta*xi**3 + gamma/xi with phi(0) = 0."""

    beta: float
    gamma: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")

    def __call__(self, xi):
        """phi(xi), elementwise, with phi(0) = 0."""
        return _off_zero(xi, self.at_nonzero)

    def at_nonzero(self, xi):
        """phi(xi) for an array xi with no zero entry, without the masking."""
        return self.beta * xi**3 + self.gamma / xi

    def derivative(self, xi):
        """phi'(xi) = 3*beta*xi**2 - gamma/xi**2, elementwise, 0 at xi = 0."""
        return _off_zero(xi, lambda x: 3.0 * self.beta * x**2 - self.gamma / x**2)

    def table(self, grid: Grid) -> np.ndarray:
        return self(grid.wavenumbers)

    def derivative_table(self, grid: Grid) -> np.ndarray:
        return self.derivative(grid.wavenumbers)


@dataclass(frozen=True)
class MultiplierSpec:
    """One Fourier-multiplier operator: which kind plus its parameter.

    kinds: derivative(order m), fractional_d(alpha), low_pass(N),
    high_pass(N), propagator(t, symbol).
    """

    kind: str
    order: int = 0
    alpha: float = 0.0
    cutoff: float = 0.0
    t: float = 0.0
    symbol: PhaseSymbol | None = None

    KINDS = ("derivative", "fractional_d", "low_pass", "high_pass", "propagator")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown multiplier kind {self.kind!r}; expected one of {self.KINDS}")
        if self.kind == "propagator" and self.symbol is None:
            raise ConfigError("propagator multiplier needs a PhaseSymbol")

    @classmethod
    def derivative(cls, order: int) -> "MultiplierSpec":
        if order == 0:
            raise ConfigError("derivative order must be a nonzero integer")
        return cls("derivative", order=int(order))

    @classmethod
    def fractional_d(cls, alpha: float) -> "MultiplierSpec":
        return cls("fractional_d", alpha=float(alpha))

    @classmethod
    def low_pass(cls, cutoff: float) -> "MultiplierSpec":
        return cls("low_pass", cutoff=float(cutoff))

    @classmethod
    def high_pass(cls, cutoff: float) -> "MultiplierSpec":
        return cls("high_pass", cutoff=float(cutoff))

    @classmethod
    def propagator(cls, t: float, symbol: PhaseSymbol) -> "MultiplierSpec":
        return cls("propagator", t=float(t), symbol=symbol)


def require_mean_zero(coeffs: np.ndarray, what: str):
    """Raise MeanZeroViolation unless every spectrum along the last axis
    has |c_0| <= MEAN_ZERO_RTOL times the largest spectrum's l2 norm."""
    c0 = np.abs(coeffs[..., 0])
    scale = math.sqrt(float(np.max(np.sum(np.abs(coeffs) ** 2, axis=-1))))
    if np.max(c0) > MEAN_ZERO_RTOL * max(scale, 1e-300):
        worst = coeffs[..., 0].flat[np.argmax(c0)]
        raise MeanZeroViolation(complex(worst), f"{what} requires mean-zero input")


def multiplier_table(grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """The per-mode multiplier m(xi_j) for one operator."""
    xi = grid.wavenumbers
    nyq = grid.nyquist_index
    if spec.kind == "derivative":
        m = np.zeros(grid.n_points, dtype=complex)
        nz = xi != 0.0
        m[nz] = (1j * xi[nz]) ** spec.order
        if spec.order % 2 != 0:
            m[nyq] = 0.0  # odd symmetry: the unpaired Nyquist mode is dropped
        return m
    if spec.kind == "fractional_d":
        m = np.zeros(grid.n_points)
        nz = xi != 0.0
        m[nz] = np.abs(xi[nz]) ** spec.alpha
        if spec.alpha > 0:
            m[~nz] = 0.0
        return m
    if spec.kind == "low_pass":
        return (np.abs(xi) < spec.cutoff).astype(float)
    if spec.kind == "high_pass":
        return (np.abs(xi) >= spec.cutoff).astype(float)
    if spec.kind == "propagator":
        return np.exp(-1j * spec.t * spec.symbol.table(grid))
    raise ConfigError(f"unknown multiplier kind {spec.kind!r}")


def apply_multiplier(field: Field, spec: MultiplierSpec) -> Field:
    """Multiply the spectrum by m(xi_j); see MultiplierSpec for the menu."""
    if spec.kind == "derivative" and spec.order < 0:
        require_mean_zero(field.coeffs, f"derivative({spec.order})")
    if spec.kind == "fractional_d" and spec.alpha < 0:
        require_mean_zero(field.coeffs, f"fractional_d({spec.alpha})")
    return Field(field.grid, field.coeffs * multiplier_table(field.grid, spec))


def project_zero_mean(field: Field) -> Field:
    """Zero the mean mode; all other modes pass through bit-identically."""
    c = field.coeffs.copy()
    c[0] = 0.0
    return Field(field.grid, c)


def dealias(field: Field, product_degree: int) -> Field:
    """Zero every mode with |j| > floor(n / (p + 1)).

    For a pointwise product of degree p this removes aliased energy
    exactly when the input is already confined to the retained band
    (the p = 2 case is the classical 2/3 rule).
    """
    p = int(product_degree)
    if p < 2:
        raise ConfigError(f"product_degree must be an integer >= 2, got {product_degree}")
    cutoff = (2 * (field.grid.n_points // 2)) // (p + 1)
    c = field.coeffs.copy()
    c[np.abs(field.grid.mode_numbers) > cutoff] = 0.0
    return Field(field.grid, c)


def dealias_cutoff(n_points: int, product_degree: int) -> int:
    return (2 * (n_points // 2)) // (int(product_degree) + 1)
