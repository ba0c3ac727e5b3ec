"""Periodic spectral representation and Fourier-multiplier operators.

Fields live on a uniform periodic grid over [0, L).  Spectral coefficients
follow the convention

    c_j = (1/n) * sum_m u(x_m) exp(-i xi_j x_m),   xi_j = 2*pi*j/L,

with mode numbers j = -n/2+1, ..., n/2.  The Nyquist mode is housed at
+n/2 and is zeroed by every odd-symmetric multiplier (odd-order
derivatives) so that no unpaired phantom mode survives; the propagator
keeps it, using the phase evaluated at +xi_{n/2}.

Fields are real, so c_{-j} = conj(c_j) and the non-negative modes
0, ..., n/2 (the half spectrum, what rfft returns) determine a field.
analyze and synthesize are the package's one real transform pair:
analyze takes real samples to their half spectrum with the 1/n above,
synthesize takes a half spectrum back to samples.  A Field carries the
full spectrum, which only hermitian_extension builds from a half one, so
coefficients from samples (Field.from_samples) are exactly
conjugate-symmetric; the solver's internal state is the half spectrum.
Samples are synthesized from the half spectrum alone (Field.samples
calls synthesize): irfft reads only the real part of the DC and Nyquist
bins, as the real part of the complex inverse FFT does, so a propagated
Nyquist coefficient, complex after e^{-i phi t}, contributes
Re(c_{n/2}) (-1)^m to sample m.  fft_mode_numbers builds the FFT mode
order, and angular_frequencies the frequencies 2*pi*j/period of Grid's
wavenumbers and of a time window.  Slot mapping, resampling and the
normalised complex DFT live here too.

The dispersion symbol phi(xi) = beta*xi**3 + gamma/xi is singular at
xi = 0.  All evolved fields are kept mean-zero, and phi(0) := 0 by
convention so the zero mode never participates.  PhaseSymbol builds the
free evolution e^{-i t phi} and the modulation weight 1 + |tau + phi|.
"""

from __future__ import annotations

import dataclasses
import functools
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
        object.__setattr__(self, "mode_numbers", fft_mode_numbers(n))
        object.__setattr__(self, "x", np.arange(n) * (length / n))
        object.__setattr__(self, "wavenumbers", angular_frequencies(n, length))

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
        return cls(grid, hermitian_extension(analyze(samples)), samples.copy())

    @classmethod
    def from_coeffs(cls, grid: Grid, coeffs) -> "Field":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n_points,):
            raise ConfigError("coefficient array does not match grid size")
        return cls(grid, coeffs)

    @classmethod
    def from_half_spectrum(cls, grid: Grid, half: np.ndarray) -> "Field":
        """The field whose modes 0..n/2 are half: the Hermitian extension
        as its spectrum, its samples synthesized once and cached."""
        return cls(grid, hermitian_extension(half), synthesize(half))

    def samples(self) -> np.ndarray:
        """Real samples, synthesized from the non-negative modes."""
        if self.cached_samples is not None:
            return self.cached_samples
        return synthesize(half_spectrum(self.coeffs))

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


def fft_mode_numbers(n: int) -> np.ndarray:
    """Signed mode numbers 0, 1, ..., -1 of the n DFT bins in FFT order,
    the Nyquist bin of an even n housed at +n/2."""
    j = np.arange(n)
    j[j > n // 2] -= n
    return j


def angular_frequencies(n: int, period: float) -> np.ndarray:
    """2*pi*j/period for the mode numbers j of the n DFT bins in FFT order."""
    return 2.0 * np.pi * fft_mode_numbers(n) / period


def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Modes 0..n/2 of the spectra along the last axis (a view)."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def hermitian_extension(half: np.ndarray) -> np.ndarray:
    """Full spectra along the last axis from their modes 0..n/2: mode -j
    is the conjugate of mode j for 0 < j < n/2, exactly."""
    return np.concatenate([half, np.conj(half[..., -2:0:-1])], axis=-1)


def analyze(samples: np.ndarray) -> np.ndarray:
    """Modes 0..n/2 of the real samples along the last axis,
    c_j = (1/n) sum_m u(x_m) e^{-i xi_j x_m}; synthesize inverts it."""
    return np.fft.rfft(samples, axis=-1, norm="forward")


def synthesize(half: np.ndarray) -> np.ndarray:
    """Real samples u(x_m) = sum_j c_j e^{i xi_j x_m} of the spectra whose
    modes 0..n/2 are half, along the last axis (n even)."""
    return np.fft.irfft(half, axis=-1, norm="forward")


def mode_slots(j, n: int):
    """FFT-order slots of signed modes j, and whether n points house each."""
    return j % n, (j > -(n // 2)) & (j <= n // 2)


def mirror_slot(j, n: int):
    """FFT-order slots of the modes -j, in a real field the conjugates of modes j."""
    return (-j) % n


def scatter_modes(values: np.ndarray, modes: np.ndarray, n: int) -> np.ndarray:
    """Half spectra of n-point fields: values (last axis) at modes, zero elsewhere."""
    half = np.zeros(values.shape[:-1] + (n // 2 + 1,), dtype=complex)
    half[..., modes] = values
    return half


def parseval_weights(n: int) -> np.ndarray:
    """Weights 1, 2, ..., 2, 1 of |c_j|^2, j = 0..n/2, in Parseval's sum."""
    return np.concatenate([[1.0], np.full(n // 2 - 1, 2.0), [1.0]])


def dft(values: np.ndarray, axes: tuple) -> np.ndarray:
    """Complex coefficients (1/N) sum_m v_m e^{-2 pi i l.m/N} over axes, N points:
    fft, then / N (norm="forward" rounds differently unless N is a power of 2)."""
    return np.fft.fftn(values, axes=axes) / math.prod(values.shape[a] for a in axes)


def band_limit(samples_fine: np.ndarray, grid: Grid) -> np.ndarray:
    """Full spectrum on grid of a finer sampling: alias-free, the Nyquist mode dropped."""
    half = analyze(samples_fine)[: grid.nyquist_index + 1]
    half[-1] = 0.0
    return hermitian_extension(half)


def upsample(coeffs: np.ndarray, factor: int) -> np.ndarray:
    """Samples on the factor times finer grid of the field with spectrum
    coeffs, the coarse Nyquist mode split evenly between fine modes +-n/2."""
    n = coeffs.size
    half = np.zeros(n * factor // 2 + 1, dtype=complex)
    half[: n // 2 + 1] = half_spectrum(coeffs)
    half[n // 2] *= 0.5
    return synthesize(half)


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

    def propagator(self, t, xi):
        """exp(-i t phi(xi)), one row per entry of t; a scalar t gives xi's shape."""
        return np.exp(-1j * np.multiply.outer(t, self(xi)))

    def modulation(self, tau, xi):
        """1 + |tau + phi(xi)|, one row per entry of tau."""
        return 1.0 + np.abs(np.add.outer(tau, self(xi)))

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
    high_pass(N).  The propagator is PhaseSymbol.propagator.
    """

    kind: str
    order: int = 0
    alpha: float = 0.0
    cutoff: float = 0.0

    KINDS = ("derivative", "fractional_d", "low_pass", "high_pass")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown multiplier kind {self.kind!r}; expected one of {self.KINDS}")

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


def require_mean_zero(coeffs: np.ndarray, what: str):
    """Raise MeanZeroViolation unless every spectrum along the last axis
    has |c_0| <= MEAN_ZERO_RTOL times the largest spectrum's l2 norm."""
    c0 = np.abs(coeffs[..., 0])
    scale = math.sqrt(float(np.max(np.sum(np.abs(coeffs) ** 2, axis=-1))))
    if np.max(c0) > MEAN_ZERO_RTOL * max(scale, 1e-300):
        worst = coeffs[..., 0].flat[np.argmax(c0)]
        raise MeanZeroViolation(complex(worst), f"{what} requires mean-zero input")


@functools.lru_cache(maxsize=64)
def multiplier_table(grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """The per-mode multiplier m(xi_j) for one operator.  Read-only: one
    table serves every call on equal grids and specs."""
    xi = grid.wavenumbers
    if spec.kind == "derivative":
        m = np.zeros(grid.n_points, dtype=complex)
        nz = xi != 0.0
        m[nz] = (1j * xi[nz]) ** spec.order
        if spec.order % 2 != 0:
            m[grid.nyquist_index] = 0.0  # odd symmetry: the unpaired Nyquist mode is dropped
    elif spec.kind == "fractional_d":
        m = np.zeros(grid.n_points)
        nz = xi != 0.0
        m[nz] = np.abs(xi[nz]) ** spec.alpha
    elif spec.kind == "low_pass":
        m = (np.abs(xi) < spec.cutoff).astype(float)
    else:  # high_pass, the last of MultiplierSpec.KINDS
        m = (np.abs(xi) >= spec.cutoff).astype(float)
    m.flags.writeable = False
    return m


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
    c = field.coeffs.copy()
    c[np.abs(field.grid.mode_numbers) > dealias_cutoff(field.grid.n_points, p)] = 0.0
    return Field(field.grid, c)


def dealias_cutoff(n_points: int, product_degree: int) -> int:
    return (2 * (n_points // 2)) // (int(product_degree) + 1)
