"""Time evolution of the rotation-modified gKdV equation

    u_t - beta*u_xxx - gamma*dx^{-1}u + (1/(k+1)) (u^{k+1})_x = 0

on a periodic grid, with the linear part integrated exactly through the
dispersion factor exp(-i*phi*dt) and the nonlinearity advanced by RK4
(integrating-factor RK4).  gamma = 0 reduces to a pure gKdV solver; the
antiderivative multiplier is then never evaluated.

Also provides the short-time fixed-point iteration of the integral
(Duhamel) form of the equation, used as an independent oracle for the
time stepper.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowupError,
    ConfigError,
    ContractionFailureError,
    MeanZeroViolation,
    NonFiniteError,
    SolitonResidualError,
)
from .norms import SpaceTimeField, h_s_norm, x_s_norm
from .spectral import (
    Field,
    Grid,
    MultiplierSpec,
    PhaseSymbol,
    apply_multiplier,
    dealias_cutoff,
    project_zero_mean,
)

log = logging.getLogger("ostrovsky")

MEAN_ZERO_ATOL = 1e-13
BLOWUP_L2_FACTOR = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; beta < 0 and gamma >= 0 are the supported regime."""

    beta: float
    gamma: float
    k: int
    dt: float
    t_end: float
    grid: Grid
    integrator: str = "ifrk4"
    cfl_safety: float = 0.5
    include_nonlinearity: bool = True
    trace_s: float = 2.0

    def __post_init__(self):
        if not self.beta < 0:
            raise ConfigError(f"beta must be negative, got {self.beta}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if int(self.k) != self.k or self.k < 1:
            raise ConfigError(f"k must be an integer >= 1, got {self.k}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.integrator not in ("ifrk4", "split_step"):
            raise ConfigError(f"integrator must be ifrk4 or split_step, got {self.integrator!r}")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.k < 5:
            log.warning("k = %d is below the k >= 5 well-posedness range", self.k)

    @property
    def symbol(self) -> PhaseSymbol:
        return PhaseSymbol(self.beta, self.gamma)

    @property
    def outside_wellposed_range(self) -> bool:
        return self.k < 5

    def replace(self, **kw) -> "SolverConfig":
        return dataclasses.replace(self, **kw)

    def validate_timestep(self, u0: Field):
        """CFL-style guard: dt <= cfl_safety * dx / max(1, max|u0|)^k."""
        umax = float(np.max(np.abs(u0.samples())))
        bound = self.cfl_safety * self.grid.dx / max(1.0, umax) ** self.k
        if self.dt > bound * (1.0 + 1e-12):
            raise ConfigError(
                f"dt = {self.dt:g} exceeds the advection bound {bound:g} "
                f"(dx = {self.grid.dx:g}, max|u0| = {umax:g}, k = {self.k})"
            )


@dataclass
class Trajectory:
    """Snapshots plus conserved-quantity traces along one run."""

    times: np.ndarray
    fields: list
    l2: np.ndarray
    hamiltonian: np.ndarray
    hs: np.ndarray
    xs: np.ndarray
    config: SolverConfig
    n_steps: int = 0

    def final(self) -> Field:
        return self.fields[-1]


def nonlinear_term(u: Field, k: int) -> Field:
    """-(1/(k+1)) d/dx [dealiased u^{k+1}], mean-zero by construction."""
    return Field(u.grid, _nonlinear_coeffs(u.coeffs, u.grid, int(k)))


def _nonlinear_coeffs(coeffs: np.ndarray, grid: Grid, k: int) -> np.ndarray:
    """nonlinear_term on spectra along the last axis of coeffs."""
    n = grid.n_points
    u = np.fft.ifft(coeffs * n).real
    with np.errstate(over="ignore", invalid="ignore"):
        power = u ** (k + 1)
    if not np.all(np.isfinite(power)):
        raise NonFiniteError(f"u^{k + 1} overflowed (max|u| = {np.max(np.abs(u)):g})")
    c = np.fft.fft(power) / n
    cutoff = dealias_cutoff(n, k + 1)
    c[..., np.abs(grid.mode_numbers) > cutoff] = 0.0
    xi = grid.wavenumbers
    out = (-1.0 / (k + 1)) * (1j * xi) * c
    out[..., grid.nyquist_index] = 0.0
    out[..., 0] = 0.0  # the derivative kills the mean; keep it exactly zero
    return out


class _Stepper:
    """Precomputed exponential factors for repeated steps at fixed dt."""

    def __init__(self, cfg: SolverConfig, dt: float | None = None):
        self.cfg = cfg
        self.dt = cfg.dt if dt is None else dt
        self.grid = cfg.grid
        phi = cfg.symbol.table(cfg.grid)
        self.e_half = np.exp(-1j * phi * (self.dt / 2.0))
        self.e_full = self.e_half**2

    def _n(self, c: np.ndarray) -> np.ndarray:
        if not self.cfg.include_nonlinearity:
            return np.zeros_like(c)
        return _nonlinear_coeffs(c, self.grid, self.cfg.k)

    def step_coeffs(self, c: np.ndarray) -> np.ndarray:
        if self.cfg.integrator == "split_step":
            return self._strang(c)
        dt, e, e2 = self.dt, self.e_half, self.e_full
        a = self._n(c)
        b = self._n(e * (c + (dt / 2.0) * a))
        cc = self._n(e * c + (dt / 2.0) * b)
        d = self._n(e2 * c + dt * e * cc)
        return e2 * c + (dt / 6.0) * (e2 * a + 2.0 * e * (b + cc) + d)

    def _strang(self, c: np.ndarray) -> np.ndarray:
        c = self.e_half * c
        mid = c + (self.dt / 2.0) * self._n(c)
        c = c + self.dt * self._n(mid)
        return self.e_half * c


def step(u: Field, cfg: SolverConfig) -> Field:
    """One dt advance; exact linear propagation, O(dt^5) local error in
    the nonlinearity."""
    out = _Stepper(cfg).step_coeffs(u.coeffs)
    if not np.all(np.isfinite(out)):
        raise BlowupError(0, "nonfinite coefficients after a single step")
    return Field(u.grid, out)


def hamiltonian(u: Field, cfg: SolverConfig) -> float:
    """H[u] = int [-(beta/2) u_x^2 - (gamma/2) (dx^{-1}u)^2
              - u^{k+2}/((k+1)(k+2))] dx.

    Verified conserved along trajectories by a finite-difference
    d/dt oracle in the test suite before being trusted here.  Raises
    NonFiniteError when H overflows.
    """
    ux = apply_multiplier(u, MultiplierSpec.derivative(1)).samples()
    us = u.samples()
    k = cfg.k
    with np.errstate(over="ignore", invalid="ignore"):
        density = -(cfg.beta / 2.0) * ux**2 - us ** (k + 2) / ((k + 1) * (k + 2))
        if cfg.gamma != 0.0:
            vi = apply_multiplier(u, MultiplierSpec.derivative(-1)).samples()
            density = density - (cfg.gamma / 2.0) * vi**2
        h = float(np.sum(density) * u.grid.dx)
    if not math.isfinite(h):
        raise NonFiniteError(f"Hamiltonian overflowed (max|u| = {np.max(np.abs(us)):g})")
    return h


def evolve(u0: Field, cfg: SolverConfig, snapshot_every: int) -> Trajectory:
    """March from 0 to t_end recording snapshots and conserved traces.

    Aborts with BlowupError on nonfinite values (overflow in the
    nonlinearity or the Hamiltonian included) or L2 growth beyond 10x the
    initial norm.
    """
    if snapshot_every <= 0:
        raise ConfigError(f"snapshot_every must be positive, got {snapshot_every}")
    # The dispersion symbol is singular at xi = 0 for gamma > 0, so the
    # rotation equation needs mean-zero data.  At gamma = 0 the mean is
    # dynamically inert (phi(0) = 0, nonlinear flux is mean-free) and a
    # constant background is legal input.
    if cfg.gamma > 0 and abs(u0.mean()) > MEAN_ZERO_ATOL * max(1.0, u0.l2_norm()):
        raise MeanZeroViolation(u0.mean(), "evolve requires mean-zero initial data")
    cfg.validate_timestep(u0)

    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    stepper = _Stepper(cfg)
    last_dt = cfg.t_end - (n_steps - 1) * cfg.dt
    partial = None
    if abs(last_dt - cfg.dt) > 1e-12 * cfg.dt:
        partial = _Stepper(cfg, dt=last_dt)

    times, fields, l2s, hams, hss, xss = [], [], [], [], [], []

    def record(i, t, field):
        times.append(t)
        fields.append(field)
        l2s.append(field.l2_norm())
        try:
            hams.append(hamiltonian(field, cfg))
        except NonFiniteError as err:
            raise BlowupError(i, str(err)) from err
        hss.append(h_s_norm(field, cfg.trace_s))
        # the x_s trace is defined on the oscillatory part; projection is
        # a bitwise no-op for the mean-zero data used when gamma > 0
        xss.append(x_s_norm(project_zero_mean(field), cfg.trace_s))

    record(0, 0.0, u0)
    l2_initial = max(l2s[0], 1e-300)
    c = u0.coeffs.copy()
    for i in range(1, n_steps + 1):
        use = stepper if (i < n_steps or partial is None) else partial
        try:
            c = use.step_coeffs(c)
        except NonFiniteError as err:
            raise BlowupError(i, str(err)) from err
        if not np.all(np.isfinite(c)):
            raise BlowupError(i, "nonfinite spectral coefficients")
        t = i * cfg.dt if (i < n_steps or partial is None) else cfg.t_end
        if i % snapshot_every == 0 or i == n_steps:
            field = Field(cfg.grid, c.copy())
            if field.l2_norm() > BLOWUP_L2_FACTOR * l2_initial:
                raise BlowupError(i, f"L2 norm grew beyond {BLOWUP_L2_FACTOR}x initial")
            record(i, t, field)

    return Trajectory(
        times=np.asarray(times),
        fields=fields,
        l2=np.asarray(l2s),
        hamiltonian=np.asarray(hams),
        hs=np.asarray(hss),
        xs=np.asarray(xss),
        config=cfg,
        n_steps=n_steps,
    )


def gaussian_bump(grid: Grid, amplitude: float = 0.5, width: float = 2.0,
                  center: float | None = None) -> Field:
    """Mean-projected Gaussian bump, the standard smooth test datum."""
    x0 = 0.5 * grid.length if center is None else center
    u = amplitude * np.exp(-(((grid.x - x0) / width) ** 2))
    return project_zero_mean(Field.from_samples(grid, u))


def scaled_to_h1(field: Field, target: float) -> Field:
    """Rescale so the H^1 norm equals target exactly."""
    h1 = h_s_norm(field, 1.0)
    if h1 == 0.0:
        raise ConfigError("cannot rescale the zero field")
    return field * (target / h1)


SOLITON_RESIDUAL_GATE = 1e-8


def soliton_traveling_profile(c: float, k: int, beta: float, grid: Grid) -> np.ndarray:
    """Closed-form sech^(2/k) traveling wave of the gamma = 0 equation.

    Q(y) = A sech^(2/k)(B y) with B = (k/2) sqrt(c/|beta|) and
    A = (c (k+1)(k+2) / 2)^(1/k) satisfies beta*Q''' - Q^k Q' + c Q' = 0.
    """
    if not c > 0:
        raise ConfigError(f"wave speed must be positive, got {c}")
    if not beta < 0:
        raise ConfigError(f"beta must be negative, got {beta}")
    amp = (c * (k + 1) * (k + 2) / 2.0) ** (1.0 / k)
    b_scale = 0.5 * k * math.sqrt(c / abs(beta))
    y = grid.x - 0.5 * grid.length
    return amp * (1.0 / np.cosh(b_scale * y)) ** (2.0 / k)


def _band_limit(samples_fine: np.ndarray, grid: Grid, fine: int) -> np.ndarray:
    """Coarse-band truncation of a fine-grid sampling (alias-free
    coefficients; the coarse Nyquist mode is dropped)."""
    n = grid.n_points
    cf = np.fft.fft(samples_fine) / (n * fine)
    cc = np.zeros(n, dtype=complex)
    cc[: n // 2] = cf[: n // 2]
    cc[n // 2 + 1 :] = cf[-(n // 2 - 1) :]
    return cc


def _upsample(coeffs: np.ndarray, fine: int) -> np.ndarray:
    n = coeffs.size
    cf = np.zeros(n * fine, dtype=complex)
    cf[: n // 2] = coeffs[: n // 2]
    cf[-(n // 2 - 1) :] = coeffs[n // 2 + 1 :]
    cf[n // 2] = 0.5 * coeffs[n // 2]
    cf[-n // 2] = 0.5 * np.conj(coeffs[n // 2])
    return np.fft.ifft(cf * n * fine).real


def soliton_residual(field: Field, c: float, k: int, beta: float, fine: int = 4) -> float:
    """||beta Q''' - Q^k Q' + c Q'||_L2 / ||Q||_L2 for a band-limited field.

    Derivatives are exact on the band; the degree-(k+1) product is
    evaluated on a fine grid so its aliasing error stays at the level of
    the profile's spectral tail rather than being folded into the band.
    """
    grid = field.grid
    d1 = apply_multiplier(field, MultiplierSpec.derivative(1))
    d3 = apply_multiplier(field, MultiplierSpec.derivative(3))
    qf = _upsample(field.coeffs, fine)
    q1 = _upsample(d1.coeffs, fine)
    q3 = _upsample(d3.coeffs, fine)
    resid = beta * q3 - qf**k * q1 + c * q1
    denom = max(float(np.sqrt(np.sum(qf**2))), 1e-300)
    return float(np.sqrt(np.sum(resid**2)) / denom)


def soliton_initial_data(c: float, k: int, beta: float, grid: Grid):
    """Residual-verified traveling wave, mean-projected for the solver.

    The profile is constructed as the coarse-band truncation of a
    4x-oversampled ansatz, so its spectral coefficients are alias-free.
    Returns (field, info): info records the residual of the unprojected
    ansatz and the mean the projection removed; callers running the
    gamma = 0 equation (where the mean is dynamically inert) can add the
    defect back to recover the translating profile exactly.
    Raises SolitonResidualError when the ansatz fails its defining
    check (wrong constants, or a grid too coarse for the profile).
    """
    fine = 4
    fine_grid = Grid(grid.n_points * fine, grid.length)
    q_fine = soliton_traveling_profile(c, k, beta, fine_grid)
    raw = Field(grid, _band_limit(q_fine, grid, fine))
    residual = soliton_residual(raw, c, k, beta, fine)
    if residual >= SOLITON_RESIDUAL_GATE:
        raise SolitonResidualError(residual, SOLITON_RESIDUAL_GATE)
    projected = project_zero_mean(raw)
    info = {"residual": residual, "projection_defect": raw.mean()}
    return projected, info


def picard_iterate(u0: Field, cfg: SolverConfig, delta: float, n_iters: int):
    """Fixed-point iteration of the integral form of the equation.

    v^0(t) = U(t) u0,
    v^{m+1}(t) = U(t) u0 - (1/(k+1)) int_0^t U(t-t') dx[(v^m)^{k+1}](t') dt',

    with the time integral evaluated by composite trapezoid on the step
    lattice t_l = l*dt over [0, delta] and the propagator factors exact.
    The smooth time cutoff of the integral formulation is identically 1
    on [0, delta] and therefore drops out.

    Returns (SpaceTimeField over the lattice, successive sup-in-time L2
    differences).  Convergence is declared when the latest difference
    falls below 1e-10 relative to ||u0||; three consecutive
    non-contracting ratios raise ContractionFailureError.
    """
    if not delta > 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if n_iters < 1:
        raise ConfigError("need at least one iteration")
    n_lat = int(round(delta / cfg.dt))
    if n_lat < 2 or abs(n_lat * cfg.dt - delta) > 1e-9 * delta:
        raise ConfigError(
            f"dt = {cfg.dt:g} does not evenly divide delta = {delta:g}"
        )
    grid = cfg.grid
    n = grid.n_points
    phi = cfg.symbol.table(grid)
    t_lat = np.arange(n_lat + 1) * cfg.dt
    # forward[l] = e^{-i t_l phi} (propagator), backward[l] its inverse
    forward = np.exp(-1j * t_lat[:, None] * phi[None, :])
    backward = np.conj(forward)

    u0_l2 = max(u0.l2_norm(), 1e-300)
    v = forward * u0.coeffs[None, :]  # free evolution, iterate 0

    def gamma_map(v_cur: np.ndarray) -> np.ndarray:
        f = _nonlinear_coeffs(v_cur, grid, cfg.k)
        # I(t_l) = U(t_l) * trapezoid_j<=l [ U(-t_j) f_j ], exact factors
        g = backward * f
        prefix = np.zeros_like(g)
        if n_lat >= 1:
            increments = 0.5 * cfg.dt * (g[1:] + g[:-1])
            prefix[1:] = np.cumsum(increments, axis=0)
        integral = forward * prefix
        # nonlinear_term already carries the -(1/(k+1)) d/dx factors
        return forward * u0.coeffs[None, :] + integral

    diffs, ratios, bad_run = [], [], 0
    for _ in range(n_iters):
        v_next = gamma_map(v)
        diff = float(
            np.max(np.sqrt(grid.length * np.sum(np.abs(v_next - v) ** 2, axis=1)))
        )
        diffs.append(diff)
        v = v_next
        if len(diffs) >= 2 and diffs[-2] > 0:
            r = diffs[-1] / diffs[-2]
            ratios.append(r)
            bad_run = bad_run + 1 if r >= 1.0 else 0
            if bad_run >= 3:
                raise ContractionFailureError(ratios)
        if diff < 1e-10 * u0_l2:
            break

    values = np.fft.ifft(v * n, axis=1).real
    stf = SpaceTimeField(grid, (n_lat + 1) * cfg.dt, values)
    return stf, diffs
