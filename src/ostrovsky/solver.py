"""Time evolution of the rotation-modified gKdV equation

    u_t - beta*u_xxx - gamma*dx^{-1}u + (1/(k+1)) (u^{k+1})_x = 0

on a periodic grid, with the linear part integrated exactly through the
dispersion factor exp(-i*phi*dt) and the nonlinearity advanced by RK4
(integrating-factor RK4).  gamma = 0 reduces to a pure gKdV solver; the
antiderivative multiplier is then never evaluated.

Also provides the short-time fixed-point iteration of the integral
(Duhamel) form of the equation, used as an independent oracle for the
time stepper.  It holds the propagator table and one iterate over the
time lattice and applies each map to the iterate in place, PICARD_BLOCK
rows at a time, so its working set is three lattice arrays (with the
returned samples) plus one block, whatever the lattice's length.

The stepper and the fixed-point lattice hold half spectra: the modes
0..n/2 of a real field (see spectral), what rfft returns, so every
transform is a real one at about half the complex cost.  The Nyquist
mode is kept at +n/2 and propagated with the phase at +xi_{n/2}; the
nonlinear flux is zero there (past the dealias cutoff) and at the DC
mode.  Public functions take and return Fields with full spectra;
evolve's snapshots are the exact Hermitian extensions of the state.

A run steps on one lattice, t_i = i*dt up to t_end = n_steps*dt, under
the rule (lattice_steps) the fixed-point lattice applies to delta too;
no span takes more than MAX_STEPS steps.  check_initial_data is the one
t = 0 check, evolve's and its callers'.

Runs differing only in gamma step as the rows of one stacked state, each
bit-identical to its run alone.  numpy's SIMD complex multiply is not
bit-symmetric, so e * t in place is np.multiply(e, t, out=t), not t *= e,
and never e * (a temporary): from 256 KiB numpy reuses a temporary operand
as the output and may swap the operands.
"""

from __future__ import annotations

import dataclasses
import functools
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
    analyze,
    apply_multiplier,
    band_limit,
    dealias_cutoff,
    half_spectrum,
    hermitian_extension,
    multiplier_table,
    parseval_weights,
    project_zero_mean,
    synthesize,
    upsample,
)

log = logging.getLogger("ostrovsky")

MEAN_ZERO_ATOL = 1e-13
BLOWUP_L2_FACTOR = 10.0
PICARD_TOLERANCE = 1e-10  # picard_iterate converges below this times ||u0||
CFL_SAFETY = 0.5  # the share of dx / max(1, max|u|)^k that a step may take
PICARD_BLOCK = 64  # lattice rows per block of a Picard map; no value depends on it
# the most steps of dt a t_end, delta or invariants horizon may span: 100 times
# the longest run a shipped config, test or labbench leg takes (10,000 steps)
MAX_STEPS = 10**6


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
    include_nonlinearity: bool = True
    trace_s: float = 2.0
    n_steps: int = dataclasses.field(init=False)  # steps of dt from 0 to t_end

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
        object.__setattr__(self, "n_steps", lattice_steps(self.t_end, self.dt, "t_end"))
        if self.integrator not in ("ifrk4", "split_step"):
            raise ConfigError(f"integrator must be ifrk4 or split_step, got {self.integrator!r}")
        if self.k < 5:
            log.warning("k = %d is below the k >= 5 well-posedness range", self.k)

    @property
    def symbol(self) -> PhaseSymbol:
        return PhaseSymbol(self.beta, self.gamma)

    def replace(self, **kw) -> "SolverConfig":
        return dataclasses.replace(self, **kw)

    def timestep_bound(self, u: Field) -> float:
        """Largest dt the CFL-style guard admits for data u:
        CFL_SAFETY * dx / max(1, max|u|)^k, or 0.0 when max|u|^k overflows."""
        umax = float(np.max(np.abs(u.samples())))
        try:
            return CFL_SAFETY * self.grid.dx / max(1.0, umax) ** self.k
        except OverflowError:
            return 0.0

    def _timestep_breach(self, u: Field, name: str) -> str:
        """Why dt exceeds timestep_bound(u) beyond 1e-12 relative slack,
        or "" when it does not; name labels u in the message."""
        bound = self.timestep_bound(u)
        if self.dt <= bound * (1.0 + 1e-12):
            return ""
        umax = float(np.max(np.abs(u.samples())))
        return (f"dt = {self.dt:g} exceeds the advection bound {bound:g} "
                f"(dx = {self.grid.dx:g}, max|{name}| = {umax:g}, k = {self.k})")


def step_ratio(span: float, dt: float, name: str) -> float:
    """span / dt, ConfigError unless finite and at most MAX_STEPS."""
    steps = span / dt
    if not math.isfinite(steps):
        raise ConfigError(f"{name} = {span:g} is not a finite number of steps of dt = {dt:g}")
    if steps > MAX_STEPS:
        raise ConfigError(f"{name} = {span:g} is {steps:.7g} steps of dt = {dt:g}, "
                          f"more than MAX_STEPS = {MAX_STEPS}")
    return steps


def lattice_steps(span: float, dt: float, name: str) -> int:
    """n = round(span / dt) for positive span and dt, ConfigError unless
    finite with n*dt within 1e-9*span of span (so n >= 1)."""
    n = round(step_ratio(span, dt, name))
    if abs(n * dt - span) > 1e-9 * span:
        raise ConfigError(f"dt = {dt:g} does not evenly divide {name} = {span:g}")
    return n


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
    nonlinear_evaluations: int = 0

    def final(self) -> Field:
        return self.fields[-1]


def nonlinear_term(u: Field, k: int) -> Field:
    """-(1/(k+1)) d/dx [dealiased u^{k+1}], mean-zero by construction."""
    k = int(k)
    with np.errstate(over="ignore", invalid="ignore"):
        half = _nonlinear_coeffs(half_spectrum(u.coeffs), k, _flux_table(u.grid, k))
    return Field(u.grid, hermitian_extension(half))


def _int_power(u: np.ndarray, p: int) -> np.ndarray:
    """u**p for an integer p >= 1 by binary powering (u^6 = u^2 * u^4).

    np.power sends an exponent like 6 through libm pow, an order of
    magnitude slower than these products, which differ from it only in
    the last bits.  Works in place in at most two new arrays, the result
    included, and never writes u.  Overflow gives inf, as u**p does.
    """
    result, square = None, u
    while True:
        if p & 1:
            if result is None:
                result = square
            else:
                result = np.multiply(result, square, out=None if result is u else result)
        p >>= 1
        if not p:
            return result.copy() if result is u else result
        # neither u nor a square the result still aliases may be overwritten
        fresh = square is u or square is result
        square = np.multiply(square, square, out=None if fresh else square)


@functools.lru_cache(maxsize=64)
def _flux_table(grid: Grid, k: int) -> np.ndarray:
    """-(1/(k+1)) i*xi on the modes 0..n/2, zero past the dealias cutoff
    of the degree-(k+1) product (which lies below the Nyquist mode) and at
    mode 0 (the derivative kills the mean; keep it exactly zero).
    Read-only: one table serves every call on equal grids."""
    table = half_spectrum((-1.0 / (k + 1)) * (1j * grid.wavenumbers)).copy()
    table[half_spectrum(grid.mode_numbers) > dealias_cutoff(grid.n_points, k + 1)] = 0.0
    table[0] = 0.0
    table.flags.writeable = False
    return table


def _nonlinear_coeffs(half: np.ndarray, k: int, flux: np.ndarray) -> np.ndarray:
    """nonlinear_term on half spectra along the last axis, with flux the
    grid's _flux_table for k; callers hold np.errstate(over="ignore")."""
    u = synthesize(half)
    power = _int_power(u, k + 1)
    if not np.isfinite(power).all():
        raise NonFiniteError(f"u^{k + 1} overflowed (max|u| = {np.max(np.abs(u)):g})")
    out = analyze(power)
    out *= flux
    return out


class _Stepper:
    """Exponential factors (a row per config) and flux table for repeated
    steps of stacked half spectra at fixed dt; evaluations counts per row."""

    def __init__(self, cfgs: list):
        cfg = self.cfg = cfgs[0]
        self.dt = cfg.dt
        xi = half_spectrum(cfg.grid.wavenumbers)
        self.e_half = np.array([c.symbol.propagator(self.dt / 2.0, xi) for c in cfgs])
        self.e_full = self.e_half**2
        self.dt_e, self.two_e = self.dt * self.e_half, 2.0 * self.e_half
        self.flux = _flux_table(cfg.grid, cfg.k) if cfg.include_nonlinearity else None
        self.evaluations = 0

    def _n(self, c: np.ndarray) -> np.ndarray:
        if self.flux is None:
            return np.zeros_like(c)
        self.evaluations += 1
        return _nonlinear_coeffs(c, self.cfg.k, self.flux)

    def step_coeffs(self, c: np.ndarray) -> np.ndarray:
        if self.cfg.integrator == "split_step":
            return self._strang(c)
        h, e, e2 = self.dt / 2.0, self.e_half, self.e_full
        a = self._n(c)
        t = c + h * a
        b = self._n(np.multiply(e, t, out=t))
        cc = self._n(e * c + h * b)
        e2c = e2 * c
        d = self._n(e2c + self.dt_e * cc)
        # e2c + (dt/6)*(e2*a + 2e*(b + cc) + d), in place, operands in order
        b += cc
        np.multiply(e2, a, out=a)
        a += np.multiply(self.two_e, b, out=b)
        a += d
        e2c += np.multiply(self.dt / 6.0, a, out=a)
        return e2c

    def _strang(self, c: np.ndarray) -> np.ndarray:
        c = self.e_half * c
        mid = c + (self.dt / 2.0) * self._n(c)
        c = c + self.dt * self._n(mid)
        return self.e_half * c


def step(u: Field, cfg: SolverConfig) -> Field:
    """One dt advance; exact linear propagation, O(dt^5) local error in
    the nonlinearity."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _Stepper([cfg]).step_coeffs(half_spectrum(u.coeffs)[None, :])[0]
    if not np.isfinite(out).all():
        raise BlowupError(0, "nonfinite coefficients after a single step")
    return Field(u.grid, hermitian_extension(out))


def hamiltonian(u: Field, cfg: SolverConfig) -> float:
    """H[u] = int [-(beta/2) u_x^2 - (gamma/2) (dx^{-1}u)^2
              - u^{k+2}/((k+1)(k+2))] dx.

    Verified conserved along trajectories by a finite-difference
    d/dt oracle in the test suite before being trusted here.  u must be
    mean-zero when gamma > 0, unchecked: evolve checks u0 and conserves
    mode 0.  Raises NonFiniteError when H overflows.
    """
    ux = apply_multiplier(u, MultiplierSpec.derivative(1)).samples()
    us = u.samples()
    k = cfg.k
    with np.errstate(over="ignore", invalid="ignore"):
        density = -(cfg.beta / 2.0) * ux**2 - _int_power(us, k + 2) / ((k + 1) * (k + 2))
        if cfg.gamma != 0.0:
            inverse = u.coeffs * multiplier_table(u.grid, MultiplierSpec.derivative(-1))
            vi = synthesize(half_spectrum(inverse))
            density = density - (cfg.gamma / 2.0) * vi**2
        h = float(np.sum(density) * u.grid.dx)
    if not math.isfinite(h):
        raise NonFiniteError(f"Hamiltonian overflowed (max|u| = {np.max(np.abs(us)):g})")
    return h


def check_initial_data(u0: Field, cfg: SolverConfig):
    """The t = 0 check evolve applies to each config: ConfigError for a
    phase symbol phi that is not finite on u0's grid, non-finite samples, a
    CFL bound whose max(1, max|u0|)^k overflows, an
    overflowing Hamiltonian, an L2, H^s or X^s trace norm at cfg.trace_s that
    is not finite, a nonzero mean where gamma > 0 (MeanZeroViolation: phi is
    singular at xi = 0 there) or a dt above timestep_bound(u0)."""
    with np.errstate(all="ignore"):
        if not np.isfinite(cfg.symbol.table(u0.grid)).all():
            raise ConfigError(f"phi is not finite on the grid (n = {u0.grid.n_points}, "
                              f"L = {u0.grid.length:g}) at beta = {cfg.beta:g}, "
                              f"gamma = {cfg.gamma:g}")
        samples = u0.samples()
        if not np.isfinite(samples).all():
            raise ConfigError("initial data has non-finite samples")
        if cfg.timestep_bound(u0) == 0.0:
            raise ConfigError(f"max|u0|^k overflows the CFL bound (max|u0| = "
                              f"{np.max(np.abs(samples)):g}, k = {cfg.k})")
        try:
            hamiltonian(u0, cfg)
        except NonFiniteError as err:
            raise ConfigError(f"initial data: {err}") from None
        # the norms evolve traces at t = 0
        norms = {"L2": u0.l2_norm(), "H^s": h_s_norm(u0, cfg.trace_s),
                 "X^s": x_s_norm(project_zero_mean(u0), cfg.trace_s)}
    for name, value in norms.items():
        if not math.isfinite(value):
            raise ConfigError(f"initial data: its {name} norm is not finite "
                              f"(trace_s = {cfg.trace_s:g})")
    if cfg.gamma > 0 and abs(u0.mean()) > MEAN_ZERO_ATOL * max(1.0, u0.l2_norm()):
        raise MeanZeroViolation(u0.mean(), f"evolve requires mean-zero initial data when "
                                f"gamma > 0 (mean = {u0.mean():.3g})")
    breach = cfg._timestep_breach(u0, "u0")
    if breach:
        raise ConfigError(breach)


def require_snapshot_every(snapshot_every: int):
    """ConfigError unless evolve gets a positive snapshot cadence."""
    if snapshot_every <= 0:
        raise ConfigError(f"snapshot_every must be positive, got {snapshot_every}")


def evolve(u0: Field, cfg: SolverConfig, snapshot_every: int) -> Trajectory:
    """March cfg.n_steps steps of dt to t_end, recording conserved traces
    and a snapshot at every snapshot_every-th step and the last.

    Raises ConfigError for data check_initial_data refuses.  Aborts with
    BlowupError on nonfinite values (overflow in the nonlinearity or the
    Hamiltonian included), L2 growth beyond 10x the initial norm, or a
    snapshot whose max|u| puts dt above timestep_bound.
    """
    return _evolve_rows(u0, [cfg], snapshot_every)[0]


def _evolve_rows(u0: Field, cfgs: list, snapshot_every: int) -> list:
    """[evolve(u0, cfg, snapshot_every) for cfg in cfgs], the configs differing
    only in gamma, stepped as the rows of one stacked half spectrum, each row
    bit-identical to its own run; raises the first BlowupError of any row."""
    require_snapshot_every(snapshot_every)
    for cfg in cfgs:  # then cfg holds every field the rows share
        check_initial_data(u0, cfg)

    stepper, n_steps = _Stepper(cfgs), cfg.n_steps
    runs = [Trajectory([], [], [], [], [], [], row_cfg, n_steps) for row_cfg in cfgs]

    def record(i, run, field):
        run.times.append(i * run.config.dt)
        run.fields.append(field)
        run.l2.append(field.l2_norm())
        try:
            run.hamiltonian.append(hamiltonian(field, run.config))
        except NonFiniteError as err:
            raise BlowupError(i, str(err)) from err
        run.hs.append(h_s_norm(field, run.config.trace_s))
        # the x_s trace is defined on the oscillatory part; projection is
        # a bitwise no-op for the mean-zero data used when gamma > 0
        run.xs.append(x_s_norm(project_zero_mean(field), run.config.trace_s))

    for run in runs:
        record(0, run, u0)
    l2_initial = max(runs[0].l2[0], 1e-300)
    c = np.repeat(half_spectrum(u0.coeffs)[None, :], len(cfgs), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            try:
                c = stepper.step_coeffs(c)
            except NonFiniteError as err:
                raise BlowupError(i, str(err)) from err
            if not np.isfinite(c).all():
                raise BlowupError(i, "nonfinite spectral coefficients")
            if i % snapshot_every == 0 or i == n_steps:
                for run, half in zip(runs, c):
                    # samples synthesized once for the CFL check, the
                    # Hamiltonian and the snapshot writer alike
                    field = Field.from_half_spectrum(cfg.grid, half)
                    if field.l2_norm() > BLOWUP_L2_FACTOR * l2_initial:
                        raise BlowupError(i, f"L2 norm grew beyond {BLOWUP_L2_FACTOR}x initial")
                    breach = run.config._timestep_breach(field, "u")
                    if breach:
                        raise BlowupError(i, breach)
                    record(i, run, field)

    for run in runs:
        for name in ("times", "l2", "hamiltonian", "hs", "xs"):
            setattr(run, name, np.asarray(getattr(run, name)))
        run.nonlinear_evaluations = stepper.evaluations
    return runs


def gaussian_bump(grid: Grid, amplitude: float = 0.5, width: float = 2.0) -> Field:
    """Mean-projected Gaussian bump centred in the box, the standard smooth
    test datum; ConfigError unless width > 0."""
    if not width > 0:
        raise ConfigError(f"width must be positive, got {width}")
    u = amplitude * np.exp(-(((grid.x - 0.5 * grid.length) / width) ** 2))
    return project_zero_mean(Field.from_samples(grid, u))


def scaled_to_h1(field: Field, target: float) -> Field:
    """Rescale so the H^1 norm equals target exactly."""
    h1 = h_s_norm(field, 1.0)
    if h1 == 0.0:
        raise ConfigError("cannot rescale the zero field")
    return field * (target / h1)


SOLITON_RESIDUAL_GATE = 1e-8
SOLITON_OVERSAMPLING = 4  # fine-grid factor of the soliton ansatz and its residual


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


def soliton_residual(field: Field, c: float, k: int, beta: float) -> float:
    """||beta Q''' - Q^k Q' + c Q'||_L2 / ||Q||_L2 for a band-limited field.

    Derivatives are exact on the band; the degree-(k+1) product is
    evaluated on a fine grid so its aliasing error stays at the level of
    the profile's spectral tail rather than being folded into the band.
    """
    d1 = apply_multiplier(field, MultiplierSpec.derivative(1))
    d3 = apply_multiplier(field, MultiplierSpec.derivative(3))
    qf = upsample(field.coeffs, SOLITON_OVERSAMPLING)
    q1 = upsample(d1.coeffs, SOLITON_OVERSAMPLING)
    q3 = upsample(d3.coeffs, SOLITON_OVERSAMPLING)
    resid = beta * q3 - qf**k * q1 + c * q1
    denom = max(float(np.sqrt(np.sum(qf**2))), 1e-300)
    return float(np.sqrt(np.sum(resid**2)) / denom)


def soliton_initial_data(c: float, k: int, beta: float, grid: Grid):
    """Residual-verified traveling wave, mean-projected for the solver.

    The profile is the coarse-band truncation of an ansatz oversampled
    SOLITON_OVERSAMPLING times, so its spectral coefficients are alias-free.
    Returns (field, info): info records the residual of the unprojected
    ansatz and the mean the projection removed; callers running the
    gamma = 0 equation (where the mean is dynamically inert) can add the
    defect back to recover the translating profile exactly.
    Raises SolitonResidualError when the ansatz fails its defining
    check (wrong constants, or a grid too coarse for the profile).
    """
    fine_grid = Grid(grid.n_points * SOLITON_OVERSAMPLING, grid.length)
    q_fine = soliton_traveling_profile(c, k, beta, fine_grid)
    raw = Field(grid, band_limit(q_fine, grid))
    residual = soliton_residual(raw, c, k, beta)
    if residual >= SOLITON_RESIDUAL_GATE:
        raise SolitonResidualError(residual, SOLITON_RESIDUAL_GATE)
    projected = project_zero_mean(raw)
    info = {"residual": residual, "projection_defect": raw.mean()}
    return projected, info


def picard_lattice(cfg: SolverConfig, delta: float, n_iters: int) -> int:
    """Number of dt steps spanning [0, delta] for picard_iterate; ConfigError
    unless delta > 0, n_iters >= 1 and dt divides delta into at least two."""
    if not delta > 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if n_iters < 1:
        raise ConfigError("need at least one iteration")
    if round(step_ratio(delta, cfg.dt, "delta")) < 2:
        raise ConfigError(f"delta = {delta:g} spans fewer than two steps of dt = {cfg.dt:g}")
    return lattice_steps(delta, cfg.dt, "delta")


def picard_iterate(u0: Field, cfg: SolverConfig, delta: float, n_iters: int):
    """Fixed-point iteration of the integral form of the equation.

    v^0(t) = U(t) u0,
    v^{m+1}(t) = U(t) u0 - (1/(k+1)) int_0^t U(t-t') dx[(v^m)^{k+1}](t') dt',

    with the time integral evaluated by composite trapezoid on the step
    lattice t_l = l*dt over [0, delta] and the propagator factors exact.
    The smooth time cutoff of the integral formulation is identically 1
    on [0, delta] and therefore drops out.

    Each map overwrites the one iterate in place, PICARD_BLOCK lattice
    rows at a time: row l of v^{m+1} reads v^m only at rows <= l, through
    the running trapezoid sum, so a block needs only the last flux row
    and prefix of the block before it, and takes its rows' differences
    before it overwrites them.  The working set is the propagator table,
    the iterate and the returned samples, plus one block; every number
    equals that of the map over the whole lattice at once, bit for bit.

    Returns (SpaceTimeField over the lattice, successive sup-in-time L2
    differences).  Convergence is declared when the latest difference
    falls below PICARD_TOLERANCE relative to ||u0||; three consecutive
    non-contracting ratios raise ContractionFailureError.
    """
    n_lat = picard_lattice(cfg, delta, n_iters)
    grid = cfg.grid
    t_lat = np.arange(n_lat + 1) * cfg.dt
    # forward[l] = e^{-i t_l phi} (propagator) on the half spectrum, as the
    # whole lattice is
    forward = cfg.symbol.propagator(t_lat, half_spectrum(grid.wavenumbers))
    flux = _flux_table(grid, cfg.k)
    c0 = half_spectrum(u0.coeffs)
    weights = parseval_weights(grid.n_points)
    h = 0.5 * cfg.dt

    u0_l2 = max(u0.l2_norm(), 1e-300)
    v = forward * c0[None, :]  # free evolution, iterate 0

    def gamma_map_in_place() -> float:
        """v <- Gamma(v); returns the sup over rows of ||Gamma(v) - v||_L2."""
        diff, g_last, prefix_last = 0.0, None, None
        for start in range(0, n_lat + 1, PICARD_BLOCK):
            rows = slice(start, min(start + PICARD_BLOCK, n_lat + 1))
            # I(t_l) = U(t_l) * trapezoid_j<=l [ U(-t_j) f_j ], exact factors
            f = _nonlinear_coeffs(v[rows], cfg.k, flux)
            g = np.conj(forward[rows]) * f  # in this order: not bit-symmetric
            # prefix[l] = prefix[l-1] + h*(g[l] + g[l-1]), the sequential sum
            # np.cumsum forms over the lattice: the first increment starts it
            prefix = np.empty_like(g)
            prefix[1:] = h * (g[1:] + g[:-1])
            if g_last is None:
                prefix[0] = 0.0
                np.cumsum(prefix[1:], axis=0, out=prefix[1:])
            else:
                prefix[0] = prefix_last + h * (g[0] + g_last)
                np.cumsum(prefix, axis=0, out=prefix)
            g_last, prefix_last = g[-1], prefix[-1]
            # nonlinear_term already carries the -(1/(k+1)) d/dx factors
            nxt = forward[rows] * c0[None, :] + forward[rows] * prefix
            row_diffs = np.sqrt(grid.length * np.sum(weights * np.abs(nxt - v[rows]) ** 2, axis=1))
            diff = max(diff, float(np.max(row_diffs)))
            v[rows] = nxt
        return diff

    diffs, ratios, bad_run = [], [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_iters):
            diff = gamma_map_in_place()
            diffs.append(diff)
            if len(diffs) >= 2 and diffs[-2] > 0:
                r = diffs[-1] / diffs[-2]
                ratios.append(r)
                bad_run = bad_run + 1 if r >= 1.0 else 0
                if bad_run >= 3:
                    raise ContractionFailureError(ratios)
            if diff < PICARD_TOLERANCE * u0_l2:
                break

    values = synthesize(v)
    stf = SpaceTimeField(grid, (n_lat + 1) * cfg.dt, values)
    return stf, diffs
