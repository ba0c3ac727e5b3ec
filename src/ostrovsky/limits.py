"""Quantitative weak-rotation limit: the rotation-modified solution
converges to the gKdV solution in L2 at rate O(|gamma|) as gamma -> 0.

The harness runs identical initial data through the rotation equation at
each gamma and through the gamma = 0 equation once, as the rows of one
stacked state, fits the log-log slope of the L2 difference at a fixed
comparison time, and checks that the Gronwall constant extracted from
the difference inequality

    d/dt ||w|| <= C * sup[||u||_Xs + ||v||_Xs]^k * ||w|| + C*|gamma|*sup||u||_Xs

is stable across the sweep (the constant must not depend on gamma for
the limit argument to close).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError
from .solver import SolverConfig, Trajectory, _evolve_rows, evolve
from .spectral import Field

log = logging.getLogger("ostrovsky")

DEFAULT_GAMMAS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)

L2_DRIFT_GATE = 1e-8
HAMILTONIAN_DRIFT_GATE = 1e-6


@dataclass(frozen=True)
class SweepConfig:
    """One gamma sweep: shared solver template, trace_s included; gamma set per point."""

    template: SolverConfig
    t_compare: float
    gammas: tuple = DEFAULT_GAMMAS
    snapshot_every: int = 10
    floor_factor: float = 10.0

    def __post_init__(self):
        gs = tuple(float(g) for g in self.gammas)
        if not gs or any(g <= 0 for g in gs):
            raise ConfigError("gammas must be positive")
        if any(b <= a for a, b in zip(gs[1:], gs[:-1])):
            raise ConfigError("gammas must be strictly decreasing")
        if not 0 < self.t_compare <= self.template.t_end:
            raise ConfigError("t_compare must lie within every run's lifespan")
        object.__setattr__(self, "gammas", gs)


@dataclass
class RateReport:
    """Per-gamma errors with the fitted convergence rate."""

    gammas: tuple
    errors: np.ndarray
    floor_flags: np.ndarray
    slope: float
    intercept: float
    fit_residual: float
    self_error: float
    gronwall_constants: np.ndarray
    conservation_ok: np.ndarray
    failures: dict

    @property
    def floor_limited(self) -> bool:
        return bool(np.any(self.floor_flags))

    def error_over_gamma(self) -> np.ndarray:
        return self.errors / np.asarray(self.gammas)


@dataclass
class GronwallReport:
    gamma: float
    c_star: float
    rate_scale: float        # sup[||u||_Xs + ||v||_Xs]^k over the lattice
    forcing_scale: float     # sup ||u||_Xs
    envelope_ok: bool
    envelope_margin: float


@dataclass
class XsGrowthReport:
    c0: float
    xs: np.ndarray
    times: np.ndarray
    bounded: bool


def _l2_distance(a: Field, b: Field) -> float:
    return (a - b).l2_norm()


def conservation_drift(traj: Trajectory) -> tuple:
    """(l2_drift, hamiltonian_drift, ok): the largest relative departures
    from the first snapshot, and whether both sit under their gates scaled
    by max(1, time span)."""
    span = max(1.0, traj.times[-1] - traj.times[0])
    l2_drift = float(np.max(np.abs(traj.l2 - traj.l2[0])) / max(traj.l2[0], 1e-300))
    h_scale = max(abs(traj.hamiltonian[0]), 1e-300)
    h_drift = float(np.max(np.abs(traj.hamiltonian - traj.hamiltonian[0])) / h_scale)
    ok = l2_drift < L2_DRIFT_GATE * span and h_drift < HAMILTONIAN_DRIFT_GATE * span
    return l2_drift, h_drift, ok


def _field_at_time(traj: Trajectory, t: float) -> Field:
    idx = int(np.argmin(np.abs(traj.times - t)))
    if abs(traj.times[idx] - t) > 1e-9 * max(1.0, t):
        raise ConfigError(f"no snapshot at t = {t}; nearest is {traj.times[idx]}")
    return traj.fields[idx]


def rotation_limit_sweep(cfg: SweepConfig, u0: Field) -> RateReport:
    """Solve once at gamma = 0 and once per sweep gamma on identical
    grids and time steps, as the rows of one stacked state (each run
    alone when any blows up); fit log e(gamma) against log gamma.

    Points whose error sits within floor_factor of the measured solver
    self-error are flagged floor-limited and excluded from the fit.
    Sweep points that blow up are recorded as failures and skipped.
    """
    template = cfg.template
    cfgs = [template.replace(gamma=g) for g in (0.0, *cfg.gammas)]
    try:
        reference, *points = _evolve_rows(u0, cfgs, cfg.snapshot_every)
    except BlowupError:
        # a run blew up: run each alone, for its own trajectory or error
        reference, points = evolve(u0, cfgs[0], cfg.snapshot_every), []
        for point_cfg in cfgs[1:]:
            try:
                points.append(evolve(u0, point_cfg, cfg.snapshot_every))
            except BlowupError as err:
                points.append(err)
    # self-error estimate: the same reference integrated at dt/2
    half = evolve(u0, template.replace(gamma=0.0, dt=template.dt / 2.0),
                  2 * cfg.snapshot_every)
    self_error = _l2_distance(_field_at_time(reference, cfg.t_compare),
                              _field_at_time(half, cfg.t_compare))

    results: dict = {}
    failures: dict = {}
    for gamma, outcome in zip(cfg.gammas, points):
        if isinstance(outcome, BlowupError):
            failures[gamma] = str(outcome)
            log.warning("gamma = %g blew up: %s", gamma, outcome)
        else:
            results[gamma] = outcome

    v_t = _field_at_time(reference, cfg.t_compare)
    gammas_ok = [g for g in cfg.gammas if g in results]
    errors = np.array([
        _l2_distance(_field_at_time(results[g], cfg.t_compare), v_t) for g in gammas_ok
    ])
    conservation = np.array([conservation_drift(results[g])[2] for g in gammas_ok])
    floor_flags = errors <= cfg.floor_factor * max(self_error, 1e-300)

    usable = (~floor_flags) & conservation
    if np.sum(usable) >= 2:
        lg = np.log(np.asarray(gammas_ok)[usable])
        le = np.log(errors[usable])
        slope, intercept = np.polyfit(lg, le, 1)
        fit_residual = float(np.sqrt(np.mean((np.polyval([slope, intercept], lg) - le) ** 2)))
    else:
        slope, intercept, fit_residual = math.nan, math.nan, math.nan
        log.warning("fewer than two usable sweep points; rate fit skipped")

    gron = np.array([
        gronwall_consistency_check(results[g], reference, g).c_star
        for g in gammas_ok
    ])

    return RateReport(
        gammas=tuple(gammas_ok),
        errors=errors,
        floor_flags=floor_flags,
        slope=float(slope),
        intercept=float(intercept),
        fit_residual=fit_residual,
        self_error=self_error,
        gronwall_constants=gron,
        conservation_ok=conservation,
        failures=failures,
    )


def _lattice_derivative(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Centered differences; one-sided second order at the endpoints."""
    if values.size < 3:
        raise ConfigError("need at least three lattice points")
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (times[2:] - times[:-2])
    h0 = times[1] - times[0]
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h0)
    h1 = times[-1] - times[-2]
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h1)
    return d


def gronwall_consistency_check(traj_u: Trajectory, traj_v: Trajectory,
                               gamma: float) -> GronwallReport:
    """Smallest C* with  d/dt||w|| <= C*(M^k ||w|| + |gamma| Mu)  pointwise
    on the common snapshot lattice, where w = u - v, M = sup(||u||_Xs +
    ||v||_Xs) and Mu = sup||u||_Xs.  Also checks the integrated envelope
    ||w(t)|| <= ||w(0)|| e^{C* M^k t} + (|gamma| Mu / M^k)(e^{C* M^k t} - 1).
    The X^s norms are the traces evolve() recorded, at the runs' trace_s.
    """
    if traj_u.times.shape != traj_v.times.shape or np.max(
        np.abs(traj_u.times - traj_v.times)
    ) > 1e-12 * max(1.0, traj_u.times[-1]):
        raise ConfigError("trajectories live on different time lattices")
    times = traj_u.times
    w = np.array([
        _l2_distance(fu, fv) for fu, fv in zip(traj_u.fields, traj_v.fields)
    ])
    dwdt = _lattice_derivative(w, times)
    rate_scale = float(np.max(traj_u.xs + traj_v.xs)) ** traj_u.config.k
    forcing_scale = float(np.max(traj_u.xs))
    denom = rate_scale * w + abs(gamma) * forcing_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 0, dwdt / denom, 0.0)
    c_star = float(max(np.max(ratios), 0.0))

    if c_star > 0 and rate_scale > 0:
        # exponent can be enormous for large-amplitude data; the envelope
        # then holds vacuously, so clamp before exponentiating
        growth = np.exp(np.minimum(c_star * rate_scale * times, 700.0))
        envelope = w[0] * growth + (abs(gamma) * forcing_scale / rate_scale) * (growth - 1.0)
        margin = float(np.max(w - envelope * (1.0 + 1e-9)))
        envelope_ok = bool(margin <= 1e-12 * max(1.0, float(np.max(w))))
    else:
        envelope = np.full_like(w, w[0])
        margin = float(np.max(w - envelope))
        envelope_ok = bool(margin <= 1e-12)

    return GronwallReport(
        gamma=gamma,
        c_star=c_star,
        rate_scale=rate_scale,
        forcing_scale=forcing_scale,
        envelope_ok=envelope_ok,
        envelope_margin=margin,
    )


def xs_growth_monitor(traj: Trajectory) -> XsGrowthReport:
    """Smallest C0 with  d/dt||u||_Xs <= C0 ||u||_Xs^{k+1}  on the lattice.

    s is the trace_s of the run whose X^s trace evolve() recorded.  A
    linear (propagator-only) run is an exact isometry and reports C0 = 0
    up to rounding.
    """
    xs = traj.xs
    dxdt = _lattice_derivative(xs, traj.times)
    k = traj.config.k
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(xs > 0, dxdt / xs ** (k + 1), 0.0)
    c0 = float(max(np.max(ratios), 0.0))
    bounded = bool(np.max(xs) <= 10.0 * max(xs[0], 1e-300))
    return XsGrowthReport(c0=c0, xs=xs, times=traj.times, bounded=bounded)
