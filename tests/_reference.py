"""Full-spectrum reference of the solver core: the nonlinear term by
complex FFTs, and the IFRK4, Strang and Picard schemes on all n modes.
The solver keeps half spectra (modes 0..n/2); these are the oracle its
tests compare against.  Also the complex-FFT analysis of samples and the
soliton's coarse-band truncation and fine-grid synthesis on full
spectra, the oracle of spectral.analyze and of the solver's transforms
through it."""

import math

import numpy as np

from ostrovsky.solver import SOLITON_OVERSAMPLING, _int_power
from ostrovsky.spectral import dealias_cutoff


def complex_analysis(samples):
    """Full spectra c_j = (1/n) sum_m u_m e^{-i xi_j x_m} of samples along
    the last axis, through the complex fft."""
    return np.fft.fft(samples, axis=-1) / samples.shape[-1]


def reference_band_limit(samples_fine, grid):
    """Modes -(n/2-1)..n/2-1 of the fine-grid sampling, read from both
    halves of its complex spectrum; the coarse Nyquist mode is zero."""
    n = grid.n_points
    cf = complex_analysis(samples_fine)
    cc = np.zeros(n, dtype=complex)
    cc[: n // 2] = cf[: n // 2]
    cc[n // 2 + 1 :] = cf[-(n // 2 - 1) :]
    return cc


def reference_upsample(coeffs):
    """Samples on the SOLITON_OVERSAMPLING times finer grid, the coarse
    Nyquist coefficient split between the fine modes +-n/2 and negative
    modes placed by hand, through the complex ifft."""
    n, fine = coeffs.size, SOLITON_OVERSAMPLING
    cf = np.zeros(n * fine, dtype=complex)
    cf[: n // 2] = coeffs[: n // 2]
    cf[-(n // 2 - 1) :] = coeffs[n // 2 + 1 :]
    cf[n // 2] = 0.5 * coeffs[n // 2]
    cf[-n // 2] = 0.5 * np.conj(coeffs[n // 2])
    return np.fft.ifft(cf * n * fine).real


def complex_flux(coeffs, grid, k):
    """-(1/(k+1)) d/dx [dealiased u^{k+1}] on full spectra along the last
    axis, through the complex ifft/fft pair."""
    n = grid.n_points
    table = (-1.0 / (k + 1)) * (1j * grid.wavenumbers)
    table[np.abs(grid.mode_numbers) > dealias_cutoff(n, k + 1)] = 0.0
    table[0] = 0.0
    u = np.fft.ifft(coeffs * n).real
    out = np.fft.fft(_int_power(u, k + 1))
    out /= n
    return out * table


def reference_step(c, cfg, dt):
    """One IFRK4 or Strang step of length dt on the full spectrum c."""
    e = np.exp(-1j * cfg.symbol.table(cfg.grid) * (dt / 2.0))
    e2 = e**2

    def nl(x):
        return complex_flux(x, cfg.grid, cfg.k) if cfg.include_nonlinearity else 0.0 * x

    if cfg.integrator == "split_step":
        c = e * c
        c = c + dt * nl(c + (dt / 2.0) * nl(c))
        return e * c
    a = nl(c)
    b = nl(e * (c + (dt / 2.0) * a))
    cc = nl(e * c + (dt / 2.0) * b)
    d = nl(e2 * c + dt * e * cc)
    return e2 * c + (dt / 6.0) * (e2 * a + 2.0 * e * (b + cc) + d)


def reference_evolve(u0, cfg, snapshot_every):
    """Full spectra at the steps where evolve records a snapshot, step 0
    and the shortened last step included."""
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    last_dt = cfg.t_end - (n_steps - 1) * cfg.dt
    c, snapshots = u0.coeffs.copy(), [u0.coeffs.copy()]
    for i in range(1, n_steps + 1):
        partial = i == n_steps and abs(last_dt - cfg.dt) > 1e-12 * cfg.dt
        c = reference_step(c, cfg, last_dt if partial else cfg.dt)
        if i % snapshot_every == 0 or i == n_steps:
            snapshots.append(c.copy())
    return snapshots


def reference_picard(u0, cfg, delta, n_iters):
    """(samples over the lattice, sup-in-time L2 differences) of the
    fixed-point iteration on full spectra, stopping where picard_iterate
    stops."""
    grid, n = cfg.grid, cfg.grid.n_points
    n_lat = int(round(delta / cfg.dt))
    t_lat = np.arange(n_lat + 1) * cfg.dt
    forward = np.exp(-1j * t_lat[:, None] * cfg.symbol.table(grid)[None, :])
    backward = np.conj(forward)
    free = forward * u0.coeffs[None, :]
    v, diffs = free, []
    for _ in range(n_iters):
        g = backward * complex_flux(v, grid, cfg.k)
        prefix = np.zeros_like(g)
        prefix[1:] = np.cumsum(0.5 * cfg.dt * (g[1:] + g[:-1]), axis=0)
        v_next = free + forward * prefix
        diffs.append(float(np.max(np.sqrt(grid.length
                                          * np.sum(np.abs(v_next - v) ** 2, axis=1)))))
        v = v_next
        if diffs[-1] < 1e-10 * max(u0.l2_norm(), 1e-300):
            break
    return np.fft.ifft(v * n, axis=1).real, diffs
