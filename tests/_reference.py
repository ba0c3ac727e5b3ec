"""Full-spectrum reference of the solver core: the nonlinear term by
complex FFTs, and the IFRK4, Strang and Picard schemes on all n modes.
The solver keeps half spectra (modes 0..n/2); these are the oracle its
tests compare against.  Also the complex-FFT analysis of samples and the
soliton's coarse-band truncation and fine-grid synthesis on full
spectra, the oracle of spectral.analyze and of the solver's transforms
through it.  And the estimate zoo's synthesis paths: tag 2.08's
sup_x L2_t norm of the synthesized orbit, the oracle of its time-Gram
closed form, and tag 3.03's convolution padded to the full linear
length, the oracle of the smallest alias-free period.  And the Picard
map over the whole time lattice at once, the oracle of picard_iterate's
in-place blocks, and tag 3.03's full-period inverse transform, the oracle
of its window rows.  And the kernel's Gauss-Kronrod pass one point at a
time by its earlier (G7, K15) rules, on panels of a quarter of the local
wavelength over 48 coarse sub-intervals or of half of it over 24, the
oracles of the batched pass, and Laurie's construction of the Kronrod
rules, the oracle of their tables, and the region of a point (x, t),
the oracle of the samples region_decay_check draws per region.
And an ensemble's modulation weights built from the whole (n_t x M)
tables at once, the oracle of Ensemble.modulation_weights' mode blocks."""

import math

import numpy as np

from ostrovsky import kernel
from ostrovsky.errors import ContractionFailureError
from ostrovsky.estimates import _multilinear_weights, propagator_orbit
from ostrovsky.norms import SpaceTimeField, mixed_norm
from ostrovsky.solver import (PICARD_TOLERANCE, SOLITON_OVERSAMPLING, _flux_table, _int_power,
                              _nonlinear_coeffs, picard_lattice)
from ostrovsky.spectral import (angular_frequencies, dealias_cutoff, dft, fft_mode_numbers,
                                half_spectrum, mirror_slot, parseval_weights, synthesize)


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


def reference_step(c, cfg):
    """One IFRK4 or Strang step of length cfg.dt on the full spectrum c."""
    dt = cfg.dt
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
    and the last step included."""
    n_steps = round(cfg.t_end / cfg.dt)
    c, snapshots = u0.coeffs.copy(), [u0.coeffs.copy()]
    for i in range(1, n_steps + 1):
        c = reference_step(c, cfg)
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


def whole_lattice_picard(u0, cfg, delta, n_iters):
    """picard_iterate with each map formed over the whole lattice at once:
    the backward table, the flux, the trapezoid prefix by one np.cumsum and
    the next iterate, each a lattice-sized array."""
    n_lat = picard_lattice(cfg, delta, n_iters)
    grid = cfg.grid
    t_lat = np.arange(n_lat + 1) * cfg.dt
    forward = cfg.symbol.propagator(t_lat, half_spectrum(grid.wavenumbers))
    backward = np.conj(forward)
    flux = _flux_table(grid, cfg.k)
    c0 = half_spectrum(u0.coeffs)
    weights = parseval_weights(grid.n_points)

    u0_l2 = max(u0.l2_norm(), 1e-300)
    v = forward * c0[None, :]

    def gamma_map(v_cur):
        f = _nonlinear_coeffs(v_cur, cfg.k, flux)
        g = backward * f
        prefix = np.zeros_like(g)
        prefix[1:] = np.cumsum(0.5 * cfg.dt * (g[1:] + g[:-1]), axis=0)
        return forward * c0[None, :] + forward * prefix

    diffs, ratios, bad_run = [], [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_iters):
            v_next = gamma_map(v)
            diff = float(
                np.max(np.sqrt(grid.length * np.sum(weights * np.abs(v_next - v) ** 2, axis=1)))
            )
            diffs.append(diff)
            v = v_next
            if len(diffs) >= 2 and diffs[-2] > 0:
                r = diffs[-1] / diffs[-2]
                ratios.append(r)
                bad_run = bad_run + 1 if r >= 1.0 else 0
                if bad_run >= 3:
                    raise ContractionFailureError(ratios)
            if diff < PICARD_TOLERANCE * u0_l2:
                break

    return SpaceTimeField(grid, (n_lat + 1) * cfg.dt, synthesize(v)), diffs


def orbit_sup_x_l2_t(ens, u0, multiplier):
    """Linf_x L2_t norm of the windowed orbit of m(D) u0, synthesized on
    the grid at every window sample."""
    return mixed_norm(propagator_orbit(ens, u0, multiplier=multiplier), math.inf, 2.0, "x_outer")


def whole_modulation_weights(ens):
    """Ensemble.modulation_weights from the whole (n_t x M) tables: the time
    DFT of the windowed phase table, |.|^2, and both modulation tables."""
    xi = ens.grid.wavenumbers[ens.support_modes()]
    tau = angular_frequencies(ens.n_t, ens.t_window)
    d2 = np.abs(dft(ens.window[:, None] * ens.phase_table, (0,))) ** 2
    plus = ens.symbol.modulation(tau, xi) ** (2.0 * ens.b) * d2
    reversed_d2 = d2[mirror_slot(fft_mode_numbers(ens.n_t), ens.n_t)]
    minus = ens.symbol.modulation(-tau, xi) ** (2.0 * ens.b) * reversed_d2
    return np.sum(plus, axis=0) + np.sum(minus, axis=0)


def full_pad_multilinear_pairs(ens, k, n_cells, period=None):
    """pair_for(name) -> pair(i) of multilinear_ratio, its (k+1)-fold
    convolution inverted by irfft2 over the whole period: period(k, cells),
    or by default the full linear length (k+1)(cells-1)+1 rounded up to a
    power of two."""
    s = 0.5 - 2.0 / k + 2.0 * ens.epsilon
    dxi = 2.0 * math.pi / ens.grid.length
    dtau = 2.0 * math.pi / ens.t_window
    lattices = {
        None: (n_cells, dxi, dtau, 0),
        "lattice_x2": (2 * n_cells, dxi / 2.0, dtau / 2.0, 1),
    }

    def pair_for(name):
        cells, dxi, dtau, rng_salt = lattices[name]
        outer_w, inner_w = _multilinear_weights(cells, dxi, dtau, ens.symbol, s, ens.b,
                                                ens.epsilon)
        half = cells // 2
        pad = 1
        while pad < (k + 1) * (cells - 1) + 1:
            pad *= 2
        if period is not None:
            pad = period(k, cells)
        measure = dxi * dtau

        def pair(i):
            rng = np.random.default_rng(
                np.random.SeedSequence(ens.seed, spawn_key=(rng_salt, i))
            )
            outer_f = rng.random((cells, cells))
            factors = [rng.random((cells, cells)) for _ in range(k + 1)]
            prod = np.fft.rfft2(inner_w * factors[0], (pad, pad))
            for f in factors[1:]:
                prod *= np.fft.rfft2(inner_w * f, (pad, pad))
            conv = np.maximum(np.fft.irfft2(prod, (pad, pad)), 0.0)
            base = (k + 1) * half
            sl = slice(base - half, base + half)
            left = float(np.sum(outer_w * outer_f * conv[sl, sl])) * measure ** (k + 1)
            right = math.sqrt(float(np.sum(outer_f**2)) * measure)
            for f in factors:
                right *= math.sqrt(float(np.sum(f**2)) * measure)
            return left, right

        return pair

    return pair_for


# The kernel's earlier rule: 15-point Kronrod extension of 7-point Gauss on [-1, 1]
K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def classify_region(x, t, spec):
    """The decay proof's region of the point (x, t), t > 0."""
    assert t > 0, "regions partition t > 0 only"
    if abs(x) <= 1.0 / spec.block_start:
        return kernel.RegionTag.NEAR_FIELD
    if abs(x) >= spec.region_speed * t:
        return kernel.RegionTag.NON_STATIONARY
    return kernel.RegionTag.STATIONARY


def kronrod_rule(n):
    """Nodes (ascending) and weights of the (2n+1)-point Kronrod extension
    of n-point Gauss-Legendre on [-1, 1], by Laurie's algorithm (D. P.
    Laurie, Math. Comp. 66 (1997) 1133-1145), after Gautschi's r_kronrod.
    From the Legendre recurrence a_k = 0, b_0 = 2, b_k = k^2/(4k^2 - 1) it
    completes the Jacobi matrix of the extension; the nodes are its
    eigenvalues and the weights b_0 times the squared first components of
    its eigenvectors."""
    a, b = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    k = np.arange(1, -(-3 * n // 2) + 1)
    b[0], b[k] = 2.0, k**2 / (4.0 * k**2 - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        lo = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[lo]) * t[k + 1] + b[k + n + 1] * s[k]
                             - b[lo] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        lo = m - k
        j = n - 1 - lo
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[lo]) * t[j + 1] - b[k + n + 1] * s[j + 1]
                             + b[lo] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    nodes, vectors = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, b[0] * vectors[0] ** 2


def reference_panel_edges(x, t, spec, refine, coarse=None, wavelengths=None):
    """Gauss-Kronrod panel edges of the point (x, t): one np.linspace per
    coarse sub-interval of [N, 4N], with equal panels no wider than
    wavelengths local wavelengths 2*pi/(1.5*max|g'|), divided by refine.
    coarse and wavelengths default to the kernel module's."""
    coarse = kernel._COARSE if coarse is None else coarse
    wavelengths = kernel._PANEL_WAVELENGTHS if wavelengths is None else wavelengths
    lo, hi = spec.block_start, 4.0 * spec.block_start
    ends = np.linspace(lo, hi, coarse + 1)
    edges = [lo]
    for a, b in zip(ends[:-1], ends[1:]):
        slope = x - t * spec.symbol.derivative(np.linspace(a, b, 5))
        worst = float(np.max(np.abs(slope))) * 1.5 + 1e-30
        width_cap = wavelengths * 2.0 * np.pi / worst
        m = max(1, int(math.ceil((b - a) / width_cap * refine)))
        edges.extend(np.linspace(a, b, m + 1)[1:])
    return np.asarray(edges)


# the kernel's earlier panel rules, both with the (G7, K15) pair
QUARTER_WAVELENGTH_PANELS = {"coarse": 48, "wavelengths": 0.25}
HALF_WAVELENGTH_PANELS = {"coarse": 24, "wavelengths": 0.5}


def k15_kernel(x, t, spec, rule):
    """(K(x, t), achieved bound) by the (G7, K15) pair on the panels of
    rule, one point and one refinement (1x, 4x, 16x) at a time, each
    panel's K15 and G7 summed over its 15 nodes; value nan once the bound
    misses spec.accepted_error at 16x, and bound inf past kernel.MAX_NODES."""
    for refine in (1.0, 4.0, 16.0):
        edges = reference_panel_edges(x, t, spec, refine, **rule)
        if 15 * (edges.size - 1) > kernel.MAX_NODES:
            return math.nan, math.inf
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        nodes = mid[:, None] + half[:, None] * K15_NODES
        f = np.exp(1j * (x * nodes - t * spec.symbol.at_nonzero(nodes)))
        k15 = (f * K15_WEIGHTS).sum(axis=1) * half
        g7 = (f[:, 1::2] * G7_WEIGHTS).sum(axis=1) * half
        bound = 2.0 * float(np.abs(k15 - g7).sum())
        if bound <= spec.accepted_error:
            return 2.0 * float(k15.sum().real), bound
    return math.nan, bound
