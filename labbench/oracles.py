"""Reference computations the benchmark checks the program against.

Everything here is written from the definitions in the package
docstrings and README, using only numpy: nothing imports `ostrovsky`.
The estimate-zoo draws are replayed from the documented seeding rule
(one `SeedSequence(seed, spawn_key=(index,))` per draw), so a change to
how the program draws its data shows up as a failed check.
"""

from __future__ import annotations

import json
import math

import numpy as np


# ---------------------------------------------------------------- symbols

def wavenumbers(n: int, length: float) -> np.ndarray:
    """xi_j in FFT order with the Nyquist mode housed at +n/2."""
    j = np.arange(n)
    j[j > n // 2] -= n
    return 2.0 * np.pi * j / length


def phase(xi, beta: float, gamma: float) -> np.ndarray:
    """phi(xi) = beta*xi**3 + gamma/xi with phi(0) = 0."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    nz = xi != 0.0
    out[nz] = beta * xi[nz] ** 3 + gamma / xi[nz]
    return out


def phase_slope(xi, beta: float, gamma: float) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return 3.0 * beta * xi**2 - gamma / xi**2


def window(t: np.ndarray, t_window: float) -> np.ndarray:
    """The orbit window: 1 on the middle half of [0, T), quintic
    smoothstep shoulders, 0 at both edges."""
    a = np.abs(4.0 * (t - 0.5 * t_window) / t_window)
    out = np.where(a <= 1.0, 1.0, 0.0)
    y = np.clip(a - 1.0, 0.0, 1.0)
    shoulder = 1.0 - (10.0 * y**3 - 15.0 * y**4 + 6.0 * y**5)
    return np.where((a > 1.0) & (a < 2.0), shoulder, out)


# ---------------------------------------------------------- estimate zoo

def support_modes(law: str, law_param: float, n: int, length: float,
                  threshold: float = 1.0) -> np.ndarray:
    dxi = 2.0 * math.pi / length
    top = n // 2 - 1
    if law == "gaussian_spectrum":
        lo, hi = 1, min(int(law_param * math.sqrt(math.log(1e24)) / dxi), top)
    elif law == "band_limited":
        lo, hi = int(math.ceil(law_param / dxi)), int(4.0 * law_param / dxi)
    elif law == "low_frequency":
        lo, hi = 1, int(law_param / dxi)
    else:
        lo, hi = int(math.ceil(threshold / dxi)), int(8.0 * threshold / dxi)
    return np.arange(max(lo, 1), hi + 1)


def draw(ens: dict, index: int) -> np.ndarray:
    """Spectral coefficients (FFT order, unit L2 norm) of draw #index."""
    n, length = ens["n"], ens["length"]
    rng = np.random.default_rng(np.random.SeedSequence(ens["seed"], spawn_key=(index,)))
    modes = support_modes(ens["law"], ens["law_param"], n, length, ens["threshold"])
    dxi = 2.0 * math.pi / length
    z = rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size)
    if ens["law"] == "gaussian_spectrum":
        z = z * np.exp(-((modes * dxi / ens["law_param"]) ** 2))
    c = np.zeros(n, dtype=complex)
    c[modes] = z
    c[-modes] = np.conj(z)
    return c / math.sqrt(length * float(np.sum(np.abs(c) ** 2)))


def _signed_support(ens: dict) -> np.ndarray:
    m = support_modes(ens["law"], ens["law_param"], ens["n"], ens["length"], ens["threshold"])
    return np.concatenate([m, -m])


def _times(ens: dict) -> np.ndarray:
    return np.arange(ens["n_t"]) * (ens["t_window"] / ens["n_t"])


def _tau(ens: dict) -> np.ndarray:
    n_t = ens["n_t"]
    ell = np.arange(n_t)
    ell[ell > n_t // 2] -= n_t
    return 2.0 * np.pi * ell / ens["t_window"]


def modulation_table(ens: dict) -> dict:
    """W_j = sum_l <tau_l + phi_j>^{2b} |DFT_t[psi(t) e^{-i t phi_j}]_l / n_t|^2
    for every signed support mode j; depends on the grid, window, symbol
    and b only."""
    modes = _signed_support(ens)
    xi = 2.0 * np.pi * modes / ens["length"]
    phi = phase(xi, ens["beta"], ens["gamma"])
    t = _times(ens)
    psi = window(t, ens["t_window"])
    d = np.fft.fft(psi[None, :] * np.exp(-1j * t[None, :] * phi[:, None]), axis=1) / ens["n_t"]
    sigma = 1.0 + np.abs(_tau(ens)[None, :] + phi[:, None])
    w = np.sum(sigma ** (2.0 * ens["b"]) * np.abs(d) ** 2, axis=1)
    return {"modes": modes, "xi": xi, "W": w}


def closed_form_rhs(ens: dict, tag: str, c: np.ndarray, table: dict) -> float:
    """Modulation-norm right-hand side L*T*sum_j w_j |c_j|^2 W_j."""
    if tag == "2.03":
        return math.sqrt(ens["length"] * float(np.sum(np.abs(c) ** 2)))
    modes, xi, w_mod = table["modes"], table["xi"], table["W"]
    weight = np.ones(modes.size)
    if tag == "2.057":  # D^{-1/4} on the orbit squares to |xi|^{-1/2}
        weight = np.abs(xi) ** -0.5
    total = ens["length"] * ens["t_window"] * float(
        np.sum(weight * np.abs(c[modes % ens["n"]]) ** 2 * w_mod))
    rhs = math.sqrt(total)
    if tag == "2.055":
        rhs *= ens["law_param"] ** (0.25 - ens["epsilon"])
    return rhs


def _lhs_multiplier(ens: dict, tag: str, xi: np.ndarray) -> np.ndarray:
    a, eps = np.abs(xi), ens["epsilon"]
    high = a >= ens["threshold"]
    if tag == "2.05":
        return a ** (1.0 / 6.0) * high
    if tag == "2.08":
        return a * high
    if tag == "2.09":
        return a ** (0.25 + eps) * (a < ens["law_param"])
    if tag == "2.060":
        return a ** (-0.5 - 4.0 * eps) * high
    return np.ones_like(a)


def synthesized_lhs(ens: dict, tag: str, c: np.ndarray) -> float:
    """Left-hand side from a direct trigonometric synthesis of the
    (multiplied, windowed) orbit -- a sum over the support modes, no FFT --
    and plain Riemann sums."""
    n, length, n_t = ens["n"], ens["length"], ens["n_t"]
    modes = _signed_support(ens)
    xi = 2.0 * np.pi * modes / length
    phi = phase(xi, ens["beta"], ens["gamma"])
    t = _times(ens)
    x = np.arange(n) * (length / n)
    amp = _lhs_multiplier(ens, tag, xi) * c[modes % n]
    psi = np.ones(n_t) if tag == "2.03" else window(t, ens["t_window"])
    time_part = psi[:, None] * np.exp(-1j * t[:, None] * phi[None, :]) * amp[None, :]
    v = np.abs((time_part @ np.exp(1j * xi[:, None] * x[None, :])).real)
    dx, dt = length / n, ens["t_window"] / n_t
    if tag == "2.03":
        return float(np.sum(v**8) * dx * dt) ** (1.0 / 8.0)
    if tag == "2.05":
        return float(np.sum(v**6) * dx * dt) ** (1.0 / 6.0)
    if tag == "2.08":
        return float(np.max(np.sqrt(np.sum(v**2, axis=0) * dt)))
    if tag == "2.09":
        return math.sqrt(float(np.sum(np.max(v, axis=0) ** 2) * dx))
    if tag == "2.057":
        p = 2.0 / (1.0 - 2.0 * ens["epsilon"])
        return float(np.sum(np.max(v, axis=0) ** p) * dx) ** (1.0 / p)
    return float(np.max(v))  # 2.055, 2.060


def bilinear_lhs(ens: dict, c1: np.ndarray, c2: np.ndarray, s: float) -> float:
    """L2_{xt} norm of the |phi'(xi1) - phi'(xi2)|^s-weighted product of two
    free waves, by an explicit loop over the mode pairs."""
    n, length = ens["n"], ens["length"]
    half = n // 2
    t = _times(ens)
    dt = ens["t_window"] / ens["n_t"]
    modes = _signed_support(ens)
    xi = 2.0 * np.pi * modes / length
    phi = phase(xi, ens["beta"], ens["gamma"])
    slope = phase_slope(xi, ens["beta"], ens["gamma"])
    orbit = np.exp(-1j * t[:, None] * phi[None, :])
    a1 = orbit * c1[modes % n][None, :]
    a2 = orbit * c2[modes % n][None, :]
    spec = np.zeros((t.size, n), dtype=complex)
    for p, m1 in enumerate(modes):
        for q, m2 in enumerate(modes):
            target = m1 + m2
            if -(half - 1) <= target <= half:
                w = abs(slope[p] - slope[q]) ** s
                spec[:, target % n] += w * a1[:, p] * a2[:, q]
    return math.sqrt(float(np.sum(length * np.sum(np.abs(spec) ** 2, axis=1) * dt)))


# ---------------------------------------------------------------- kernel

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def kernel_value(x: float, t: float, n_block: float, beta: float, gamma: float) -> float:
    """K(x, t) = 2 Re int_N^{4N} exp(i(x xi - t phi(xi))) dxi by dense
    composite 16-point Gauss-Legendre, panels short enough that the
    phase turns by at most 2 radians across each."""
    lo, hi = n_block, 4.0 * n_block
    worst_slope = abs(x) + t * (3.0 * abs(beta) * hi**2 + gamma / lo**2)
    panels = int(math.ceil((hi - lo) * worst_slope / 2.0)) + 16
    total = 0.0 + 0.0j
    chunk = 1 << 15
    width = (hi - lo) / panels
    for start in range(0, panels, chunk):
        idx = np.arange(start, min(start + chunk, panels))
        mid = lo + (idx + 0.5) * width
        xi = (mid[:, None] + 0.5 * width * _GL_NODES[None, :]).ravel()
        ph = x * xi - t * (beta * xi**3 + gamma / xi)
        total += np.sum(np.tile(_GL_WEIGHTS, idx.size) * np.exp(1j * ph)) * 0.5 * width
    return 2.0 * total.real


# ---------------------------------------------------------------- solver

def parse_snapshot(text: str) -> tuple:
    """(header, samples) of a snapshot file's text: one JSON header line,
    then one decimal per line."""
    first, _, rest = text.partition("\n")
    return json.loads(first), np.array([float(line) for line in rest.splitlines()
                                        if line.strip()])


def read_snapshot_samples(path) -> tuple:
    with open(path) as fh:
        return parse_snapshot(fh.read())


def free_evolution(samples: np.ndarray, length: float, beta: float, gamma: float,
                   t: float) -> np.ndarray:
    """Samples of e^{-i t phi(D)} u0 (exact linear propagation)."""
    n = samples.size
    c = np.fft.fft(samples) / n
    c = c * np.exp(-1j * t * phase(wavenumbers(n, length), beta, gamma))
    return np.fft.ifft(c * n).real


def soliton_profile(x: np.ndarray, length: float, c: float, k: int, beta: float,
                    shift: float) -> np.ndarray:
    """A sech^(2/k)(B y) with B = (k/2) sqrt(c/|beta|) and
    A = (c (k+1)(k+2) / 2)^(1/k), centred at L/2 + shift on the periodic box."""
    amp = (c * (k + 1) * (k + 2) / 2.0) ** (1.0 / k)
    b_scale = 0.5 * k * math.sqrt(c / abs(beta))
    y = np.mod(x - 0.5 * length - shift + 0.5 * length, length) - 0.5 * length
    return amp / np.cosh(b_scale * y) ** (2.0 / k)


def relative_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def trace_drifts(csv_text: str) -> tuple:
    """(max relative L2 drift, max relative Hamiltonian drift) of a
    traces.csv with columns t, l2, hamiltonian, hs, xs."""
    lines = csv_text.strip().splitlines()
    cols = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    l2 = rows[:, cols.index("l2")]
    ham = rows[:, cols.index("hamiltonian")]
    return (float(np.max(np.abs(l2 - l2[0])) / abs(l2[0])),
            float(np.max(np.abs(ham - ham[0])) / abs(ham[0])))
