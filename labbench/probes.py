"""Per-call timings of single public functions at the sizes the
workloads use.  Each figure is the median of several calls on inputs made
from the run's seed; they are the same in every workload's traced run."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from ostrovsky import estimates, kernel, norms, solver, spectral
from ostrovsky.kernel import KernelSpec, RegionTag
from ostrovsky.spectral import Field, Grid, MultiplierSpec

from workloads import sample_real, smooth_spectrum


def _median_time(fn, repeats: int) -> float:
    fn()  # first call fills caches (FFT plans, exp tables)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _spectral_and_solver(rng, out: dict):
    z = smooth_spectrum(rng, 32, 12.0)
    fields = {}
    for n in (256, 1024, 4096):
        grid = Grid(n, 80.0)
        samples = 0.5 * sample_real(z, n) / np.max(np.abs(sample_real(z, n)))
        fields[n] = Field.from_samples(grid, samples)
        reps = 200 if n < 4096 else 60
        out[f"spectral.roundtrip_us.n{n}"] = 1e6 * _median_time(
            lambda: spectral.Field.from_coeffs(
                grid, spectral.Field.from_samples(grid, samples).coeffs).samples(), reps)
        out[f"solver.nonlinear_term_us.n{n}"] = 1e6 * _median_time(
            lambda: solver.nonlinear_term(fields[n], 5), reps)
    f = fields[1024]
    cfg = solver.SolverConfig(beta=-1.0, gamma=1.0, k=5, dt=0.005, t_end=1.0, grid=f.grid)
    out["spectral.apply_multiplier_us.n1024"] = 1e6 * _median_time(
        lambda: spectral.apply_multiplier(f, MultiplierSpec.derivative(1)), 200)
    out["norms.h_s_norm_us.n1024"] = 1e6 * _median_time(lambda: norms.h_s_norm(f, 2.0), 200)
    out["norms.x_s_norm_us.n1024"] = 1e6 * _median_time(lambda: norms.x_s_norm(f, 2.0), 200)
    out["solver.hamiltonian_us.n1024"] = 1e6 * _median_time(
        lambda: solver.hamiltonian(f, cfg), 200)
    for integrator in ("ifrk4", "split_step"):
        c = cfg.replace(integrator=integrator)
        out[f"solver.step_ms.{integrator}.n1024"] = 1e3 * _median_time(
            lambda: solver.step(f, c), 40)


def _estimates_and_norms(seed: int, out: dict):
    ensembles = {tag: estimates.default_ensemble(tag, seed, 2)
                 for tag in estimates.STRICHARTZ_TAGS + estimates.LINFTY_TAGS + ("2.027",)}
    ens = ensembles["2.05"]
    u0 = ens.draw(0)
    out["estimates.draw_us"] = 1e6 * _median_time(lambda: ens.draw(1), 40)
    out["estimates.propagator_orbit_ms"] = 1e3 * _median_time(
        lambda: estimates.propagator_orbit(ens, u0), 7)
    stf = estimates.propagator_orbit(ens, u0)
    out["norms.xsb_norm_ms"] = 1e3 * _median_time(
        lambda: norms.xsb_norm(stf, 0.0, ens.b, ens.symbol), 7)
    out["norms.mixed_norm_ms.t_outer"] = 1e3 * _median_time(
        lambda: norms.mixed_norm(stf, 6.0, 6.0), 7)
    out["norms.mixed_norm_ms.x_outer"] = 1e3 * _median_time(
        lambda: norms.mixed_norm(stf, math.inf, 2.0, "x_outer"), 7)
    for tag, e in ensembles.items():
        if tag == "2.027":
            continue
        d = e.draw(0)
        out[f"estimates.pair_ms.{tag}"] = 1e3 * _median_time(
            lambda: estimates.ratio_pair_for_tag(e, tag, d), 5)
    bil = ensembles["2.027"]
    f1, f2 = bil.draw(0), bil.draw(1)
    out["estimates.bilinear_weighted_product_us"] = 1e6 * _median_time(
        lambda: estimates.bilinear_weighted_product(f1, f2, 0.5, bil.symbol), 40)


def _kernel(rng, out: dict):
    """kernel_eval at N = 32 on five points per region, drawn from the
    same windows region_decay_check samples."""
    n = 32.0
    spec = KernelSpec(n, -1.0, 1.0)
    t_lo, t_hi = 0.2 / n**3, 200.0 / n**3

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    for tag in RegionTag:
        times = []
        for _ in range(5):
            if tag is RegionTag.NEAR_FIELD:
                x, t = log_uniform(1e-3 / n, 1.0 / n), log_uniform(t_lo, t_hi)
            elif tag is RegionTag.NON_STATIONARY:
                x = log_uniform(1.001 / n, 100.0 / n)
                t = min(log_uniform(t_lo, t_hi), 0.999 * spec.region_time_boundary(x))
            else:
                x = log_uniform(1.001 / n, 100.0 / n)
                t = log_uniform(max(1.001 * spec.region_time_boundary(x), t_lo), 10.0 * t_hi)
            times.append(_median_time(lambda: kernel.kernel_eval(x, t, spec), 2))
        out[f"kernel.kernel_eval_us.{tag.name.lower()}"] = 1e6 * statistics.median(times)


def measure(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    out = {}
    _spectral_and_solver(rng, out)
    _estimates_and_norms(int(rng.integers(0, 2**31)), out)
    _kernel(rng, out)
    return out

