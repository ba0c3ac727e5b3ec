"""Acceptance gate: seven oracle- and property-based criteria at desk
scale, each printed as one pass/fail line with its measured numbers."""

import math
import time

import numpy as np
import pytest

from ostrovsky import kernel
from ostrovsky.estimates import run_tag
from ostrovsky.kernel import KernelSpec, kernel_mixed_norm, region_decay_check
from ostrovsky.limits import SweepConfig, rotation_limit_sweep
from ostrovsky.solver import (
    SolverConfig,
    evolve,
    gaussian_bump,
    picard_iterate,
    scaled_to_h1,
    soliton_initial_data,
)
from ostrovsky.spectral import (
    Field,
    Grid,
    MultiplierSpec,
    PhaseSymbol,
    apply_multiplier,
)

import golden
from _util import propagated, random_mean_zero


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def below(value, bound):
    """value as a bound that holds ("< 1e-11"), for rounding-level quantities
    whose digits any change of evaluation order moves; the value itself if
    it exceeds the bound."""
    return f"< {bound:.0e}" if value < bound else f"{value:.2e}"


class TestAcceptance:
    def test_1_linear_machinery(self):
        t0 = time.time()
        sym = PhaseSymbol(-1.0, 1.0)
        worst = {"group": 0.0, "isometry": 0.0, "inversion": 0.0, "stepper": 0.0}
        for n in (64, 256, 1024):
            g = Grid(n, 40.0)
            f = random_mean_zero(g, np.random.default_rng(n))
            scale = f.l2_norm()
            # the solver's exponentials: a linear IFRK4 run is the propagator
            u = f * (1.0 / np.max(np.abs(f.samples())))  # max|u| = 1, inside the CFL guard
            cfg = SolverConfig(beta=-1.0, gamma=1.0, k=5, dt=0.01, t_end=0.2, grid=g,
                               include_nonlinearity=False)
            stepped = evolve(u, cfg, snapshot_every=10**9).final()
            worst["stepper"] = max(worst["stepper"], (stepped - propagated(u, cfg.t_end, sym))
                                   .l2_norm() / u.l2_norm())
            for t1, t2 in ((0.3, 1.7), (-2.0, 0.9)):
                one = propagated(propagated(f, t1, sym), t2, sym)
                both = propagated(f, t1 + t2, sym)
                worst["group"] = max(worst["group"], (one - both).l2_norm() / scale)
                moved = propagated(f, t1, sym)
                worst["isometry"] = max(
                    worst["isometry"], abs(moved.l2_norm() - scale) / scale
                )
            back = apply_multiplier(
                apply_multiplier(f, MultiplierSpec.derivative(-1)),
                MultiplierSpec.derivative(1),
            )
            worst["inversion"] = max(worst["inversion"], (back - f).l2_norm() / scale)
        elapsed = time.time() - t0
        ok = (worst["group"] < 1e-12 and worst["isometry"] < 1e-12
              and worst["inversion"] < 1e-10 and worst["stepper"] < 1e-12 and elapsed < 5.0)
        report(1, ok, f"group {worst['group']:.2e}, isometry {worst['isometry']:.2e}, "
                      f"inversion {worst['inversion']:.2e}, stepper {worst['stepper']:.2e} "
                      f"({elapsed:.1f}s)")

    def test_2_conservation_suite(self):
        t0 = time.time()
        g = Grid(1024, 80.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        cfg = SolverConfig(beta=-1.0, gamma=1.0, k=5, dt=0.005, t_end=1.0, grid=g)
        traj = evolve(u0, cfg, snapshot_every=10)
        l2_drift = float(np.max(np.abs(traj.l2 - traj.l2[0])) / traj.l2[0])
        h_scale = abs(traj.hamiltonian[0])
        h_drift = float(np.max(np.abs(traj.hamiltonian - traj.hamiltonian[0])) / h_scale)
        dhdt = float(np.max(np.abs(np.gradient(traj.hamiltonian, traj.times))) / h_scale)
        elapsed = time.time() - t0
        ok = l2_drift < 1e-8 and h_drift < 1e-6 and dhdt < 1e-6 and elapsed < 60.0
        report(2, ok, f"L2 drift {below(l2_drift, 1e-13)}, H drift {below(h_drift, 1e-11)}, "
                      f"|dH/dt| {below(dhdt, 1e-10)} ({elapsed:.1f}s)")

    def test_3_picard_duhamel_cross_check(self):
        t0 = time.time()
        g = Grid(256, 32.0)
        u0 = scaled_to_h1(gaussian_bump(g, amplitude=0.3, width=2.0), 0.1)
        cfg = SolverConfig(beta=-1.0, gamma=1.0, k=5, dt=1e-4, t_end=0.05, grid=g)
        stf, diffs = picard_iterate(u0, cfg, delta=0.05, n_iters=12)
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        final = Field.from_samples(g, stf.values[-1])
        traj = evolve(u0, cfg, snapshot_every=10**9)
        cross = (traj.final() - final).l2_norm()
        converged = diffs[-1] < 1e-10 * u0.l2_norm()
        elapsed = time.time() - t0
        ok = (converged and all(r < 0.5 for r in ratios) and cross < 1e-6
              and elapsed < 120.0)
        report(3, ok, f"{len(diffs)} iterations, worst ratio "
                      f"{max(ratios) if ratios else 0.0:.2e}, "
                      f"stepper distance {cross:.2e} ({elapsed:.1f}s)")

    def test_4_weak_rotation_limit(self):
        t0 = time.time()
        g = Grid(1024, 80.0)
        u0 = gaussian_bump(g, amplitude=0.5, width=2.0)
        template = SolverConfig(beta=-1.0, gamma=1.0, k=5, dt=0.005, t_end=0.5, grid=g)
        cfg = SweepConfig(template=template, t_compare=0.5,
                          gammas=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
                          snapshot_every=10)
        rep = rotation_limit_sweep(cfg, u0)
        used = ~rep.floor_flags
        ratios = (rep.errors / np.asarray(rep.gammas))[used]
        cs = rep.gronwall_constants
        elapsed = time.time() - t0
        slope_ok = 0.8 <= rep.slope <= 1.2
        uniform_ok = np.max(ratios) <= 4.0 * np.min(ratios)
        gronwall_ok = np.max(cs) <= 3.0 * np.min(cs)
        ok = (slope_ok and uniform_ok and gronwall_ok
              and np.all(rep.conservation_ok) and elapsed < 900.0)
        report(4, ok, f"slope {rep.slope:.3f}, e/gamma spread "
                      f"{np.max(ratios) / np.min(ratios):.2f}x, C* spread "
                      f"{np.max(cs) / np.min(cs):.2f}x ({elapsed:.1f}s)")

    @pytest.mark.slow
    def test_5_kernel_decay(self):
        t0 = time.time()
        exponents, ns_constants, mixed_ratios, digests = [], [], [], {}
        for n_block in (16.0, 32.0, 64.0):
            spec = KernelSpec(n_block, -1.0, 1.0)
            dec = region_decay_check(spec, samples_per_region=60, seed=3)
            exponents.append(dec.ray_exponent)
            ns_constants.append(dec.regions["NON_STATIONARY"].empirical_constant)
            # the shipped probe_kernel config's mixed norm: its |K| digest is recorded
            with golden.capturing(kernel, "_kernel_values") as calls:
                mixed_ratios.append(kernel_mixed_norm(spec, 8.0).scaled_ratio)
            [(_, (values, _))] = calls
            digests.update(golden.mixed_norm_digest(n_block, values))
        elapsed = time.time() - t0
        exponent_ok = all(-0.43 <= e <= -0.23 for e in exponents)
        constant_ok = max(ns_constants) <= 4.0 * min(ns_constants)
        mixed_ok = max(mixed_ratios) <= 4.0 * min(mixed_ratios)
        ok = exponent_ok and constant_ok and mixed_ok and elapsed < 600.0
        report(5, ok, f"exponents {[f'{e:.3f}' for e in exponents]}, "
                      f"constant spread {max(ns_constants) / min(ns_constants):.2f}x, "
                      f"mixed-norm spread {max(mixed_ratios) / min(mixed_ratios):.2f}x "
                      f"({elapsed:.1f}s)")
        golden.check_digests("probe_kernel", digests)

    @pytest.mark.slow
    def test_6_estimate_ensembles(self):
        t0 = time.time()
        summary, ok, reports, digests = [], True, {}, {}
        for tag, draws in golden.ZOO_DRAWS.items():
            rep, tag_digests = golden.run_zoo_tag(tag)
            digests.update(tag_digests)
            again = run_tag(tag, seed=golden.ZOO_SEED, n_draws=draws)
            reports[tag] = rep
            reproducible = np.array_equal(rep.ratios, again.ratios)
            finite = np.isfinite(rep.max_ratio)
            stable = rep.stability_factor < 4.0
            ok = ok and reproducible and finite and stable
            # a tag with no refinement measured no stability: say so
            factor = f"{rep.stability_factor:.2f}x" if rep.refinement_max else "none"
            summary.append(f"{tag}:{rep.max_ratio:.3g}/{factor}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 1200.0
        report(6, ok, "max-ratio/stability " + ", ".join(summary) + f" ({elapsed:.1f}s)")
        golden.check_zoo(reports, digests)

    def test_7_soliton_regression(self):
        t0 = time.time()
        g = Grid(1024, 80.0)
        c = 0.7
        field, info = soliton_initial_data(c, 5, -1.0, g)
        gate_ok = info["residual"] < 1e-8
        # the mean is inert on the gamma = 0 path; restore the reported
        # projection defect so the datum is the translating profile
        coeffs = field.coeffs.copy()
        coeffs[0] = info["projection_defect"]
        u0 = Field(g, coeffs)
        cfg = SolverConfig(beta=-1.0, gamma=0.0, k=5, dt=0.000625, t_end=1.0, grid=g)
        traj = evolve(u0, cfg, snapshot_every=10**9)
        shifted = Field(g, u0.coeffs * np.exp(-1j * g.wavenumbers * c * 1.0))
        shape_err = (traj.final() - shifted).l2_norm() / u0.l2_norm()
        l2_drift = float(np.max(np.abs(traj.l2 - traj.l2[0])) / traj.l2[0])
        elapsed = time.time() - t0
        ok = gate_ok and shape_err < 1e-3 and l2_drift < 1e-8 and elapsed < 60.0
        report(7, ok, f"residual {info['residual']:.2e}, recentered shape error "
                      f"{shape_err:.2e}, L2 drift {l2_drift:.2e} ({elapsed:.1f}s)")
