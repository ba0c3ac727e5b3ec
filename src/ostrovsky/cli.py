"""Operator-facing command line.

Subcommands: solve, sweep-gamma, probe-kernel, probe-estimates,
picard-check, invariants.  Every command reads a line-oriented config
(plus a few flag overrides), writes its artifacts into --out, and drops
a manifest.json sufficient to reproduce the run bit-exactly.

Exit codes: 0 success, 1 configuration error, 2 run aborted (blowup,
overflow in the nonlinearity, or Picard contraction failure),
3 invariant violation (invariants command only).

OSTROVSKY_LOG in {error, info, debug} controls stderr logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import Config, RunManifest, load_config
from .errors import BlowupError, ConfigError, ContractionFailureError, NonFiniteError
from .estimates import ALL_TAGS, run_tag
from .io import ensure_dir, fmt, read_snapshot, svg_loglog, write_csv, write_json, write_snapshot
from .kernel import KernelSpec, kernel_mixed_norm, region_decay_check
from .limits import SweepConfig, conservation_drift, rotation_limit_sweep
from .norms import norm_record
from .solver import (
    SolverConfig,
    evolve,
    gaussian_bump,
    hamiltonian,
    picard_iterate,
    scaled_to_h1,
    soliton_initial_data,
)
from .spectral import Field, Grid

log = logging.getLogger("ostrovsky")


def _setup_logging():
    level_name = os.environ.get("OSTROVSKY_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"OSTROVSKY_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _grid_from(section) -> Grid:
    return Grid(section.get_int("n"), section.get_float("L"))


def _solver_config(section, grid: Grid, gamma=None) -> SolverConfig:
    return SolverConfig(
        beta=section.get_float("beta"),
        gamma=section.get_float("gamma") if gamma is None else gamma,
        k=section.get_int("k"),
        dt=section.get_float("dt"),
        t_end=section.get_float("t_end"),
        grid=grid,
        integrator=section.get_str("integrator", "ifrk4"),
        cfl_safety=section.get_float("cfl_safety", 0.5),
        include_nonlinearity=section.get_int("nonlinearity", 1) != 0,
        trace_s=section.get_float("trace_s", 2.0),
    )


def _initial_field(section, grid: Grid, cfg: SolverConfig) -> Field:
    kind = section.get_str("initial", "gaussian")
    if kind == "gaussian":
        u0 = gaussian_bump(
            grid,
            amplitude=section.get_float("amplitude", 0.5),
            width=section.get_float("width", 2.0),
        )
        target = section.get_float("h1_norm", 0.0)
        if target > 0:
            u0 = scaled_to_h1(u0, target)
        return u0
    if kind == "soliton":
        field, info = soliton_initial_data(
            section.get_float("speed", 0.7), cfg.k, cfg.beta, grid
        )
        log.info("soliton residual %.3e, projection defect %.3e",
                 info["residual"], info["projection_defect"])
        if cfg.gamma == 0.0 and section.get_int("keep_background", 1):
            c = field.coeffs.copy()
            c[0] = info["projection_defect"]
            return Field(grid, c)
        return field
    if kind.startswith("file:"):
        field, _ = read_snapshot(kind[5:])
        if field.grid != grid:
            raise ConfigError("snapshot grid does not match [solve] n/L")
        return field
    raise ConfigError(f"unknown initial data kind {kind!r}")


def _write_manifest(out_dir, command, config: Config, seed, t0, counts):
    manifest = RunManifest(
        command=command,
        config=config.as_dict(),
        seed=seed,
        out_dir=str(out_dir),
        version=__version__,
        wall_clock_s=time.time() - t0,
        counts=counts,
    )
    manifest.write(os.path.join(out_dir, "manifest.json"))


def cmd_solve(args) -> int:
    t0 = time.time()
    config = load_config(args.config)
    section = config.section("solve")
    grid = _grid_from(section)
    cfg = _solver_config(section, grid)
    u0 = _initial_field(section, grid, cfg)
    snapshot_every = section.get_int("snapshot_every", 10)
    out = ensure_dir(args.out)
    traj = evolve(u0, cfg, snapshot_every)
    for i, (t, field) in enumerate(zip(traj.times, traj.fields)):
        write_snapshot(os.path.join(out, f"snapshot_{i:06d}.dat"),
                       field, cfg.beta, cfg.gamma, cfg.k, float(t))
    write_csv(os.path.join(out, "traces.csv"), {
        "t": traj.times, "l2": traj.l2, "hamiltonian": traj.hamiltonian,
        "hs": traj.hs, "xs": traj.xs,
    })
    _write_manifest(out, "solve", config, args.seed, t0,
                    {"steps": traj.n_steps, "snapshots": len(traj.fields)})
    log.info("solve finished: %d steps, %d snapshots", traj.n_steps, len(traj.fields))
    return 0


def cmd_sweep_gamma(args) -> int:
    t0 = time.time()
    config = load_config(args.config)
    section = config.section("sweep-gamma")
    grid = _grid_from(section)
    template = _solver_config(section, grid, gamma=1.0)
    sweep = SweepConfig(
        template=template,
        t_compare=section.get_float("t_compare"),
        gammas=section.get_floats("gammas", (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)),
        s=section.get_float("s", 2.0),
        snapshot_every=section.get_int("snapshot_every", 10),
        floor_factor=section.get_float("floor_factor", 10.0),
        jobs=args.jobs,
    )
    u0 = _initial_field(section, grid, template)
    out = ensure_dir(args.out)
    report = rotation_limit_sweep(sweep, u0)
    write_csv(os.path.join(out, "rate.csv"), {
        "gamma": np.asarray(report.gammas),
        "error": report.errors,
        "floor_flag": report.floor_flags.astype(float),
    })
    write_json(os.path.join(out, "rate.json"), {
        "slope": report.slope,
        "intercept": report.intercept,
        "fit_residual": report.fit_residual,
        "self_error": report.self_error,
        "floor_limited": report.floor_limited,
        "gronwall_constants": list(map(float, report.gronwall_constants)),
        "failures": {fmt(k): v for k, v in report.failures.items()},
    })
    svg_loglog(
        zip(report.gammas, report.errors),
        path=os.path.join(out, "rate.svg"),
        fit=(report.slope, report.intercept) if math.isfinite(report.slope) else None,
        title="weak-rotation limit", xlabel="gamma", ylabel="L2 error",
    )
    _write_manifest(out, "sweep-gamma", config, args.seed, t0,
                    {"points": len(report.gammas)})
    log.info("sweep finished: slope %.3f over %d points", report.slope, len(report.gammas))
    return 0


def cmd_probe_kernel(args) -> int:
    t0 = time.time()
    config = load_config(args.config)
    section = config.section("probe-kernel")
    beta = section.get_float("beta", -1.0)
    gamma = section.get_float("gamma", 1.0)
    threshold = section.get_float("a", 1.0)
    gamma_exp = section.get_float("gamma_exp", 8.0)
    blocks = section.get_floats("blocks", (16.0, 32.0, 64.0))
    samples = section.get_int("samples_per_region", 60)
    out = ensure_dir(args.out)

    rows = {"region": [], "x": [], "t": [], "absK": [], "bound": [], "ratio": []}
    summary = {"blocks": {}, "gamma_exp": gamma_exp, "quadrature": {}}
    region_codes = {"NEAR_FIELD": 1.0, "NON_STATIONARY": 2.0, "STATIONARY": 3.0}
    for n_block in blocks:
        spec = KernelSpec(n_block, beta, gamma, threshold=threshold)
        report = region_decay_check(spec, samples_per_region=samples, seed=args.seed)
        mixed = kernel_mixed_norm(spec, gamma_exp)
        for name, reg in report.regions.items():
            for x, t, a_k, bd, r in zip(reg.x, reg.t, reg.abs_k, reg.bound, reg.ratios):
                rows["region"].append(region_codes[name])
                rows["x"].append(x)
                rows["t"].append(t)
                rows["absK"].append(a_k)
                rows["bound"].append(bd)
                rows["ratio"].append(r)
        summary["blocks"][fmt(n_block)] = {
            "ray_exponent": report.ray_exponent,
            "constants": {k: v.empirical_constant for k, v in report.regions.items()},
            "mixed_norm": mixed.value,
            "mixed_norm_scaled": mixed.scaled_ratio,
            "tail_fraction": mixed.tail_fraction,
        }
        summary["quadrature"][fmt(n_block)] = {
            "decay": dataclasses.asdict(report.quadrature),
            "mixed_norm": dataclasses.asdict(mixed.quadrature),
        }
    write_csv(os.path.join(out, "kernel_regions.csv"), rows)
    write_json(os.path.join(out, "kernel_summary.json"), summary)
    _write_manifest(out, "probe-kernel", config, args.seed, t0,
                    {"blocks": len(blocks), "samples_per_region": samples})
    return 0


def cmd_probe_estimates(args) -> int:
    t0 = time.time()
    overrides = {}
    seed, draws = args.seed, args.draws
    config = None
    if args.config:
        config = load_config(args.config)
        section = config.section("probe-estimates")
        seed = section.get_int("seed", seed)
        draws = section.get_int("draws", draws)
        for key in ("beta", "gamma", "b", "epsilon", "threshold", "law_param",
                    "t_window", "length"):
            if key in section.keys():
                overrides[key] = section.get_float(key)
        for key in ("n", "n_t"):
            if key in section.keys():
                overrides[key] = section.get_int(key)
    tag = args.which
    if tag not in ALL_TAGS:
        print(f"unknown tag {tag!r}; valid tags: {', '.join(ALL_TAGS)}", file=sys.stderr)
        return 1
    out = ensure_dir(args.out)
    report = run_tag(tag, seed=seed, n_draws=draws, jobs=args.jobs, **overrides)
    write_csv(os.path.join(out, f"ratios_{tag}.csv"), {
        "draw": np.arange(report.ratios.size, dtype=float),
        "lhs": report.lhs, "rhs": report.rhs, "ratio": report.ratios,
    })
    write_json(os.path.join(out, f"summary_{tag}.json"), {
        "tag": report.tag,
        "max_ratio": report.max_ratio,
        "refinement_factor": report.stability_factor,
        "refinements": report.refinement_max,
        "skipped": report.skipped,
        "seed": seed,
        "draws": draws,
    })
    cfg_dict = config.as_dict() if config else {"probe-estimates": {"which": tag}}
    manifest_cfg = Config(cfg_dict, source=args.config or "<flags>")
    _write_manifest(out, "probe-estimates", manifest_cfg, seed, t0,
                    {"draws": draws, "skipped": report.skipped})
    log.info("tag %s: max ratio %.4g, stability %.3f", tag, report.max_ratio,
             report.stability_factor)
    return 0


def cmd_picard_check(args) -> int:
    t0 = time.time()
    config = load_config(args.config)
    section = config.section("picard-check")
    grid = _grid_from(section)
    cfg = _solver_config(section, grid)
    u0 = _initial_field(section, grid, cfg)
    delta = section.get_float("delta")
    n_iters = section.get_int("iterations", 12)
    out = ensure_dir(args.out)
    stf, diffs = picard_iterate(u0, cfg, delta, n_iters)
    final = Field.from_samples(grid, stf.values[-1])
    cross = None
    if section.get_int("cross_check", 1):
        traj = evolve(u0, cfg.replace(t_end=delta), snapshot_every=10**9)
        cross = (traj.final() - final).l2_norm()
    u0_l2 = max(u0.l2_norm(), 1e-300)
    converged = bool(diffs and diffs[-1] < 1e-10 * u0_l2)
    factors = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]
    write_csv(os.path.join(out, "picard_diffs.csv"), {
        "iteration": np.arange(1.0, len(diffs) + 1.0),
        "sup_l2_difference": np.asarray(diffs),
    })
    write_json(os.path.join(out, "picard.json"), {
        "converged": converged,
        "iterations": len(diffs),
        "differences": list(map(float, diffs)),
        "contraction_factors": list(map(float, factors)),
        "evolve_cross_check_l2": cross,
        "delta": delta,
    })
    _write_manifest(out, "picard-check", config, args.seed, t0,
                    {"iterations": len(diffs)})
    log.info("picard: converged=%s after %d iterations", converged, len(diffs))
    return 0


INVARIANT_MEAN = 1e-13


def cmd_invariants(args) -> int:
    """Conservation suite on a stored snapshot: short re-evolution, then
    L2 / Hamiltonian / mean drift against their gates."""
    t0 = time.time()
    config = load_config(args.config)
    section = config.section("invariants")
    field, header = read_snapshot(section.get_str("snapshot"))
    grid = field.grid
    horizon = section.get_float("horizon", 0.1)
    dt = section.get_float("dt", 0.0)
    if dt <= 0:
        umax = float(np.max(np.abs(field.samples())))
        dt = 0.25 * grid.dx / max(1.0, umax) ** int(header["k"])
        dt = horizon / max(1, int(math.ceil(horizon / dt)))
    cfg = SolverConfig(
        beta=float(header["beta"]), gamma=float(header["gamma"]), k=int(header["k"]),
        dt=dt, t_end=horizon, grid=grid,
    )
    out = ensure_dir(args.out)
    traj = evolve(field, cfg, snapshot_every=max(1, int(round(horizon / dt / 16))))
    l2_drift, h_drift, drift_ok = conservation_drift(traj)
    mean_max = float(max(abs(f.mean()) for f in traj.fields))
    mean_ok = (mean_max < INVARIANT_MEAN) if cfg.gamma > 0 else \
        (abs(traj.fields[-1].mean() - field.mean()) < INVARIANT_MEAN)
    passed = bool(drift_ok and mean_ok)
    payload = {
        "l2_drift": l2_drift,
        "hamiltonian_drift": h_drift,
        "max_abs_mean": mean_max,
        "horizon": horizon,
        "dt": dt,
        "hamiltonian_initial": hamiltonian(field, cfg),
        "norms": [
            norm_record("L2", traj.l2[0]),
            norm_record("Hs", traj.hs[0], s=cfg.trace_s),
            norm_record("Xs", traj.xs[0], s=cfg.trace_s),
        ],
        "passed": passed,
    }
    write_json(os.path.join(out, "invariants.json"), payload)
    _write_manifest(out, "invariants", config, args.seed, t0, {"steps": traj.n_steps})
    print(f"invariants: {'pass' if passed else 'FAIL'} "
          f"(l2 drift {l2_drift:.3e}, H drift {h_drift:.3e})")
    return 0 if passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostrovsky",
        description="Pseudospectral lab for the rotation-modified gKdV equation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="worker pool size")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")

    common(sub.add_parser("solve", help="time-evolve one initial datum"))
    common(sub.add_parser("sweep-gamma", help="weak-rotation limit rate study"))
    common(sub.add_parser("probe-kernel", help="oscillatory kernel decay checks"))
    pe = sub.add_parser("probe-estimates", help="estimate-zoo ratio ensembles")
    common(pe, config_required=False)
    pe.add_argument("--which", required=True, help="estimate tag")
    pe.add_argument("--draws", type=int, default=100, help="ensemble size")
    common(sub.add_parser("picard-check", help="integral-equation fixed point oracle"))
    common(sub.add_parser("invariants", help="conservation suite on a snapshot"))
    return parser


COMMANDS = {
    "solve": cmd_solve,
    "sweep-gamma": cmd_sweep_gamma,
    "probe-kernel": cmd_probe_kernel,
    "probe-estimates": cmd_probe_estimates,
    "picard-check": cmd_picard_check,
    "invariants": cmd_invariants,
}


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (BlowupError, ContractionFailureError, NonFiniteError) as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
