"""Operator-facing command line.

Subcommands: solve, sweep-gamma, probe-kernel, probe-estimates,
picard-check, invariants.  main() runs one lifecycle for all of them.
It loads the line-oriented --config; probe-estimates without one gets an
empty section, which its manifest records as {"probe-estimates": {}}.
The command reads and checks its whole section, and any snapshot the
section names, then main rejects every key left unread, all before
--out exists.  Then the command writes its artifacts into --out and main
drops a manifest.json (argv, config, seed, version, wall clock)
sufficient to reproduce the run bit-exactly.  [sweep-gamma] sets the
X^s trace exponent with its `s` key only.

Exit codes, each with a one-line message: 0 success, 1 configuration or
input error, 2 run aborted (numerical failure), 3 invariant violation
(invariants command only); the README lists the cases.

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
from .errors import (BlowupError, BoxTooSmallError, ConfigError, ContractionFailureError,
                     LatticeSizeError, MeanZeroViolation, NonFiniteError, QuadratureAccuracyError)
from .estimates import ALL_TAGS, run_tag
from .io import ensure_dir, fmt, read_snapshot, svg_loglog, write_csv, write_json, write_snapshot
from .kernel import KernelSpec, kernel_mixed_norm, region_decay_check
from .limits import SweepConfig, conservation_drift, rotation_limit_sweep
from .norms import norm_record
from .solver import (
    MEAN_ZERO_ATOL,
    SolverConfig,
    check_initial_mean,
    evolve,
    gaussian_bump,
    hamiltonian,
    picard_iterate,
    scaled_to_h1,
    soliton_initial_data,
)
from .spectral import Field, Grid

log = logging.getLogger("ostrovsky")

DEFAULT_SEED = 0
DEFAULT_DRAWS = 100  # probe-estimates ensemble size


def _setup_logging():
    level_name = os.environ.get("OSTROVSKY_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"OSTROVSKY_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _grid_from(section) -> Grid:
    return Grid(section.get_int("n"), section.get_float("L"))


def _given(section, **readers) -> dict:
    """Keyword arguments for the keys the section holds, each read by its
    accessor; an absent key is not passed, so the callee's default applies."""
    return {key: read(key) for key, read in readers.items() if key in section.keys()}


def _jobs(args) -> dict:
    """jobs as a keyword argument when --jobs was given; otherwise nothing,
    so the callee's default applies."""
    return {} if args.jobs is None else {"jobs": args.jobs}


def _solver_config(section, grid: Grid, gamma=None, trace_key="trace_s") -> SolverConfig:
    """SolverConfig from the section; trace_key is the key read into trace_s."""
    options = _given(section, integrator=section.get_str, cfl_safety=section.get_float)
    if trace_key in section.keys():
        options["trace_s"] = section.get_float(trace_key)
    if "nonlinearity" in section.keys():
        options["include_nonlinearity"] = section.get_int("nonlinearity") != 0
    return SolverConfig(
        beta=section.get_float("beta"),
        gamma=section.get_float("gamma") if gamma is None else gamma,
        k=section.get_int("k"),
        dt=section.get_float("dt"),
        t_end=section.get_float("t_end"),
        grid=grid,
        **options,
    )


def _initial_field(section, grid: Grid, cfg: SolverConfig) -> Field:
    kind = section.get_str("initial", "gaussian")
    if kind == "gaussian":
        u0 = gaussian_bump(grid, **_given(section, amplitude=section.get_float,
                                          width=section.get_float))
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
        keep_background = section.get_int("keep_background", 1)  # used at gamma = 0 only
        if cfg.gamma == 0.0 and keep_background:
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


def cmd_solve(section, args):
    grid = _grid_from(section)
    cfg = _solver_config(section, grid)
    u0 = _initial_field(section, grid, cfg)
    check_initial_mean(u0, cfg)
    snapshot_every = section.get_int("snapshot_every", 10)

    def run(out):
        traj = evolve(u0, cfg, snapshot_every)
        for i, (t, field) in enumerate(zip(traj.times, traj.fields)):
            write_snapshot(os.path.join(out, f"snapshot_{i:06d}.dat"),
                           field, cfg.beta, cfg.gamma, cfg.k, float(t))
        write_csv(os.path.join(out, "traces.csv"), {
            "t": traj.times, "l2": traj.l2, "hamiltonian": traj.hamiltonian,
            "hs": traj.hs, "xs": traj.xs,
        })
        log.info("solve finished: %d steps, %d snapshots", traj.n_steps, len(traj.fields))
        return 0, {"steps": traj.n_steps, "snapshots": len(traj.fields),
                   "nonlinear_evaluations": traj.nonlinear_evaluations}
    return run


def cmd_sweep_gamma(section, args):
    grid = _grid_from(section)
    section.get_float("gamma", 1.0)  # accepted but unused: each sweep point sets gamma
    template = _solver_config(section, grid, gamma=1.0, trace_key="s")
    sweep = SweepConfig(
        template=template,
        t_compare=section.get_float("t_compare"),
        **_given(section, gammas=section.get_floats, snapshot_every=section.get_int,
                 floor_factor=section.get_float),
    )
    u0 = _initial_field(section, grid, template)
    check_initial_mean(u0, template)  # every sweep gamma is positive, as the template's

    def run(out):
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
        log.info("sweep finished: slope %.3f over %d points", report.slope, len(report.gammas))
        return 0, {"points": len(report.gammas)}
    return run


def cmd_probe_kernel(section, args):
    beta = section.get_float("beta", -1.0)
    gamma = section.get_float("gamma", 1.0)
    spec_options = {"threshold": section.get_float("a")} if "a" in section.keys() else {}
    gamma_exp = section.get_float("gamma_exp", 8.0)
    blocks = section.get_floats("blocks", (16.0, 32.0, 64.0))
    sampling = _given(section, samples_per_region=section.get_int)

    def run(out):
        rows = {"region": [], "x": [], "t": [], "absK": [], "bound": [], "ratio": []}
        counts = {"blocks": len(blocks)}
        summary = {"blocks": {}, "gamma_exp": gamma_exp, "quadrature": {}}
        for n_block in blocks:
            spec = KernelSpec(n_block, beta, gamma, **spec_options)
            report = region_decay_check(spec, seed=args.seed, **sampling, **_jobs(args))
            counts["samples_per_region"] = report.samples_per_region
            mixed = kernel_mixed_norm(spec, gamma_exp, **_jobs(args))
            for reg in report.regions.values():  # region column: the RegionTag value
                columns = ([float(reg.tag.value)] * reg.x.size, reg.x, reg.t, reg.abs_k,
                           reg.bound, reg.ratios)
                for name, values in zip(rows, columns):
                    rows[name].extend(values)
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
                "accepted_error": spec.accepted_error,
            }
        write_csv(os.path.join(out, "kernel_regions.csv"), rows)
        write_json(os.path.join(out, "kernel_summary.json"), summary)
        return 0, counts
    return run


def cmd_probe_estimates(section, args):
    # a flag given on the command line wins over the config's key; the
    # seed resolved here is the one the manifest records
    seed, draws = section.get_int("seed", DEFAULT_SEED), section.get_int("draws", DEFAULT_DRAWS)
    args.seed = seed if args.seed is None else args.seed
    draws = draws if args.draws is None else args.draws
    overrides = _given(section, n=section.get_int, n_t=section.get_int, **dict.fromkeys(
        ("beta", "gamma", "b", "epsilon", "threshold", "law_param", "t_window", "length"),
        section.get_float))
    tag = args.which
    if tag not in ALL_TAGS:
        raise ConfigError(f"unknown tag {tag!r}; valid tags: {', '.join(ALL_TAGS)}")

    def run(out):
        report = run_tag(tag, seed=args.seed, n_draws=draws, **_jobs(args), **overrides)
        # no refinement, no stability measured
        factor = report.stability_factor if report.refinement_max else None
        write_csv(os.path.join(out, f"ratios_{tag}.csv"), {
            "draw": np.arange(report.ratios.size, dtype=float),
            "lhs": report.lhs, "rhs": report.rhs, "ratio": report.ratios,
        })
        write_json(os.path.join(out, f"summary_{tag}.json"), {
            "tag": report.tag,
            "max_ratio": report.max_ratio,
            "refinement_factor": factor,
            "refinements": report.refinement_max,
            "refinement_skipped": report.refinement_skipped,
            "skipped": report.skipped,
            "seed": args.seed,
            "draws": draws,
        })
        log.info("tag %s: max ratio %.4g, stability %s", tag, report.max_ratio,
                 "none" if factor is None else f"{factor:.3f}")
        return 0, {"draws": draws, "skipped": report.skipped}
    return run


def cmd_picard_check(section, args):
    grid = _grid_from(section)
    cfg = _solver_config(section, grid)
    u0 = _initial_field(section, grid, cfg)
    check_initial_mean(u0, cfg)  # the dx^{-1}u term at gamma > 0, cross-check or not
    delta = section.get_float("delta")
    n_iters = section.get_int("iterations", 12)
    cross_check = section.get_int("cross_check", 1)

    def run(out):
        stf, diffs = picard_iterate(u0, cfg, delta, n_iters)
        final = Field.from_samples(grid, stf.values[-1])
        cross = None
        if cross_check:
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
        log.info("picard: converged=%s after %d iterations", converged, len(diffs))
        return 0, {"iterations": len(diffs)}
    return run


def cmd_invariants(section, args):
    """Conservation suite on a stored snapshot: short re-evolution, then
    L2 / Hamiltonian / mean drift against their gates."""
    field, header = read_snapshot(section.get_str("snapshot"))
    grid = field.grid
    horizon = section.get_float("horizon", 0.1)
    cfg = SolverConfig(
        beta=float(header["beta"]), gamma=float(header["gamma"]), k=int(header["k"]),
        dt=horizon, t_end=horizon, grid=grid,
    )
    dt = section.get_float("dt", 0.0)
    if dt <= 0:
        # half the step the CFL guard admits, shortened to divide the horizon
        dt = horizon / max(1, int(math.ceil(horizon / (0.5 * cfg.timestep_bound(field)))))
    cfg = cfg.replace(dt=dt)

    def run(out):
        traj = evolve(field, cfg, snapshot_every=max(1, int(round(horizon / dt / 16))))
        l2_drift, h_drift, drift_ok = conservation_drift(traj)
        mean_max = float(max(abs(f.mean()) for f in traj.fields))
        mean_ok = (mean_max < MEAN_ZERO_ATOL) if cfg.gamma > 0 else \
            (abs(traj.fields[-1].mean() - field.mean()) < MEAN_ZERO_ATOL)
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
        print(f"invariants: {'pass' if passed else 'FAIL'} "
              f"(l2 drift {l2_drift:.3e}, H drift {h_drift:.3e})")
        return (0 if passed else 3), {"steps": traj.n_steps}
    return run


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
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base RNG seed")
        return p

    common(sub.add_parser("solve", help="time-evolve one initial datum"))
    sweep = common(sub.add_parser("sweep-gamma", help="weak-rotation limit rate study"))
    kernel = common(sub.add_parser("probe-kernel", help="oscillatory kernel decay checks"))
    pe = common(sub.add_parser("probe-estimates", help="estimate-zoo ratio ensembles"),
                config_required=False)
    pe.add_argument("--which", required=True, help="estimate tag")
    pe.add_argument("--draws", type=int, default=None,
                    help=f"ensemble size (default: the config's draws, else {DEFAULT_DRAWS})")
    # None tells an absent flag from one given, so an explicit flag beats the config
    pe.set_defaults(seed=None)
    common(sub.add_parser("picard-check", help="integral-equation fixed point oracle"))
    common(sub.add_parser("invariants", help="conservation suite on a snapshot"))
    for pooled in (sweep, kernel, pe):  # sweep-gamma accepts --jobs, without effect
        pooled.add_argument("--jobs", type=int, default=None,
                            help="worker pool size (default: the command's own)")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        t0 = time.time()
        config = load_config(args.config) if args.config else \
            Config({args.command: {}}, source="<flags>")
        section = config.section(args.command)
        run = COMMANDS[args.command](section, args)
        section.reject_unread()
        out = ensure_dir(args.out)
        code, counts = run(out)
        RunManifest(command=args.command, argv=argv, config=config.as_dict(), seed=args.seed,
                    out_dir=str(out), version=__version__, wall_clock_s=time.time() - t0,
                    counts=counts, started_unix=t0).write(os.path.join(out, "manifest.json"))
        return code
    except (ConfigError, FileNotFoundError, LatticeSizeError, MeanZeroViolation) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (BlowupError, BoxTooSmallError, ContractionFailureError, NonFiniteError,
            QuadratureAccuracyError) as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
