"""Golden numbers of the shipped configs: recording and checking.

tests/golden.json holds, per shipped config (keyed by its file stem), the
numbers its artifacts carry, each with an absolute tolerance, and the
SHA-256 of its CSV and final snapshot.  TestShippedConfigs::test_runs
checks the numbers on the run it already makes, and
TestShippedConfigs::test_csv_hashes the hashes of that same run.  Record
the file again with

    PYTHONPATH=src python tests/golden.py

from the repository root.  Hashes always come from the fresh run.  When
a config's tolerance basis is unchanged and every fresh number lies
within the recorded tolerance of the recorded one (a last-digit change),
that config's recorded numbers and tolerances are kept, so such a record
changes only hashes; otherwise all of them are recorded again from the
fresh run, and the old and new values belong in CHANGES.md.

It also holds, under estimate_zoo, max_ratio and refinement_max of every
estimate tag at seed 2024 with acceptance 6's draw counts (ZOO_DRAWS),
which acceptance 6 checks on the runs it already makes.

Tolerances follow from a stated basis, not from observed moves; each
entry's tolerance_basis names it:
  * probe_kernel: two runs that each meet spec.accepted_error may differ
    by 2 * accepted_error in any |K| value, and each field's tolerance is
    the largest move that change can make in the field (_kernel_tolerances);
  * solve, soliton: each traces.csv column may move by TRACE_ULPS ulps of
    the largest magnitude in that column;
  * sweep_gamma, picard: every L2 difference of two solutions (the sweep
    errors, self_error, the Picard differences, the evolve cross-check)
    may move by DIFFERENCE_SCALE * ||u0||_L2; the slope and the Gronwall
    constants get the largest move that makes in them;
  * probe_estimates, estimate_zoo: each ratio may move by RATIO_ULPS ulps
    of its value, a change of evaluation order in the orbit synthesis and
    the norms' sums; the draws are fixed, so skipped counts are exact.
Hashes are compared only on the numpy version and platform they were
recorded with.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from ostrovsky import cli, kernel, limits
from ostrovsky.cli import main
from ostrovsky.config import load_config
from ostrovsky.estimates import run_tag

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# config stem: (command, config, artifacts whose SHA-256 is recorded)
SHIPPED = {
    "solve": ("solve", "scripts/configs/solve.cfg", ("traces.csv", "snapshot_000010.dat")),
    "soliton": ("solve", "scripts/configs/soliton.cfg", ("traces.csv", "snapshot_000016.dat")),
    "sweep_gamma": ("sweep-gamma", "scripts/configs/sweep_gamma.cfg", ("rate.csv",)),
    "picard": ("picard-check", "scripts/configs/picard.cfg", ("picard_diffs.csv",)),
    "probe_kernel": ("probe-kernel", "scripts/configs/probe_kernel.cfg",
                     ("kernel_regions.csv",)),
    "probe_estimates": ("probe-estimates", "scripts/configs/probe_estimates.cfg",
                        ("ratios_2.057.csv",)),
}
# arguments a shipped config's run takes besides --config and --out
EXTRA_ARGS = {"probe_estimates": ("--which", "2.057")}
# acceptance 6's estimate zoo: every tag at seed 2024, draws per tag
ZOO = "estimate_zoo"
ZOO_SEED = 2024
ZOO_DRAWS = {"2.03": 100, "2.05": 100, "2.08": 100, "2.09": 100, "2.027": 100,
             "2.055": 100, "2.057": 100, "2.060": 100, "3.03": 20}
TRACE_ULPS = 256
RATIO_ULPS = 256
DIFFERENCE_SCALE = 1e-13


def environment() -> dict:
    """What the artifact bytes depend on besides the code."""
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def shipped_argv(stem: str) -> list:
    """The command line of a shipped config's run, without --out."""
    command, config, _ = SHIPPED[stem]
    return [command, "--config", str(ROOT / config), *EXTRA_ARGS.get(stem, ())]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextlib.contextmanager
def capturing(module, name):
    """Within the block, module.name records (args, result) of each call
    in the list it yields."""
    calls, original = [], getattr(module, name)

    def capture(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    setattr(module, name, capture)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def read_csv(path) -> dict:
    """Columns of a write_csv file, keyed by name."""
    header, *rows = Path(path).read_text().splitlines()
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    return {name: values[:, i] for i, name in enumerate(header.split(","))}


def _load(out, name):
    return json.loads((Path(out) / name).read_text())


def solve_numbers(out) -> dict:
    """Every traces.csv entry, named by column and row."""
    return {f"{column} {row}": float(value)
            for column, values in read_csv(Path(out) / "traces.csv").items()
            for row, value in enumerate(values)}


def sweep_numbers(out) -> dict:
    rate = _load(out, "rate.json")
    errors = read_csv(Path(out) / "rate.csv")["error"]
    return {"slope": rate["slope"], "self_error": rate["self_error"],
            **{f"error {i}": float(e) for i, e in enumerate(errors)},
            **{f"gronwall_constant {i}": c for i, c in enumerate(rate["gronwall_constants"])}}


def picard_numbers(out) -> dict:
    report = _load(out, "picard.json")
    return {"evolve_cross_check_l2": report["evolve_cross_check_l2"],
            **{f"difference {i}": d for i, d in enumerate(report["differences"])}}


def kernel_numbers(out) -> dict:
    numbers = {}
    for name, fields in _load(out, "kernel_summary.json")["blocks"].items():
        for field, value in fields.items():
            if field == "constants":
                numbers.update({f"{name} constants {tag}": v for tag, v in value.items()})
            else:
                numbers[f"{name} {field}"] = value
    return numbers


def ratio_numbers(max_ratio: float, refinement_max: dict) -> dict:
    return {"max_ratio": max_ratio,
            **{f"refinement_max {name}": value for name, value in refinement_max.items()}}


def estimates_numbers(out) -> dict:
    (summary,) = (_load(out, path.name) for path in Path(out).glob("summary_*.json"))
    return {**ratio_numbers(summary["max_ratio"], summary["refinements"]),
            "skipped": summary["skipped"],
            **{f"refinement_skipped {name}": count
               for name, count in summary["refinement_skipped"].items()}}


def zoo_numbers(reports: dict) -> dict:
    """max_ratio and refinement_max of each tag's RatioReport, named with
    the tag."""
    return {f"{tag} {name}": value for tag, report in reports.items()
            for name, value in ratio_numbers(report.max_ratio, report.refinement_max).items()}


def ratio_tolerances(numbers) -> dict:
    """RATIO_ULPS ulps of each ratio; counts are exact."""
    return {name: 0.0 if isinstance(value, int) else RATIO_ULPS * float(np.spacing(value))
            for name, value in numbers.items()}


RATIO_BASIS = (f"each ratio may move by {RATIO_ULPS} ulps of its value (another evaluation "
               "order of the orbit synthesis and of the norms' sums); skipped counts are exact")

NUMBERS = {"solve": solve_numbers, "sweep-gamma": sweep_numbers,
           "picard-check": picard_numbers, "probe-kernel": kernel_numbers,
           "probe-estimates": estimates_numbers}


def datum_l2(stem: str) -> float:
    """||u0||_L2 of the initial datum the shipped config builds."""
    command, config, _ = SHIPPED[stem]
    section = load_config(ROOT / config).section(command)
    grid = cli._grid_from(section)
    return cli._initial_field(section, grid, cli._solver_config(section, grid)).l2_norm()


def trace_tolerances(out) -> dict:
    """TRACE_ULPS ulps of the largest magnitude in each traces.csv column."""
    return {f"{column} {row}": TRACE_ULPS * np.finfo(float).eps * float(np.max(np.abs(values)))
            for column, values in read_csv(Path(out) / "traces.csv").items()
            for row in range(values.size)}


def slope_tolerance(gammas, errors, d: float) -> float:
    """The largest move of the least-squares slope of log error against
    log gamma when every error moves by at most d.  With lg de-meaned the
    slope is sum(lg * log e) / sum(lg^2), and log e_i moves by at most
    -log(1 - d / e_i)."""
    lg = np.log(gammas)
    lg = lg - lg.mean()
    d_log = -np.log1p(-d / np.asarray(errors))
    return float(np.sum(np.abs(lg) * d_log) / np.sum(lg**2))


def gronwall_tolerance(traj_u, traj_v, gamma: float, d: float) -> float:
    """The largest move of limits.gronwall_consistency_check's c_star when
    every snapshot distance w moves by at most d.

    c_star is the max over the lattice of w' / (M w + |gamma| Mu), with w'
    a linear stencil of w whose absolute weights sum to at most 4/h at
    the ends and 2/(t_{i+1} - t_{i-1}) inside.  M and Mu come from the
    X^s traces, which move at rounding level, and are held fixed.
    """
    report = limits.gronwall_consistency_check(traj_u, traj_v, gamma)
    times = traj_u.times
    w = np.array([(fu - fv).l2_norm() for fu, fv in zip(traj_u.fields, traj_v.fields)])
    weights = np.empty_like(w)
    weights[1:-1] = 2.0 / (times[2:] - times[:-2])
    weights[0], weights[-1] = 4.0 / (times[1] - times[0]), 4.0 / (times[-1] - times[-2])
    m = report.rate_scale
    denom = m * w + abs(gamma) * report.forcing_scale
    ratio = limits._lattice_derivative(w, times) / denom
    return float(np.max((weights * d + np.abs(ratio) * m * d) / (denom - m * d)))


def sweep_tolerances(out, runs, d: float) -> dict:
    """runs: the (traj_u, traj_v, gamma) of each Gronwall check, in sweep
    order.  The slope is fitted on the points neither floor-limited nor
    failing conservation, as limits.rotation_limit_sweep fits it."""
    rate = read_csv(Path(out) / "rate.csv")
    usable = (rate["floor_flag"] == 0.0) & np.array(
        [limits.conservation_drift(traj_u)[2] for traj_u, _, _ in runs])
    tolerances = {"slope": slope_tolerance(rate["gamma"][usable], rate["error"][usable], d),
                  "self_error": d}
    for i, (traj_u, traj_v, gamma) in enumerate(runs):
        tolerances[f"error {i}"] = d
        tolerances[f"gronwall_constant {i}"] = gronwall_tolerance(traj_u, traj_v, gamma, d)
    return tolerances


def mixed_norm_tolerances(sup_k, xs, n_block, gamma_exp, x_max, eps):
    """The largest moves of the mixed norm and of its tail fraction when
    every sup_t |K| on the grid moves by at most eps.

    Both terms of kernel._mixed_norm_terms are nondecreasing in every
    sup_k, so each extreme of the norm sits at sup_k -+ eps, and the tail
    fraction's at the low end of one term and the high end of the other.
    """
    (v_lo, t_lo), (v, t), (v_hi, t_hi) = (
        kernel._mixed_norm_terms(np.maximum(sup_k + d, 0.0), xs, n_block, gamma_exp, x_max)
        for d in (-eps, 0.0, eps))
    norm = [(v_ + t_) ** (2.0 / gamma_exp) for v_, t_ in ((v_lo, t_lo), (v, t), (v_hi, t_hi))]
    return (max(norm[2] - norm[1], norm[1] - norm[0]),
            max(t_hi / v_lo - t / v, t / v - t_lo / v_hi))


def _kernel_tolerances(name, decay, ray, terms) -> dict:
    """Absolute tolerance of each summary field of block name when every
    |K| may move by eps = 2 * accepted_error.  decay and ray are the
    (args, result) of the block's first two _kernel_values calls, terms
    the arguments of its _mixed_norm_terms call.

    constants: the max of |K|/bound moves by at most eps / min(bound).
    ray_exponent: the pooled slope is sum(lt*lk)/sum(lt^2) with lt and lk
    de-meaned per ray; sum(lt) = 0 per ray, so a move d_i <= eps/|K_i| in
    log|K_i| moves it by at most sum(|lt_i| * d_i) / sum(lt^2).
    mixed_norm, mixed_norm_scaled, tail_fraction: mixed_norm_tolerances
    on the block's sup_t |K|, which moves by at most eps.
    """
    (xs, ts, spec, *_), _ = decay
    xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
    eps = 2.0 * spec.accepted_error
    m = xs.size // 3
    tolerances = {}
    for j, tag in enumerate(kernel.RegionTag):
        part = slice(j * m, (j + 1) * m)
        bound = kernel._region_bound(tag, xs[part], ts[part], spec)
        tolerances[f"{name} constants {tag.name}"] = eps / float(np.min(bound))

    (_, ray_t, *_), (ray_values, _) = ray
    lt = np.log(np.asarray(ray_t, dtype=float)).reshape(len(kernel.RAY_OFFSETS), -1)
    lt = lt - lt.mean(axis=1, keepdims=True)
    d_log = eps / np.abs(ray_values).reshape(lt.shape)
    tolerances[f"{name} ray_exponent"] = float(np.sum(np.abs(lt) * d_log) / np.sum(lt**2))

    _, _, n_block, gamma_exp, _ = terms
    mixed_tol, fraction_tol = mixed_norm_tolerances(*terms, eps)
    tolerances[f"{name} mixed_norm"] = mixed_tol
    tolerances[f"{name} mixed_norm_scaled"] = mixed_tol / n_block ** ((gamma_exp - 2.0) / gamma_exp)
    tolerances[f"{name} tail_fraction"] = fraction_tol
    return tolerances


def record(stem: str, out: Path) -> dict:
    """The golden entry of one shipped config, from a fresh run into out."""
    command, config, artifacts = SHIPPED[stem]
    argv = shipped_argv(stem) + ["--out", str(out)]
    if command in ("sweep-gamma", "picard-check"):
        d = DIFFERENCE_SCALE * datum_l2(stem)
    if command == "probe-kernel":
        with capturing(kernel, "_kernel_values") as values, \
                capturing(kernel, "_mixed_norm_terms") as terms:
            assert main(argv) == 0
        tolerances = {}
        for i, name in enumerate(_load(out, "kernel_summary.json")["blocks"]):
            tolerances.update(_kernel_tolerances(name, *values[3 * i:3 * i + 2], terms[i][0]))
        basis = ("each |K| may move by 2 * accepted_error; tolerances are the largest move "
                 "that makes in each field")
    elif command == "sweep-gamma":
        with capturing(limits, "gronwall_consistency_check") as checks:
            assert main(argv) == 0
        tolerances = sweep_tolerances(out, [args for args, _ in checks], d)
        basis = (f"every L2 difference of two solutions may move by {DIFFERENCE_SCALE:g} * "
                 "||u0||_L2; slope and Gronwall constants: the largest move that makes")
    elif command == "picard-check":
        assert main(argv) == 0
        tolerances = dict.fromkeys(picard_numbers(out), d)
        basis = f"every L2 difference of two solutions may move by {DIFFERENCE_SCALE:g} * ||u0||_L2"
    elif command == "probe-estimates":
        assert main(argv) == 0
        tolerances = ratio_tolerances(estimates_numbers(out))
        basis = RATIO_BASIS
    else:
        assert main(argv) == 0
        tolerances = trace_tolerances(out)
        basis = f"each traces.csv column may move by {TRACE_ULPS} ulps of its largest magnitude"
    numbers = NUMBERS[command](out)
    assert sorted(numbers) == sorted(tolerances)
    return {
        "config": config,
        "tolerance_basis": f"{basis} (tests/golden.py)",
        "numbers": {name: {"value": value, "tolerance": tolerances[name]}
                    for name, value in numbers.items()},
        "sha256": {name: sha256(out / name) for name in artifacts},
        **environment(),
    }


def record_zoo() -> dict:
    """The golden entry of acceptance 6's estimate zoo, from fresh runs."""
    reports = {tag: run_tag(tag, seed=ZOO_SEED, n_draws=draws) for tag, draws in ZOO_DRAWS.items()}
    numbers = zoo_numbers(reports)
    tolerances = ratio_tolerances(numbers)
    return {
        "runs": f"run_tag(tag, seed={ZOO_SEED}, n_draws=ZOO_DRAWS[tag]) (tests/golden.py)",
        "tolerance_basis": f"{RATIO_BASIS} (tests/golden.py)",
        "numbers": {name: {"value": value, "tolerance": tolerances[name]}
                    for name, value in numbers.items()},
    }


def check_numbers(stem: str, out) -> None:
    """Assert that the numbers of a run of the shipped config stem, with
    artifacts in out, are the recorded ones within their tolerances."""
    compare(stem, NUMBERS[SHIPPED[stem][0]](out))


def check_zoo(reports) -> None:
    """Assert that max_ratio and refinement_max of the RatioReport of each
    tag in reports are the recorded ones within their tolerances."""
    compare(ZOO, zoo_numbers(reports))


def compare(key: str, fresh: dict) -> None:
    recorded = json.loads(GOLDEN.read_text())[key]["numbers"]
    assert sorted(fresh) == sorted(recorded), "the run reports other numbers than recorded"
    moves = [f"{name}: {fresh[name]!r} against recorded {leaf['value']!r} "
             f"+- {leaf['tolerance']:.3g}"
             for name, leaf in recorded.items()
             if not abs(fresh[name] - leaf["value"]) <= leaf["tolerance"]]
    assert not moves, "\n".join(moves)


def hash_mismatch(stem: str) -> str | None:
    """Why the recorded hashes of stem cannot be compared here, or None."""
    golden = json.loads(GOLDEN.read_text())[stem]
    here = environment()
    recorded = {key: golden[key] for key in here}
    return None if here == recorded else f"hashes recorded with {recorded}, this run has {here}"


def check_hashes(stem: str, out) -> None:
    for name, digest in json.loads(GOLDEN.read_text())[stem]["sha256"].items():
        assert sha256(Path(out) / name) == digest, f"{name} differs from the recorded bytes"


def within_tolerance(fresh: dict, recorded: dict) -> bool:
    """Whether the recorded entry has the fresh one's tolerance basis and
    every fresh number lies within the recorded tolerance of the recorded
    number of the same name."""
    numbers = recorded.get("numbers", {})
    return (recorded.get("tolerance_basis") == fresh["tolerance_basis"]
            and sorted(numbers) == sorted(fresh["numbers"]) and all(
                abs(leaf["value"] - numbers[name]["value"]) <= numbers[name]["tolerance"]
                for name, leaf in fresh["numbers"].items()))


def main_record() -> None:
    """Write tests/golden.json from fresh runs, keeping an entry's recorded
    numbers and tolerances when every fresh number lies within them."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        golden = {stem: record(stem, Path(tmp) / stem) for stem in SHIPPED}
    golden[ZOO] = record_zoo()
    for key, fresh in golden.items():
        if key in old and within_tolerance(fresh, old[key]):
            fresh["numbers"] = old[key]["numbers"]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main_record())
