"""Golden numbers of the shipped configs: recording and checking.

tests/golden.json holds, per recorded command, the numbers its artifacts
carry on the shipped config, each with an absolute tolerance, and the
SHA-256 of its CSV.  TestShippedConfigs::test_runs checks the numbers on
the run it already makes, and TestShippedConfigs::test_csv_hashes the
hashes of that same run.  Record the file again with

    PYTHONPATH=src python tests/golden.py

from the repository root.  Tolerances and hashes always come from the
fresh run.  When every fresh number lies within its tolerance of the
recorded one (a last-digit change of the quadrature), the recorded
numbers are kept; otherwise every number is recorded again, and the old
and new values belong in CHANGES.md.

Tolerances follow from the kernel's acceptance rule, not from observed
moves: two runs that each meet spec.accepted_error may differ by
2 * accepted_error in any |K| value, and each field's tolerance is the
largest move that change can make in the field (see _kernel_tolerances).
Hashes are compared only on the numpy version and platform they were
recorded with.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from ostrovsky import kernel
from ostrovsky.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SHIPPED = {"probe-kernel": ("scripts/configs/probe_kernel.cfg", ("kernel_regions.csv",))}


def environment() -> dict:
    """What the CSV bytes depend on besides the code."""
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_capturing_kernel(argv):
    """main(argv), the block, points and values of each _kernel_values
    call in call order (per block the decay samples, the ray and the
    mixed-norm grid), and the arguments of each kernel._mixed_norm_terms
    call (one per block)."""
    calls, terms = [], []
    values_fn, terms_fn = kernel._kernel_values, kernel._mixed_norm_terms

    def capture_values(xs, ts, spec, stats, jobs=None):
        values, achieved = values_fn(xs, ts, spec, stats, jobs)
        calls.append((spec, np.asarray(xs, dtype=float), np.asarray(ts, dtype=float), values))
        return values, achieved

    def capture_terms(*args):
        terms.append(args)
        return terms_fn(*args)

    kernel._kernel_values, kernel._mixed_norm_terms = capture_values, capture_terms
    try:
        assert main(argv) == 0
    finally:
        kernel._kernel_values, kernel._mixed_norm_terms = values_fn, terms_fn
    return calls, terms


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


def _kernel_tolerances(decay, ray, terms) -> dict:
    """Absolute tolerance of each summary field of one block when every |K|
    may move by eps = 2 * accepted_error.

    constants: the max of |K|/bound moves by at most eps / min(bound).
    ray_exponent: the pooled slope is sum(lt*lk)/sum(lt^2) with lt and lk
    de-meaned per ray; sum(lt) = 0 per ray, so a move d_i <= eps/|K_i| in
    log|K_i| moves it by at most sum(|lt_i| * d_i) / sum(lt^2).
    mixed_norm, mixed_norm_scaled, tail_fraction: mixed_norm_tolerances
    on the block's sup_t |K|, which moves by at most eps.
    """
    spec, xs, ts, values = decay
    eps = 2.0 * spec.accepted_error
    m = xs.size // 3
    constants = {}
    for j, tag in enumerate(kernel.RegionTag):
        part = slice(j * m, (j + 1) * m)
        bound = kernel._region_bound(tag, xs[part], ts[part], spec)
        constants[tag.name] = eps / float(np.min(bound))

    _, _, ray_t, ray_values = ray
    lt = np.log(ray_t).reshape(len(kernel.RAY_OFFSETS), -1)
    lt = lt - lt.mean(axis=1, keepdims=True)
    d_log = eps / np.abs(ray_values).reshape(lt.shape)
    ray_tol = float(np.sum(np.abs(lt) * d_log) / np.sum(lt**2))

    _, _, n_block, gamma_exp, _ = terms
    mixed_tol, fraction_tol = mixed_norm_tolerances(*terms, eps)
    return {
        "ray_exponent": ray_tol,
        "constants": constants,
        "mixed_norm": mixed_tol,
        "mixed_norm_scaled": mixed_tol / n_block ** ((gamma_exp - 2.0) / gamma_exp),
        "tail_fraction": fraction_tol,
    }


def record_probe_kernel(out: Path) -> dict:
    config, csvs = SHIPPED["probe-kernel"]
    calls, terms = _run_capturing_kernel(["probe-kernel", "--config", str(ROOT / config),
                                          "--out", str(out)])
    summary = json.loads((out / "kernel_summary.json").read_text())
    blocks = {}
    for i, (name, numbers) in enumerate(summary["blocks"].items()):
        tolerances = _kernel_tolerances(*calls[3 * i:3 * i + 2], terms[i])
        blocks[name] = {
            field: ({tag: {"value": value, "tolerance": tolerances[field][tag]}
                     for tag, value in numbers[field].items()}
                    if field == "constants" else
                    {"value": numbers[field], "tolerance": tolerances[field]})
            for field in tolerances
        }
    return {
        "config": config,
        "tolerance_basis": "each |K| may move by 2 * accepted_error; tolerances are the "
                           "largest move that makes in each field (tests/golden.py)",
        "blocks": blocks,
        "sha256": {name: sha256(out / name) for name in csvs},
        **environment(),
    }


def _leaves(blocks: dict):
    """((block, field, tag or None), {"value", "tolerance"}) per recorded number."""
    for name, fields in blocks.items():
        for field, entry in fields.items():
            if field == "constants":
                for tag, leaf in entry.items():
                    yield (name, field, tag), leaf
            else:
                yield (name, field, None), entry


def check_numbers(command: str, out) -> None:
    """Assert that the numbers of a run of command's shipped config, with
    artifacts in out, lie within their recorded tolerances."""
    golden = json.loads(GOLDEN.read_text())[command]
    summary = json.loads((Path(out) / "kernel_summary.json").read_text())["blocks"]
    moves = []
    for (name, field, tag), recorded in _leaves(golden["blocks"]):
        value = summary[name][field] if tag is None else summary[name][field][tag]
        if not abs(value - recorded["value"]) <= recorded["tolerance"]:
            moves.append(f"block {name} {field} {tag or ''}: {value!r} against recorded "
                         f"{recorded['value']!r} +- {recorded['tolerance']:.3g}")
    assert not moves, "\n".join(moves)


def hash_mismatch(command: str) -> str | None:
    """Why command's recorded hashes cannot be compared here, or None."""
    golden = json.loads(GOLDEN.read_text())[command]
    here = environment()
    recorded = {key: golden[key] for key in here}
    return None if here == recorded else f"hashes recorded with {recorded}, this run has {here}"


def check_hashes(command: str, out) -> None:
    for name, digest in json.loads(GOLDEN.read_text())[command]["sha256"].items():
        assert sha256(Path(out) / name) == digest, f"{name} differs from the recorded bytes"


def main_record() -> None:
    """Write tests/golden.json from a fresh run, keeping the recorded numbers
    when every fresh one lies within its tolerance of them."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = record_probe_kernel(Path(tmp) / "out")
    if GOLDEN.exists():
        recorded = dict(_leaves(json.loads(GOLDEN.read_text())["probe-kernel"]["blocks"]))
        leaves = list(_leaves(fresh["blocks"]))
        if all(key in recorded and abs(leaf["value"] - recorded[key]["value"]) <= leaf["tolerance"]
               for key, leaf in leaves):
            for key, leaf in leaves:
                leaf["value"] = recorded[key]["value"]
    GOLDEN.write_text(json.dumps({"probe-kernel": fresh}, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main_record())
