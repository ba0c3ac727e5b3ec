#!/usr/bin/env python3
"""Benchmark of the ostrovsky lab: end-to-end and per-layer timings.

    python3 labbench/run.py --workload zoo --seed 1 --seconds 25 --trace 0
    python3 labbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads: zoo (the estimate zoo), kernel (oscillatory-kernel probes),
evolve (the solver CLI); `all` runs each in its own process and prints
every metric.  With --trace 0 a run sets up, repeats whole passes over
the workload's operations for --seconds and prints the end-to-end
metrics.  With --trace 1 it prints the per-layer metrics instead, from
serial passes with a span around every public call (see tracing.py).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".labbench_out"

JOBS = 2           # worker threads for the tags and the sweep that accept jobs
MIN_PASSES = 3     # a median needs at least three passes
SETUP_REPEATS = 15  # set-ups timed per run, each in a fresh process

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def _import_program():
    """Put this checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "ostrovsky" / "__init__.py").is_file():
        sys.exit(f"labbench: no package at {SRC / 'ostrovsky'}")
    sys.path.insert(0, str(SRC))
    import ostrovsky
    if Path(ostrovsky.__file__).resolve().parent != (SRC / "ostrovsky").resolve():
        sys.exit(f"labbench: imported ostrovsky from {ostrovsky.__file__}, not {SRC}")


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    lines = 0
    for path in sorted((SRC / "ostrovsky").glob("*.py")):
        lines += sum(1 for line in path.read_text().splitlines() if line.strip())
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "src_lines": lines}


# ------------------------------------------------------------------ passes

def run_pass(wl, jobs: int, tracer=None) -> tuple:
    """One pass over the workload's operations: (wall seconds, raw results)."""
    from workloads import attempt
    raw = {}
    t0 = time.perf_counter()
    for op, thunk in wl.operations(jobs):
        if tracer is None:
            raw[op] = attempt(thunk)
        else:
            with tracer.span(f"op:{op}"):
                raw[op] = attempt(thunk)
    return time.perf_counter() - t0, raw


def tally(wl, outputs: list) -> tuple:
    """(attempted, failed, correct, notes) over the passes of one workload.

    The first pass is checked against the independent computations; an
    operation fails in a pass if it raised, failed those checks, or
    differs from the first pass.  correct is False when any operation
    that ran gave a wrong or irreproducible output."""
    from workloads import Failed
    problems = wl.check(outputs[0])
    notes = [f"{wl.name} {op}: {p}" for op, ps in problems.items() for p in ps]
    correct = not notes
    attempted = failed = 0
    for k, out in enumerate(outputs):
        same = wl.same(outputs[0], out)
        for op in wl.ops:
            attempted += 1
            raised = isinstance(out[op], Failed)
            differs = not raised and not same[op]
            failed += bool(raised or problems[op] or differs)
            if raised:
                notes.append(f"{wl.name} pass {k} {op}: {out[op].text}")
            elif differs and not isinstance(outputs[0][op], Failed):
                notes.append(f"{wl.name} pass {k} {op}: output differs from pass 0")
                correct = False
    return attempted, failed, correct, notes


def _setup_sample(args) -> float:
    """Seconds from starting a fresh interpreter until it has built the
    workload's inputs and could begin its first pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def timed_run(args, run_dir: Path) -> dict:
    """Passes for --seconds, with the set-up samples spread evenly over the
    same time between the passes, so that a burst of load on the host
    moves only a few of them."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, str(run_dir))
    setups, walls, outputs = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while (len(setups) < SETUP_REPEATS
               and len(setups) <= SETUP_REPEATS * elapsed / args.seconds):
            setups.append(_setup_sample(args))
            elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed >= args.seconds:
            break
        wall, raw = run_pass(wl, JOBS)
        walls.append(wall)
        outputs.append(wl.harvest(raw))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct, notes = tally(wl, outputs)
    return {
        "correct": correct, "attempted": attempted, "failed": failed, "notes": notes,
        "metrics": {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                    "peak_rss_mib": peak},
        "passes": walls, "setups": setups,
    }


# ------------------------------------------------------------ traced run

# metric names are fixed by BENCHMARK.json, so the tags are spelled out
TAGS = ("2.03", "2.05", "2.08", "2.09", "2.027", "2.055", "2.057", "2.060", "3.03")
ORBIT_TAGS = ("2.03", "2.05", "2.08", "2.09", "2.055", "2.057", "2.060")

PER_LAYER = dict(
    [(f"spectral.roundtrip_us.n{n}", "us") for n in (256, 1024, 4096)]
    + [("spectral.apply_multiplier_us.n1024", "us"),
       ("norms.xsb_norm_ms", "ms"), ("norms.mixed_norm_ms.t_outer", "ms"),
       ("norms.mixed_norm_ms.x_outer", "ms"), ("norms.h_s_norm_us.n1024", "us"),
       ("norms.x_s_norm_us.n1024", "us")]
    + [(f"solver.nonlinear_term_us.n{n}", "us") for n in (256, 1024, 4096)]
    + [("solver.step_ms.ifrk4.n1024", "ms"), ("solver.step_ms.split_step.n1024", "ms"),
       ("solver.hamiltonian_us.n1024", "us"), ("solver.picard_iterate_s", "s"),
       ("solver.soliton_initial_data_ms", "ms"), ("solver.steps", "count"),
       ("solver.picard_iterations", "count"),
       ("limits.rotation_limit_sweep_s", "s"), ("limits.gronwall_consistency_check_ms", "ms"),
       ("kernel.kernel_eval_us.near_field", "us"), ("kernel.kernel_eval_us.non_stationary", "us"),
       ("kernel.kernel_eval_us.stationary", "us"), ("kernel.region_decay_check_s", "s"),
       ("kernel.stationary_ray_exponent_s", "s"), ("kernel.kernel_mixed_norm_s", "s"),
       ("kernel.points", "count"), ("kernel.skipped_points", "count")]
    + [(f"estimates.run_tag_s.{tag}", "s") for tag in TAGS]
    + [(f"estimates.pair_ms.{tag}", "ms") for tag in ORBIT_TAGS]
    + [("estimates.draw_us", "us"), ("estimates.propagator_orbit_ms", "ms"),
       ("estimates.bilinear_weighted_product_us", "us"), ("estimates.draws", "count"),
       ("estimates.skipped", "count"),
       ("io.write_snapshot_ms.n1024", "ms"), ("io.read_snapshot_ms.n1024", "ms"),
       ("io.write_csv_ms", "ms"), ("io.bytes_written", "B"),
       ("cli.solve_s", "s"), ("cli.sweep-gamma_s", "s"), ("cli.picard-check_s", "s"),
       ("cli.invariants_s", "s")]
    + [(f"layer.{layer}.{kind}_pct", "%") for layer in tracing.LAYERS
       for kind in ("busy", "self")]
    + [(f"layer.{tracing.HARNESS}.self_pct", "%"), ("trace.untraced_wall_s", "s"),
       ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
)

# small numbers kept on a span, from the call's arguments or result
NOTES = {
    "solver.evolve": lambda args, out: out.n_steps,
    "solver.picard_iterate": lambda args, out: len(out[1]),
    "io.write_snapshot": lambda args, out: args[1].grid.n_points,
    "io.read_snapshot": lambda args, out: out[0].grid.n_points,
}


def traced_pass(wl, tracer) -> tuple:
    """A serial pass with every public call wrapped: (wall, raw, window)."""
    tracer.instrument(NOTES)
    try:
        with tracer.span(f"pass:{wl.name}") as span:
            wall, raw = run_pass(wl, 1, tracer)
    finally:
        tracer.restore()
    return wall, raw, (span[4], span[5])


def _pass_figures(wl, spans: list, window: tuple, outputs: dict) -> dict:
    """Totals and per-call samples of the span-derived metrics that
    workload wl owns, for the traced pass inside window."""
    named = tracing.named
    t0, t1 = window

    def total(span_name, a=t0, b=t1):
        return sum(s[5] - s[4] for s in named(spans, span_name, a, b))

    def notes(span_name):
        return [s[6] for s in named(spans, span_name, t0, t1)]

    def each(span_name, scale, note=None):
        return [scale * (s[5] - s[4]) for s in named(spans, span_name, t0, t1)
                if note is None or s[6] == note]

    def op_spans(prefix):
        return [s for s in spans if s[2].startswith(f"op:{prefix}") and t0 <= s[4] and s[5] <= t1]

    fig = {}
    if wl.name == "zoo":
        for tag in TAGS:
            fig[f"estimates.run_tag_s.{tag}"] = sum(
                total("estimates.run_tag", s[4], s[5]) for s in op_spans(tag)
                if s[2] == f"op:{tag}")
        fig["estimates.draws"] = len(notes("estimates.Ensemble.draw"))
        fig["estimates.skipped"] = sum(o["skipped"] for o in outputs.values()
                                       if isinstance(o, dict))
    elif wl.name == "kernel":
        for probe in ("region_decay_check", "stationary_ray_exponent", "kernel_mixed_norm"):
            fig[f"kernel.{probe}_s"] = total(f"kernel.{probe}")
        fig["kernel.points"] = len(notes("kernel.kernel_eval"))
        fig["kernel.skipped_points"] = sum(
            r["skipped"] for o in outputs.values() if isinstance(o, dict) and "regions" in o
            for r in o["regions"].values())
    else:
        for cmd in ("solve", "sweep-gamma", "picard-check", "invariants"):
            fig[f"cli.{cmd}_s"] = sum(total("cli.main", s[4], s[5]) for s in op_spans(cmd))
        fig["solver.picard_iterate_s"] = total("solver.picard_iterate")
        fig["solver.steps"] = sum(notes("solver.evolve"))
        fig["solver.picard_iterations"] = sum(notes("solver.picard_iterate"))
        fig["limits.rotation_limit_sweep_s"] = total("limits.rotation_limit_sweep")
        fig["io.bytes_written"] = wl.bytes_written()
        fig["solver.soliton_initial_data_ms"] = each("solver.soliton_initial_data", 1e3)
        fig["limits.gronwall_consistency_check_ms"] = each(
            "limits.gronwall_consistency_check", 1e3)
        fig["io.write_snapshot_ms.n1024"] = each("io.write_snapshot", 1e3, 1024)
        fig["io.read_snapshot_ms.n1024"] = each("io.read_snapshot", 1e3, 1024)
        fig["io.write_csv_ms"] = each("io.write_csv", 1e3)
    return fig


def _layer_shares(spans: list, window: tuple) -> dict:
    times = tracing.layer_times(spans, *window)
    span = window[1] - window[0]
    share = {f"layer.{layer}.{kind}_pct": 100.0 * times[kind][layer] / span
             for layer in tracing.LAYERS for kind in ("busy", "self")}
    share[f"layer.{tracing.HARNESS}.self_pct"] = 100.0 * times["self"][tracing.HARNESS] / span
    return share


def _combine(figures: list) -> dict:
    """Median over passes of the totals; median over all calls of the
    per-call lists."""
    out = {}
    for key in figures[0]:
        values = [f[key] for f in figures]
        if isinstance(values[0], list):
            merged = [v for vs in values for v in vs]
            out[key] = statistics.median(merged) if merged else 0.0
        else:
            out[key] = statistics.median(values)
    return out


def traced_run(args, run_dir: Path) -> dict:
    """Per-layer metrics.  --seconds covers one traced pass of each other
    workload (for the metrics they own), the per-call probes, and then
    pairs of an untraced and a traced serial pass of this one, at least
    one pair.  With --own-only it makes only the pairs and reports only
    the metrics this workload's passes give."""
    import probes
    from workloads import WORKLOADS

    names = [args.workload] if args.own_only else list(WORKLOADS)
    wls = {name: WORKLOADS[name](args.seed, str(run_dir / name)) for name in names}
    own = wls[args.workload]
    tracer = tracing.Tracer()
    _, raw = run_pass(own, JOBS)  # the serial passes must reproduce it bit for bit
    outputs = [own.harvest(raw)]
    metrics, attempted, failed, correct, notes = {}, 0, 0, True, []
    start = time.perf_counter()
    for wl in wls.values():
        if wl is own:
            continue
        _, raw, window = traced_pass(wl, tracer)
        out = wl.harvest(raw)
        metrics.update(_combine([_pass_figures(wl, tracer.spans, window, out)]))
        a, f, c, n = tally(wl, [out])
        attempted, failed, correct, notes = attempted + a, failed + f, correct and c, notes + n

    serial, traced, figures, shares = [], [], [], []
    while not traced or time.perf_counter() - start < args.seconds:
        wall, raw = run_pass(own, 1)
        serial.append(wall)
        outputs.append(own.harvest(raw))
        wall, raw, window = traced_pass(own, tracer)
        traced.append(wall)
        outputs.append(own.harvest(raw))
        figures.append(_pass_figures(own, tracer.spans, window, outputs[-1]))
        shares.append(_layer_shares(tracer.spans, window))
    a, f, c, n = tally(own, outputs)
    attempted, failed, correct, notes = attempted + a, failed + f, correct and c, notes + n

    metrics.update(_combine(figures))
    metrics.update(_combine(shares))
    if not args.own_only:
        metrics.update(probes.measure(args.seed))
    untraced, with_spans = statistics.median(serial), statistics.median(traced)
    metrics.update({
        "trace.untraced_wall_s": untraced, "trace.traced_wall_s": with_spans,
        "trace.overhead_s": with_spans - untraced,
        "trace.overhead_pct": 100.0 * (with_spans - untraced) / untraced,
    })
    missing = set(PER_LAYER) - set(metrics)
    if missing and not args.own_only:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "notes": notes,
            "metrics": {k: metrics[k] for k in PER_LAYER if k in metrics}, "passes": traced,
            "spans": tracer}


# ------------------------------------------------------------------- main

def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name,
    prefixed with the workload that measured it.  Traced, each workload
    reports only the metrics its own passes give, and the per-call probes
    (unprefixed) are measured here once."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("zoo", "kernel", "evolve"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--own-only"] if args.trace else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"labbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{key}"] = value
    if args.trace:
        import probes
        for key, value in probes.measure(args.seed).items():
            merged["metrics"][key] = {"value": value, "unit": PER_LAYER[key]}
            print(f"#   {'probes':7s} {key:42s} {value:14.6g} {PER_LAYER[key]}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("zoo", "kernel", "evolve", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--own-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    os.environ["OSTROVSKY_LOG"] = "error"  # the CLI's progress lines would flood stderr
    if args.workload == "all":
        if args.setup_probe:
            ap.error("--setup-probe needs a single workload")
        return run_all(args)
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            from workloads import WORKLOADS
            WORKLOADS[args.workload](args.seed, str(run_dir))
            print("ready", flush=True)
            return 0
        result = traced_run(args, run_dir) if args.trace else timed_run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment()
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in result["metrics"].items()}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "pass_walls_s": result["passes"],
              "setup_samples_s": result.get("setups", []),
              "notes": result["notes"], "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        result["spans"].write(str(results / f"{stem}-spans.csv"))

    for note in result["notes"]:
        print(f"labbench: {note}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in metrics.items():
        print(f"#   {args.workload:7s} {key:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
