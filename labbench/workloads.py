"""The three workloads: inputs made from a seed, one timed pass over the
operations, and the checks on what a pass produced.

Every workload has the same shape:

* ``__init__(seed, root)`` is the set-up: it generates the inputs and
  builds the program objects (ensembles, kernel specs, configs);
* ``operations(jobs)`` lists the timed calls, one (name, thunk) per
  operation, in the order a pass runs them;
* ``harvest(raw)`` turns a pass's raw results into comparable outputs
  (outside the timed region);
* ``check(outputs)`` compares one pass with computations made apart from
  the program and returns the problems found per operation;
* ``same(a, b)`` tells per operation whether two passes agree bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback

import numpy as np

import oracles
# calls go through the module attributes, so the traced run sees them
from ostrovsky import cli, estimates, kernel
from ostrovsky.estimates import ALL_TAGS, LINFTY_TAGS, STRICHARTZ_TAGS
from ostrovsky.kernel import KernelSpec
from ostrovsky.spectral import Field

ORBIT_TAGS = STRICHARTZ_TAGS + LINFTY_TAGS


class Failed:
    """What an operation raised, kept in place of its result."""

    def __init__(self, err: BaseException):
        frame = traceback.extract_tb(err.__traceback__)[-1]
        message = "".join(traceback.format_exception_only(type(err), err)).strip()
        self.text = f"{message} (at {frame.filename}:{frame.lineno})"


def attempt(fn):
    try:
        return fn()
    except Exception as err:  # an operation's failure is counted, not fatal
        return Failed(err)


def _ens_params(ens) -> dict:
    return {
        "seed": ens.seed, "n": ens.grid.n_points, "length": ens.grid.length,
        "law": ens.law, "law_param": ens.law_param, "t_window": ens.t_window,
        "n_t": ens.n_t, "beta": ens.beta, "gamma": ens.gamma, "b": ens.b,
        "epsilon": ens.epsilon, "threshold": ens.threshold,
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------------- zoo

class Zoo:
    """run_tag for all nine estimate tags, refinements included."""

    name = "zoo"
    # draws per tag in the acceptance gate's proportions (100 per tag, 20
    # for 3.03), scaled down by 20
    DRAWS = {tag: 1 if tag == "3.03" else 5 for tag in ALL_TAGS}

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng([seed, 1])
        self.ops = list(ALL_TAGS)
        self.tag_seed = {tag: int(rng.integers(0, 2**31)) for tag in ALL_TAGS}
        self.ensembles = {
            tag: estimates.default_ensemble(tag, self.tag_seed[tag], self.DRAWS[tag])
            for tag in ALL_TAGS}
        self.rhs_draws = {tag: sorted({0, int(rng.integers(self.DRAWS[tag]))})
                          for tag in ORBIT_TAGS}
        self.lhs_draw = {tag: int(rng.integers(self.DRAWS[tag]))
                         for tag in ORBIT_TAGS + ("2.027",)}
        self.scale = float(10.0 ** rng.uniform(-3.0, 3.0))

    def operations(self, jobs: int) -> list:
        return [(tag, lambda tag=tag: estimates.run_tag(
            tag, seed=self.tag_seed[tag], n_draws=self.DRAWS[tag], jobs=jobs))
            for tag in self.ops]

    def harvest(self, raw: dict) -> dict:
        out = {}
        for tag, rep in raw.items():
            out[tag] = rep if isinstance(rep, Failed) else {
                "lhs": rep.lhs, "rhs": rep.rhs, "ratios": rep.ratios,
                "max_ratio": rep.max_ratio, "stability": rep.stability_factor,
                "refinement_max": dict(rep.refinement_max), "skipped": rep.skipped,
            }
        return out

    def same(self, a: dict, b: dict) -> dict:
        def eq(x, y):
            if isinstance(x, Failed) or isinstance(y, Failed):
                return False
            return all(np.array_equal(x[k], y[k]) for k in ("lhs", "rhs", "ratios")) \
                and x["refinement_max"] == y["refinement_max"] and x["skipped"] == y["skipped"]
        return {tag: eq(a[tag], b[tag]) for tag in self.ops}

    def check(self, outputs: dict) -> dict:
        problems = {tag: [] for tag in self.ops}
        for tag in self.ops:
            out = outputs[tag]
            if isinstance(out, Failed):
                continue
            if not math.isfinite(out["max_ratio"]):
                problems[tag].append(f"max ratio {out['max_ratio']} not finite")
            if not out["stability"] < 4.0:
                problems[tag].append(f"stability factor {out['stability']:.3f} >= 4")
            if tag in ORBIT_TAGS:
                problems[tag] += self._check_orbit_tag(tag, out)
            elif tag == "2.027":
                problems[tag] += self._check_bilinear(out)
        return problems

    def _check_orbit_tag(self, tag: str, out: dict) -> list:
        found = []
        ens = self.ensembles[tag]
        params = _ens_params(ens)
        if out["skipped"] != 0 or out["rhs"].size != self.DRAWS[tag]:
            return [f"{out['skipped']} draws skipped"]
        if tag == "2.03":
            worst = float(np.max(np.abs(out["rhs"] - 1.0)))
            if worst > 1e-12:
                found.append(f"RHS differs from ||u0|| = 1 by {worst:.2e}")
        table = oracles.modulation_table(params)
        for i in self.rhs_draws[tag]:
            c = oracles.draw(params, i)
            err = _rel(out["rhs"][i], oracles.closed_form_rhs(params, tag, c, table))
            if err > 1e-12:
                found.append(f"draw {i}: RHS off the closed form by {err:.2e}")
        i = self.lhs_draw[tag]
        c = oracles.draw(params, i)
        err = _rel(out["lhs"][i], oracles.synthesized_lhs(params, tag, c))
        if err > 1e-9:
            found.append(f"draw {i}: LHS off the direct synthesis by {err:.2e}")
        left, right = estimates.ratio_pair_for_tag(ens, tag, Field(ens.grid, c))
        left_s, right_s = estimates.ratio_pair_for_tag(ens, tag, Field(ens.grid, self.scale * c))
        if _rel(left_s / right_s, left / right) > 1e-12:
            found.append(f"ratio not invariant under scaling by {self.scale:.3g}")
        if _rel(left / right, out["ratios"][i]) > 1e-12:
            found.append(f"draw {i}: single-pair ratio differs from the ensemble's")
        return found

    def _check_bilinear(self, out: dict) -> list:
        params = _ens_params(self.ensembles["2.027"])
        i = self.lhs_draw["2.027"]
        c1, c2 = oracles.draw(params, 2 * i), oracles.draw(params, 2 * i + 1)
        found = []
        err = _rel(out["lhs"][i], oracles.bilinear_lhs(params, c1, c2, 0.5))
        if err > 1e-9:
            found.append(f"pair {i}: LHS off the mode-pair loop by {err:.2e}")
        if abs(out["rhs"][i] - 1.0) > 1e-12:
            found.append(f"pair {i}: RHS {out['rhs'][i]!r} is not ||f1|| ||f2|| = 1")
        return found


# ---------------------------------------------------------------- kernel

class Kernel:
    """Region decay checks (with their ray-exponent fits) and the mixed
    norm, per dyadic block."""

    name = "kernel"
    BLOCKS = (16.0, 32.0, 64.0)
    # The acceptance gate's calls scaled down by 16: 60 region samples
    # become 4 and the 120 x 48 mixed-norm grid becomes 30 x 12.  The
    # stationary_ray_exponent fit that region_decay_check makes (10 rays
    # of 33 points) takes no size argument and stays whole.  The timed
    # inputs are fixed to the gate's sample seed: the quadrature cost of a
    # region sample grows with t up to the 4M-node cap, so positions drawn
    # per seed would move the pass time.  The seed picks which region
    # samples are re-checked against the dense quadrature.
    SAMPLES_PER_REGION, REGION_SEED = 4, 3
    MIXED_NX, MIXED_NT = 30, 12
    GAMMA_EXP = 8.0
    CHECKED_POINTS = 2  # per region and block, against the dense quadrature

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng([seed, 2])
        self.specs = {n: KernelSpec(n, -1.0, 1.0) for n in self.BLOCKS}
        self.checked = rng.integers(0, self.SAMPLES_PER_REGION, size=(len(self.BLOCKS), 3,
                                                                         self.CHECKED_POINTS))
        self.ops = [f"{probe}:N{int(n)}" for n in self.BLOCKS
                    for probe in ("region_decay_check", "kernel_mixed_norm")]

    def operations(self, jobs: int) -> list:
        ops = []
        for n, spec in self.specs.items():
            ops += [
                (f"region_decay_check:N{int(n)}", lambda spec=spec: kernel.region_decay_check(
                    spec, samples_per_region=self.SAMPLES_PER_REGION, seed=self.REGION_SEED)),
                (f"kernel_mixed_norm:N{int(n)}", lambda spec=spec: kernel.kernel_mixed_norm(
                    spec, self.GAMMA_EXP, n_x=self.MIXED_NX, n_t=self.MIXED_NT)),
            ]
        return ops

    def harvest(self, raw: dict) -> dict:
        out = {}
        for op, rep in raw.items():
            if isinstance(rep, Failed):
                out[op] = rep
            elif op.startswith("region"):
                out[op] = {
                    "exponent": rep.ray_exponent,
                    "regions": {name: {"x": r.x, "t": r.t, "abs_k": r.abs_k,
                                       "constant": r.empirical_constant,
                                       "skipped": r.skipped}
                                for name, r in rep.regions.items()},
                }
            else:
                out[op] = {"value": rep.value, "scaled": rep.scaled_ratio,
                           "tail": rep.tail_fraction}
        return out

    def same(self, a: dict, b: dict) -> dict:
        def eq(x, y):
            if isinstance(x, Failed) or isinstance(y, Failed):
                return False
            if "regions" in x:
                return x["exponent"] == y["exponent"] and all(
                    np.array_equal(x["regions"][r][k], y["regions"][r][k])
                    for r in x["regions"] for k in ("x", "t", "abs_k"))
            return x == y
        return {op: eq(a[op], b[op]) for op in self.ops}

    def check(self, outputs: dict) -> dict:
        problems = {op: [] for op in self.ops}
        ns_constants, scaled = {}, {}
        for b, n in enumerate(self.BLOCKS):
            region_op = f"region_decay_check:N{int(n)}"
            rep = outputs[region_op]
            if not isinstance(rep, Failed):
                problems[region_op] += self._check_regions(b, n, rep)
                ns_constants[region_op] = rep["regions"]["NON_STATIONARY"]["constant"]
            mixed_op = f"kernel_mixed_norm:N{int(n)}"
            mixed = outputs[mixed_op]
            if not isinstance(mixed, Failed):
                if not mixed["tail"] < 0.01:
                    problems[mixed_op].append(f"tail fraction {mixed['tail']:.2e} >= 1%")
                scaled[mixed_op] = mixed["scaled"]
        for values, what in ((ns_constants, "non-stationary constant"),
                             (scaled, "scaled mixed norm")):
            if values and max(values.values()) > 4.0 * min(values.values()):
                for op in values:
                    problems[op].append(f"{what} spreads by more than 4x across blocks")
        return problems

    def _check_regions(self, b: int, n: float, rep: dict) -> list:
        found = []
        if not -0.43 <= rep["exponent"] <= -0.23:
            found.append(f"ray exponent {rep['exponent']:.4f} outside [-0.43, -0.23]")
        for r, (name, reg) in enumerate(rep["regions"].items()):
            if reg["skipped"] > 0.1 * self.SAMPLES_PER_REGION:
                found.append(f"{name}: {reg['skipped']} points skipped")
            for i in self.checked[b, r]:
                i = int(i) % reg["abs_k"].size
                x, t = float(reg["x"][i]), float(reg["t"][i])
                ref = abs(oracles.kernel_value(x, t, n, -1.0, 1.0))
                if abs(reg["abs_k"][i] - ref) > 1e-7 * n:
                    found.append(f"{name} |K({x:.3e}, {t:.3e})| = {reg['abs_k'][i]:.9g}, "
                                 f"dense quadrature gives {ref:.9g}")
        return found


# ---------------------------------------------------------------- evolve

def _write_snapshot(path, samples, length, beta, gamma, k):
    header = {"n": int(samples.size), "L": length, "beta": beta, "gamma": gamma,
              "k": k, "t": 0.0}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.writelines(repr(float(v)) + "\n" for v in samples)


def smooth_spectrum(rng, n_modes: int, decay: float) -> np.ndarray:
    """Random coefficients of modes 1..n_modes with a Gaussian envelope."""
    z = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return z * np.exp(-((np.arange(1, n_modes + 1) / decay) ** 2))


def sample_real(z, n: int) -> np.ndarray:
    """n samples of the real, mean-zero field with positive-mode spectrum z."""
    c = np.zeros(n, dtype=complex)
    m = np.arange(1, z.size + 1)
    c[m] = z
    c[-m] = np.conj(z)
    u = np.fft.ifft(c * n).real
    return u - np.mean(u)


def _write_config(path, section: str, values: dict):
    with open(path, "w") as fh:
        fh.write(f"[{section}]\n")
        fh.writelines(f"{k} = {v}\n" for k, v in values.items())


class Evolve:
    """The solver half of the lab, driven through ``ostrovsky.cli.main``."""

    name = "evolve"
    LENGTH = 80.0
    CSVS = {"solve": ("traces.csv",), "sweep-gamma": ("rate.csv",),
            "picard-check": ("picard_diffs.csv",), "invariants": ()}

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng([seed, 3])
        inputs = os.path.join(root, "inputs")
        os.makedirs(inputs, exist_ok=True)
        gamma = float(rng.uniform(0.5, 1.5))
        self.gamma = gamma
        self.speed = float(rng.uniform(0.6, 0.8))
        # one smooth mean-zero datum, sampled at every grid size used
        z = smooth_spectrum(rng, 32, 12.0)
        amplitude = float(rng.uniform(0.4, 0.6))
        scale = amplitude / np.max(np.abs(sample_real(z, 4096)))
        self.snapshots = {}
        for n in (256, 1024, 4096):
            path = os.path.join(inputs, f"datum_n{n}.dat")
            _write_snapshot(path, scale * sample_real(z, n), self.LENGTH, -1.0, gamma, 5)
            self.snapshots[n] = path
        # data for the fixed-point oracle on L = 32: large enough for a few
        # iterations, small enough to contract over delta = 0.05
        h1_target = float(rng.uniform(2.5, 3.0))
        small = sample_real(smooth_spectrum(rng, 12, 4.0), 256)
        c = np.fft.fft(small) / small.size
        h1 = math.sqrt(32.0 * float(np.sum((1.0 + np.abs(oracles.wavenumbers(256, 32.0))) ** 2
                                           * np.abs(c) ** 2)))
        self.snapshots["picard"] = os.path.join(inputs, "datum_picard.dat")
        _write_snapshot(self.snapshots["picard"], small * (h1_target / h1), 32.0, -1.0, gamma, 5)

        base = {"beta": -1.0, "gamma": gamma, "k": 5, "L": self.LENGTH}
        legs = {
            "solve:n256_ifrk4": dict(n=256, dt=0.01, t_end=2.0, snapshot_every=20),
            "solve:n1024_ifrk4": dict(n=1024, dt=0.005, t_end=1.0, snapshot_every=20),
            "solve:n1024_split_step": dict(n=1024, dt=0.005, t_end=1.0, snapshot_every=20,
                                           integrator="split_step"),
            "solve:n4096_ifrk4": dict(n=4096, dt=0.005, t_end=0.25, snapshot_every=10),
            "solve:n256_every_step": dict(n=256, dt=0.01, t_end=0.5, snapshot_every=1),
            "solve:n1024_linear": dict(n=1024, dt=0.005, t_end=1.0, snapshot_every=50,
                                       nonlinearity=0),
        }
        self.legs = {}
        for op, values in legs.items():
            cfg = dict(base, **values, initial=f"file:{self.snapshots[values['n']]}")
            self.legs[op] = ("solve", cfg)
        self.legs["solve:n1024_soliton"] = ("solve", dict(
            beta=-1.0, gamma=0.0, k=5, n=1024, L=self.LENGTH, dt=0.000625, t_end=0.5,
            snapshot_every=400, initial="soliton", speed=self.speed, keep_background=1))
        self.legs["sweep-gamma"] = ("sweep-gamma", dict(
            base, n=1024, dt=0.005, t_end=0.5, t_compare=0.5,
            gammas="1e-1 3e-2 1e-2 3e-3 1e-3", snapshot_every=10, s=2.0,
            initial=f"file:{self.snapshots[1024]}"))
        self.legs["picard-check"] = ("picard-check", dict(
            beta=-1.0, gamma=gamma, k=5, n=256, L=32.0, dt=0.0001, t_end=0.05, delta=0.05,
            iterations=12, initial=f"file:{self.snapshots['picard']}"))
        self.legs["invariants"] = ("invariants", dict(snapshot=self.snapshots[1024],
                                                      horizon=0.1))
        self.argv = {}
        for op, (command, values) in self.legs.items():
            stem = op.replace(":", "_")
            cfg_path = os.path.join(inputs, f"{stem}.cfg")
            _write_config(cfg_path, command, values)
            self.argv[op] = [command, "--config", cfg_path, "--out",
                             os.path.join(root, "out", stem), "--seed", str(seed)]
        self.ops = list(self.legs)

    def out_dir(self, op: str) -> str:
        return self.argv[op][4]

    def operations(self, jobs: int) -> list:
        def command(op):
            argv = self.argv[op] + (["--jobs", str(jobs)] if op == "sweep-gamma" else [])
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            return code, stdout.getvalue()
        return [(op, lambda op=op: command(op)) for op in self.ops]

    def bytes_written(self) -> int:
        total = 0
        for op in self.ops:
            for entry in os.scandir(self.out_dir(op)):
                total += entry.stat().st_size
        return total

    def harvest(self, raw: dict) -> dict:
        out = {}
        for op, res in raw.items():
            if isinstance(res, Failed):
                out[op] = res
                continue
            code, stdout = res
            d = self.out_dir(op)
            files = {}
            for name in self.CSVS[self.legs[op][0]]:
                with open(os.path.join(d, name), "rb") as fh:
                    files[name] = fh.read()
            for name in ("picard.json", "rate.json", "invariants.json"):
                p = os.path.join(d, name)
                if os.path.exists(p):
                    with open(p) as fh:
                        files[name] = json.load(fh)
            snaps = sorted(e.name for e in os.scandir(d) if e.name.startswith("snapshot_"))
            if snaps:
                # this pass's own last snapshot; the next pass overwrites it
                with open(os.path.join(d, snaps[-1]), "rb") as fh:
                    files["final_snapshot"] = fh.read()
            out[op] = {"code": code, "stdout": stdout, "files": files,
                       "digest": {k: hashlib.sha256(v).hexdigest() for k, v in files.items()
                                  if k.endswith(".csv") or k == "final_snapshot"}}
        return out

    def same(self, a: dict, b: dict) -> dict:
        def eq(x, y):
            if isinstance(x, Failed) or isinstance(y, Failed):
                return False
            return x["code"] == y["code"] and x["digest"] == y["digest"]
        return {op: eq(a[op], b[op]) for op in self.ops}

    def check(self, outputs: dict) -> dict:
        problems = {op: [] for op in self.ops}
        for op in self.ops:
            out = outputs[op]
            if isinstance(out, Failed):
                continue
            if out["code"] != 0:
                problems[op].append(f"exit code {out['code']}")
                continue
            command, cfg = self.legs[op]
            files = out["files"]
            if command == "solve" and cfg["gamma"] > 0:
                # H includes the potential term, conserved only when the
                # nonlinearity is on
                l2, ham = oracles.trace_drifts(files["traces.csv"].decode())
                if not l2 < 1e-8 or (cfg.get("nonlinearity", 1) and not ham < 1e-6):
                    problems[op].append(f"drift L2 {l2:.2e}, H {ham:.2e}")
            if op == "solve:n1024_linear":
                _, u0 = oracles.read_snapshot_samples(self.snapshots[1024])
                _, final = oracles.parse_snapshot(files["final_snapshot"].decode())
                want = oracles.free_evolution(u0, self.LENGTH, -1.0, self.gamma, cfg["t_end"])
                err = oracles.relative_l2(final, want)
                if err > 1e-12:
                    problems[op].append(f"linear leg off e^(-it phi) c0 by {err:.2e}")
            if op == "solve:n1024_soliton":
                header, final = oracles.parse_snapshot(files["final_snapshot"].decode())
                x = np.arange(final.size) * (self.LENGTH / final.size)
                want = oracles.soliton_profile(x, self.LENGTH, self.speed, 5, -1.0,
                                               self.speed * header["t"])
                err = oracles.relative_l2(final, want)
                if not (err < 1e-3 and abs(header["t"] - cfg["t_end"]) < 1e-9):
                    problems[op].append(f"soliton off its translate by {err:.2e}")
            if command == "picard-check":
                rep = files["picard.json"]
                if not (rep["converged"] and rep["evolve_cross_check_l2"] < 1e-6):
                    problems[op].append(f"picard converged={rep['converged']}, "
                                        f"cross-check {rep['evolve_cross_check_l2']}")
            if command == "sweep-gamma":
                rep = files["rate.json"]
                if not (0.8 <= rep["slope"] <= 1.2 and not rep["failures"]):
                    problems[op].append(f"slope {rep['slope']}, failures {rep['failures']}")
            if command == "invariants" and not files["invariants.json"]["passed"]:
                problems[op].append(f"invariants failed: {out['stdout'].strip()}")
        return problems


WORKLOADS = {w.name: w for w in (Zoo, Kernel, Evolve)}
