import json
import logging
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ostrovsky
from ostrovsky import cli
from ostrovsky.cli import main
from ostrovsky.config import parse_config_text
from ostrovsky.errors import (
    BoxTooSmallError,
    ConfigError,
    LatticeSizeError,
    MeanZeroViolation,
    QuadratureAccuracyError,
)
from ostrovsky.io import read_snapshot, write_snapshot
from ostrovsky.kernel import KernelSpec
from ostrovsky.limits import SweepConfig
from ostrovsky.solver import SolverConfig, gaussian_bump
from ostrovsky.spectral import Field, Grid, MultiplierSpec, apply_multiplier

import golden

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

SOLVE_CFG = """
[solve]
beta = -1.0
gamma = 1.0
k = 5
n = 128
L = 20.0
dt = 0.01
t_end = 0.1
snapshot_every = 5
initial = gaussian
amplitude = 0.4
width = 2.0
"""

PICARD_CFG = """
[picard-check]
beta = -1.0
gamma = 1.0
k = 5
n = 128
L = 20.0
dt = 0.001
t_end = 0.05
initial = {initial}
amplitude = 0.3
width = 2.0
h1_norm = 0.1
delta = 0.05
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def file_initial(text, snap):
    """text with initial data read from snap, without the Gaussian's keys."""
    text = text.replace("initial = gaussian", f"initial = file:{snap}")
    return text.replace("amplitude = 0.4\n", "").replace("width = 2.0\n", "")


class TestConfigFormat:
    def test_sections_and_comments(self):
        cfg = parse_config_text("[a]\nx = 1  # trailing\n# full line\n[b]\ny = two words\n")
        assert cfg.section("a").get_int("x") == 1
        assert cfg.section("b").get_str("y") == "two words"

    def test_missing_key_names_it(self):
        cfg = parse_config_text("[solve]\nn = 64\n")
        with pytest.raises(ConfigError, match="`beta`"):
            cfg.section("solve").get_float("beta")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[a]\nnot a pair\n")

    def test_number_lists(self):
        cfg = parse_config_text("[s]\ngammas = 1e-1, 3e-2 1e-2\n")
        assert cfg.section("s").get_floats("gammas") == (0.1, 0.03, 0.01)

    def test_duplicate_key_rejected_with_file_and_line(self):
        with pytest.raises(ConfigError, match=r"run\.cfg:4: duplicate key `t_end`"):
            parse_config_text("[solve]\nt_end = 0.1\nn = 64\nt_end = 0.2\n", source="run.cfg")

    def test_unread_key_rejected_with_file_and_line(self):
        text = "[other]\nx = 1\n[solve]\nn = 64\namplitde = 0.3\nt_end = 0.1\nnonlinarity = 0\n"
        section = parse_config_text(text, source="run.cfg").section("solve")
        section.get_int("n")
        assert "t_end" in section.keys()  # a membership test is not a read
        with pytest.raises(ConfigError, match=r"^run\.cfg:5: unknown key `amplitde` in \[solve\]$"):
            section.reject_unread()
        section.get_float("amplitde", 0.0)
        section.get_float("t_end")
        with pytest.raises(ConfigError, match=r"^run\.cfg:7: unknown key `nonlinarity`"):
            section.reject_unread()
        section.get_int("nonlinarity")
        section.reject_unread()


class TestUnknownKeys:
    @pytest.mark.parametrize("stem,command", [
        ("solve", "solve"), ("soliton", "solve"), ("sweep_gamma", "sweep-gamma"),
        ("picard", "picard-check"), ("probe_estimates", "probe-estimates"),
        ("probe_kernel", "probe-kernel"),
    ], ids=lambda value: value)
    def test_shipped_config_with_a_misspelt_key_exits_one(self, tmp_path, capsys, stem, command):
        text = (CONFIGS / f"{stem}.cfg").read_text().rstrip("\n") + "\nnonlinarity = 0\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        extra = ["--which", "2.057"] if command == "probe-estimates" else []
        assert main([command, "--config", cfg, "--out", str(out)] + extra) == 1
        line = len(text.splitlines())
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{line}: unknown key `nonlinarity` in [{command}]\n")
        assert not out.exists()

    def test_invariants_with_a_misspelt_key_exits_one(self, tmp_path, capsys):
        cfg = write_invariants_cfg(tmp_path, lambda lines: lines)
        Path(cfg).write_text(Path(cfg).read_text() + "horizn = 0.5\n")
        out = tmp_path / "out"
        assert main(["invariants", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}:4: unknown key `horizn` in [invariants]\n")
        assert not out.exists()

    def test_sweep_trace_s_is_unknown(self, tmp_path, capsys):
        # [sweep-gamma] sets the X^s exponent with `s` alone
        text = (CONFIGS / "sweep_gamma.cfg").read_text() + "trace_s = 1.0\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep-gamma", "--config", cfg, "--out", str(out)]) == 1
        line = len(text.splitlines())
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{line}: unknown key `trace_s` in [sweep-gamma]\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,stage,text", [
        ("solve", "evolve",
         (CONFIGS / "soliton.cfg").read_text().replace("gamma = 0.0", "gamma = 0.5")),
        ("picard-check", "picard_iterate",
         PICARD_CFG.format(initial="gaussian") + "cross_check = 0\n"),
        ("sweep-gamma", "rotation_limit_sweep", (CONFIGS / "sweep_gamma.cfg").read_text()),
    ], ids=["keep_background_at_positive_gamma", "cross_check", "sweep_gamma"])
    def test_keys_used_in_some_cases_only_are_accepted(self, tmp_path, monkeypatch,
                                                       command, stage, text):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, stage, reached)
        cfg = write_cfg(tmp_path, text)
        with pytest.raises(Reached):
            main([command, "--config", cfg, "--out", str(tmp_path / "out")])


class TestSnapshotFormat:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        grid = Grid(64, 11.0)
        field = Field.from_samples(grid, rng.standard_normal(64))
        path = tmp_path / "snap.dat"
        write_snapshot(path, field, beta=-1.0, gamma=0.5, k=5, t=0.25)
        loaded, header = read_snapshot(path)
        assert np.array_equal(loaded.samples(), field.samples())
        assert header == {"n": 64, "L": 11.0, "beta": -1.0, "gamma": 0.5, "k": 5, "t": 0.25}

    def test_text_matches_per_sample_reference(self, tmp_path, rng):
        # one shortest-round-trip repr per line, as a per-sample loop writes it
        grid = Grid(64, 11.0)
        samples = rng.standard_normal(64) * 10.0 ** rng.integers(-300, 100, 64)
        samples[:4] = [-0.0, 5e-324, 0.1, -1e100 / 3]
        field = Field.from_samples(grid, samples)
        path = tmp_path / "snap.dat"
        write_snapshot(path, field, beta=-1.0, gamma=0.5, k=5, t=0.25)
        header = {"n": 64, "L": 11.0, "beta": -1.0, "gamma": 0.5, "k": 5, "t": 0.25}
        expected = json.dumps(header) + "\n" + "".join(repr(float(v)) + "\n" for v in samples)
        assert path.read_text() == expected
        loaded, _ = read_snapshot(path)
        assert loaded.samples().tobytes() == samples.tobytes()

    def test_non_finite_sample_rejected(self, tmp_path):
        path = tmp_path / "snap.dat"
        write_snapshot(path, Field.zero(Grid(8, 1.0)), -1.0, 1.0, 5, 0.0)
        lines = path.read_text().splitlines()
        lines[3] = "nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="snap.dat.*non-finite"):
            read_snapshot(path)

    def test_header_is_json_line(self, tmp_path):
        grid = Grid(64, 11.0)
        path = tmp_path / "snap.dat"
        write_snapshot(path, Field.zero(grid), -1.0, 0.0, 5, 0.0)
        first = path.read_text().splitlines()[0]
        assert json.loads(first)["n"] == 64


class TestSolveCommand:
    def test_exit_zero_and_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLVE_CFG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        lines = (out / "traces.csv").read_text().splitlines()
        assert lines[0] == "t,l2,hamiltonian,hs,xs"
        # 10 steps, cadence 5: snapshots at steps 0, 5, 10
        assert len(lines) == 1 + 3

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLVE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", cfg, "--out", str(a)])
        main(["solve", "--config", cfg, "--out", str(b)])
        assert (a / "traces.csv").read_bytes() == (b / "traces.csv").read_bytes()

    def test_missing_key_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("beta = -1.0\n", ""))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "`beta`" in capsys.readouterr().err

    def test_overflow_exits_two_with_one_line(self, tmp_path, capsys):
        text = SOLVE_CFG.replace("n = 128", "n = 256").replace("L = 20.0", "L = 40.0")
        text = text.replace("dt = 0.01", "dt = 1e-300").replace("t_end = 0.1", "t_end = 1e-300")
        text = text.replace("amplitude = 0.4", "amplitude = 3e51")
        cfg = write_cfg(tmp_path, text)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err and "overflowed" in err

    def test_hamiltonian_overflow_exits_two_with_one_line(self, tmp_path):
        # u^6 stays finite at amplitude 1e46 but u^7 in the Hamiltonian
        # does not; a fresh process shows any numpy warning on stderr
        text = SOLVE_CFG.replace("n = 128", "n = 256").replace("L = 20.0", "L = 40.0")
        text = text.replace("dt = 0.01", "dt = 1e-300").replace("t_end = 0.1", "t_end = 1e-299")
        text = text.replace("amplitude = 0.4", "amplitude = 1e46")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ostrovsky.__file__)))
        env.pop("OSTROVSKY_LOG", None)
        proc = subprocess.run(
            [sys.executable, "-m", "ostrovsky.cli", "solve", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("run aborted:"), proc.stderr
        assert "Hamiltonian overflowed" in lines[0]
        assert not (out / "traces.csv").exists()

    def test_cfl_breach_after_t0_exits_two_with_one_line(self, tmp_path, capsys):
        # data that refocuses under dispersion, with dt at its t = 0 bound
        grid = Grid(128, 20.0)
        cfg = SolverConfig(beta=-1.0, gamma=1.0, k=5, dt=0.01, t_end=0.5, grid=grid)
        bump = gaussian_bump(grid, amplitude=1.0, width=1.0)
        field = apply_multiplier(bump, MultiplierSpec.propagator(-0.5, cfg.symbol))
        field = Field.from_samples(grid, field.samples() * (1.2 / np.max(np.abs(field.samples()))))
        snap = tmp_path / "snap.dat"
        write_snapshot(snap, field, -1.0, 1.0, 5, 0.0)
        text = file_initial(SOLVE_CFG, snap)
        text = text.replace("dt = 0.01", f"dt = {cfg.timestep_bound(field)!r}")
        text = text.replace("t_end = 0.1", "t_end = 0.5").replace("snapshot_every = 5", "snapshot_every = 2")
        cfg_path = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "blowup detected at step" in err and "exceeds the advection bound" in err

    def test_nonzero_mean_snapshot_exits_one_with_one_line(self, tmp_path, capsys):
        grid = Grid(128, 20.0)
        snap = tmp_path / "snap.dat"
        field = gaussian_bump(grid, amplitude=0.4, width=2.0)
        write_snapshot(snap, Field.from_samples(grid, field.samples() + 0.1), -1.0, 1.0, 5, 0.0)
        text = file_initial(SOLVE_CFG, snap)
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error:") and "mean-zero" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error,code", [
        (MeanZeroViolation(0.5), 1),
        (LatticeSizeError("lattice too large"), 1),
        (QuadratureAccuracyError(1e-6, 1e-9), 2),
        (BoxTooSmallError("tail fraction 2% exceeds 1%"), 2),
    ])
    def test_numerical_errors_map_to_exit_codes(self, tmp_path, capsys, monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "region_decay_check", fail)
        cfg = write_cfg(tmp_path, "[probe-kernel]\nblocks = 8\n")
        assert main(["probe-kernel", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and str(error) in err

    def test_config_file_not_mutated(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLVE_CFG)
        before = open(cfg).read()
        main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert open(cfg).read() == before


class TestPicardCommand:
    def test_zero_data_fixed_point(self, tmp_path):
        cfg = write_cfg(tmp_path, PICARD_CFG.format(initial="gaussian")
                        .replace("amplitude = 0.3", "amplitude = 0.0")
                        .replace("h1_norm = 0.1\n", ""))
        out = tmp_path / "out"
        assert main(["picard-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "picard.json").read_text())
        assert report["converged"] and report["iterations"] == 1

    def test_small_data_report(self, tmp_path):
        cfg = write_cfg(tmp_path, PICARD_CFG.format(initial="gaussian"))
        out = tmp_path / "out"
        assert main(["picard-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "picard.json").read_text())
        assert report["converged"]
        assert all(r < 0.5 for r in report["contraction_factors"])
        assert report["evolve_cross_check_l2"] < 1e-6

    @pytest.mark.parametrize("cross_check", [1, 0])
    def test_nonzero_mean_snapshot_exits_one_before_out(self, tmp_path, capsys, cross_check):
        grid = Grid(128, 20.0)
        snap = tmp_path / "snap.dat"
        field = gaussian_bump(grid, amplitude=0.3, width=2.0)
        write_snapshot(snap, Field.from_samples(grid, field.samples() + 0.1), -1.0, 1.0, 5, 0.0)
        text = PICARD_CFG.format(initial=f"file:{snap}").replace("amplitude = 0.3\n", "")
        text = text.replace("width = 2.0\nh1_norm = 0.1\n", f"cross_check = {cross_check}\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["picard-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error:") and "mean-zero" in err
        assert not (tmp_path / "o").exists()


class TestProbeEstimatesCommand:
    def test_unknown_tag_lists_valid(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["probe-estimates", "--which", "nope", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: unknown tag")
        assert "2.03" in err and "3.03" in err
        assert not out.exists()

    def test_summary_written(self, tmp_path):
        out = tmp_path / "pe"
        code = main(["probe-estimates", "--which", "2.057", "--draws", "3",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary_2.057.json").read_text())
        assert np.isfinite(summary["max_ratio"])
        assert summary["refinement_factor"] < 4.0
        assert summary["refinement_skipped"] == {"grid_x2": 0, "window_x2": 0}
        assert (out / "ratios_2.057.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {"probe-estimates": {}}
        assert manifest["argv"][:3] == ["probe-estimates", "--which", "2.057"]

    def test_unrefined_tag_has_no_refinement_factor(self, tmp_path, caplog):
        out = tmp_path / "pe"
        with caplog.at_level(logging.INFO, logger="ostrovsky"):
            assert main(["probe-estimates", "--which", "2.027", "--draws", "3",
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary_2.027.json").read_text())
        assert summary["refinements"] == {} and summary["refinement_factor"] is None
        line = f"tag 2.027: max ratio {summary['max_ratio']:.4g}, stability none"
        assert line in caplog.messages

    def test_refined_tag_logs_its_factor(self, tmp_path, caplog):
        out = tmp_path / "pe"
        with caplog.at_level(logging.INFO, logger="ostrovsky"):
            assert main(["probe-estimates", "--which", "2.057", "--draws", "3",
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary_2.057.json").read_text())
        line = (f"tag 2.057: max ratio {summary['max_ratio']:.4g}, "
                f"stability {summary['refinement_factor']:.3f}")
        assert line in caplog.messages

    @pytest.mark.parametrize("flags,expected", [
        ([], (5, 2)), (["--seed", "7"], (7, 2)), (["--draws", "3"], (5, 3)),
        (["--seed", "7", "--draws", "3"], (7, 3)),
    ])
    def test_flag_beats_config(self, tmp_path, flags, expected):
        cfg = write_cfg(tmp_path, "[probe-estimates]\nseed = 5\ndraws = 2\n")
        out = tmp_path / "pe"
        assert main(["probe-estimates", "--config", cfg, "--which", "2.057",
                     "--out", str(out)] + flags) == 0
        summary = json.loads((out / "summary_2.057.json").read_text())
        assert (summary["seed"], summary["draws"]) == expected
        assert json.loads((out / "manifest.json").read_text())["seed"] == expected[0]


SWEEP_CFG = """
[sweep-gamma]
beta = -1.0
gamma = 1.0
k = 5
n = 128
L = 20.0
dt = 0.01
t_end = 0.1
t_compare = 0.1
gammas = 1e-1 1e-2 1e-3
snapshot_every = 2
initial = gaussian
amplitude = 0.4
width = 2.0
"""


class TestSweepCommand:
    def test_rate_json_has_finite_slope(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep-gamma", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
        rate = json.loads((out / "rate.json").read_text())
        assert np.isfinite(rate["slope"])
        svg = (out / "rate.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg
        rows = (out / "rate.csv").read_text().splitlines()
        assert rows[0] == "gamma,error,floor_flag"
        assert len(rows) == 4

    def test_nonzero_mean_snapshot_exits_one_before_out(self, tmp_path, capsys):
        # every sweep gamma is positive, so the datum is rejected in the
        # read phase, before the gamma = 0 reference run
        grid = Grid(128, 20.0)
        snap = tmp_path / "snap.dat"
        field = gaussian_bump(grid, amplitude=0.4, width=2.0)
        write_snapshot(snap, Field.from_samples(grid, field.samples() + 0.1), -1.0, 1.0, 5, 0.0)
        cfg = write_cfg(tmp_path, file_initial(SWEEP_CFG, snap))
        assert main(["sweep-gamma", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error:") and "mean-zero" in err
        assert not (tmp_path / "o").exists()


def write_invariants_cfg(tmp_path, edit):
    """A conservative snapshot whose list of text lines is passed through
    edit(), and an invariants config naming it."""
    snap = tmp_path / "snap.dat"
    write_snapshot(snap, gaussian_bump(Grid(128, 20.0), amplitude=0.4, width=2.0),
                   beta=-1.0, gamma=1.0, k=5, t=0.0)
    snap.write_text("\n".join(edit(snap.read_text().splitlines())) + "\n")
    return write_cfg(tmp_path, f"[invariants]\nsnapshot = {snap}\nhorizon = 0.05\n")


class TestInvariantsCommand:
    def test_pass_on_conservative_snapshot(self, tmp_path):
        cfg = write_invariants_cfg(tmp_path, lambda lines: lines)
        out = tmp_path / "inv"
        assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["passed"]
        # half the CFL bound 0.5 * dx = 0.078125 (max|u| < 1), shortened to
        # divide the horizon
        assert payload["dt"] == 0.025

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines[:5] + ["abc"] + lines[6:], "non-numeric sample"),
        (lambda lines: [lines[0].replace(', "k": 5', "")] + lines[1:], "header lacks k"),
        (lambda lines: ["[128, 20.0]"] + lines[1:], "not a JSON object"),
        (lambda lines: [lines[0].replace('"n": 128', '"n": "abc"')] + lines[1:],
         "header n = 'abc' is not an integer"),
        (lambda lines: [lines[0].replace('"k": 5', '"k": 5.7')] + lines[1:],
         "header k = 5.7 is not an integer"),
        (lambda lines: [lines[0].replace('"L": 20.0', '"L": Infinity')] + lines[1:],
         "header L = inf is not a finite number"),
        (lambda lines: [lines[0].replace('"beta": -1.0', '"beta": "-1"')] + lines[1:],
         "header beta = '-1' is not a finite number"),
    ], ids=["non_numeric_sample", "header_without_k", "header_not_object", "string_n",
            "fractional_k", "infinite_L", "string_beta"])
    def test_malformed_snapshot_exits_one_with_one_line(self, tmp_path, capsys, edit, message):
        cfg = write_invariants_cfg(tmp_path, edit)
        assert main(["invariants", "--config", cfg, "--out", str(tmp_path / "inv")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: snapshot ") and "snap.dat" in err and message in err


class TestManifest:
    def test_manifest_contains_resolved_config(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLVE_CFG)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["config"]["solve"]["beta"] == "-1.0"
        assert manifest["counts"]["steps"] == 10
        assert manifest["counts"]["nonlinear_evaluations"] == 4 * 10  # four per IFRK4 step
        assert manifest["numpy"] == np.__version__
        assert manifest["platform"] == platform.platform()
        assert sorted(manifest) == ["argv", "command", "config", "counts", "numpy", "out_dir",
                                    "platform", "seed", "started_unix", "version", "wall_clock_s"]

    def test_manifest_records_argv(self, tmp_path):
        # the tag and the flags that beat the config are in no config key
        out = tmp_path / "out"
        argv = ["probe-estimates", "--config", str(CONFIGS / "probe_estimates.cfg"),
                "--which", "2.057", "--draws", "3", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["argv"] == argv
        assert manifest["config"]["probe-estimates"]["draws"] == "100"
        assert manifest["counts"]["draws"] == 3


class TestProbeKernelCommand:
    def test_summary_reports_quadrature_per_block(self, tmp_path, monkeypatch):
        small = cli.kernel_mixed_norm
        monkeypatch.setattr(cli, "kernel_mixed_norm", lambda spec, gamma_exp, **jobs:
                            small(spec, gamma_exp, n_x=8, n_t=4, **jobs))
        cfg = write_cfg(tmp_path, "[probe-kernel]\nblocks = 8 16\nsamples_per_region = 3\n")
        out = tmp_path / "out"
        assert main(["probe-kernel", "--config", cfg, "--out", str(out)]) == 0
        serial = tmp_path / "serial"
        assert main(["probe-kernel", "--config", cfg, "--out", str(serial), "--jobs", "1"]) == 0
        for name in ("kernel_regions.csv", "kernel_summary.json"):
            assert (out / name).read_bytes() == (serial / name).read_bytes()
        summary = json.loads((out / "kernel_summary.json").read_text())
        assert sorted(summary) == ["blocks", "gamma_exp", "quadrature"]
        assert sorted(summary["quadrature"]) == sorted(summary["blocks"]) == ["16.0", "8.0"]
        for block in summary["quadrature"].values():
            decay, mixed = block["decay"], block["mixed_norm"]
            assert sorted(block) == ["accepted_error", "decay", "mixed_norm"]
            assert block["accepted_error"] == 1e-9  # the tolerance, for N <= 166
            assert decay["points"] == 3 * 3 + 10 * 33
            assert mixed["points"] == 16 * 4
            assert mixed["levin"] > 0  # the grid's far field
            for stats in (decay, mixed):
                assert sorted(stats) == ["levin", "max_error", "over_cap", "points",
                                         "refined_x16", "refined_x4"]
                assert 0.0 < stats["max_error"] <= block["accepted_error"]


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """The artifacts directory of a shipped-config run, each argv run once
    per module so that the golden checks share test_runs' output."""
    outs = {}

    def run(argv):
        if tuple(argv) not in outs:
            out = tmp_path_factory.mktemp(Path(argv[2]).stem) / "out"
            assert main(argv + ["--out", str(out)]) == 0
            outs[tuple(argv)] = out
        return outs[tuple(argv)]
    return run


class TestShippedConfigs:
    @pytest.mark.parametrize("argv", [
        ["solve", "--config", str(CONFIGS / "solve.cfg")],
        ["solve", "--config", str(CONFIGS / "soliton.cfg")],
        ["sweep-gamma", "--config", str(CONFIGS / "sweep_gamma.cfg")],
        ["picard-check", "--config", str(CONFIGS / "picard.cfg")],
        ["probe-estimates", "--config", str(CONFIGS / "probe_estimates.cfg"), "--which", "2.057"],
        pytest.param(["probe-kernel", "--config", str(CONFIGS / "probe_kernel.cfg")],
                     marks=pytest.mark.slow),
    ], ids=lambda argv: Path(argv[2]).stem)
    def test_runs(self, shipped_run, argv):
        out = shipped_run(argv)
        stem = Path(argv[2]).stem
        if stem in golden.SHIPPED:
            golden.check_numbers(stem, out)

    @pytest.mark.slow
    def test_csv_hashes(self, shipped_run):
        """The CSV and final-snapshot bytes of every recorded config equal
        the recording's where numpy and the platform do."""
        mismatches = list(filter(None, map(golden.hash_mismatch, golden.SHIPPED)))
        if mismatches:
            pytest.skip("; ".join(dict.fromkeys(mismatches)))
        for stem in golden.SHIPPED:
            golden.check_hashes(stem, shipped_run(golden.shipped_argv(stem)))

    def test_required_keys_only_give_library_defaults(self, tmp_path, monkeypatch):
        """Keys absent from a config leave the library's defaults in force."""
        seen = {}

        class Captured(Exception):
            pass

        def capture(name):
            def record(*args, **kwargs):
                seen[name] = (args, kwargs)
                raise Captured
            return record

        for name in ("evolve", "rotation_limit_sweep", "region_decay_check"):
            monkeypatch.setattr(cli, name, capture(name))
        required = "beta = -1.0\ngamma = 1.0\nk = 5\nn = 128\nL = 20.0\ndt = 0.01\nt_end = 0.1\n"
        configs = {"solve": required, "sweep-gamma": required + "t_compare = 0.1\n",
                   "probe-kernel": "blocks = 16\n"}
        for command, keys in configs.items():
            cfg = write_cfg(tmp_path, f"[{command}]\n{keys}", name=f"{command}.cfg")
            with pytest.raises(Captured):
                main([command, "--config", cfg, "--out", str(tmp_path / command)])

        grid = Grid(128, 20.0)
        solver = SolverConfig(beta=-1.0, gamma=1.0, k=5, dt=0.01, t_end=0.1, grid=grid)
        u0, cfg, _ = seen["evolve"][0]
        assert cfg == solver
        assert np.array_equal(u0.samples(), gaussian_bump(grid).samples())
        sweep, u0 = seen["rotation_limit_sweep"][0]
        assert sweep == SweepConfig(template=solver, t_compare=0.1)
        assert np.array_equal(u0.samples(), gaussian_bump(grid).samples())
        (spec,), options = seen["region_decay_check"]
        assert spec == KernelSpec(16.0, -1.0, 1.0)
        assert options == {"seed": 0}
