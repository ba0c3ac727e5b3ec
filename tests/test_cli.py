import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ostrovsky
from ostrovsky import cli
from ostrovsky.cli import main
from ostrovsky.config import parse_config_text
from ostrovsky.errors import ConfigError
from ostrovsky.io import read_snapshot, write_snapshot
from ostrovsky.solver import gaussian_bump
from ostrovsky.spectral import Field, Grid

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


class TestSnapshotFormat:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        grid = Grid(64, 11.0)
        field = Field.from_samples(grid, rng.standard_normal(64))
        path = tmp_path / "snap.dat"
        write_snapshot(path, field, beta=-1.0, gamma=0.5, k=5, t=0.25)
        loaded, header = read_snapshot(path)
        assert np.array_equal(loaded.samples(), field.samples())
        assert header == {"n": 64, "L": 11.0, "beta": -1.0, "gamma": 0.5, "k": 5, "t": 0.25}

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


class TestProbeEstimatesCommand:
    def test_unknown_tag_lists_valid(self, tmp_path, capsys):
        code = main(["probe-estimates", "--which", "nope", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "2.03" in err and "3.03" in err

    def test_summary_written(self, tmp_path):
        out = tmp_path / "pe"
        code = main(["probe-estimates", "--which", "2.057", "--draws", "3",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary_2.057.json").read_text())
        assert np.isfinite(summary["max_ratio"])
        assert summary["refinement_factor"] < 4.0
        assert (out / "ratios_2.057.csv").exists()


class TestSweepCommand:
    def test_rate_json_has_finite_slope(self, tmp_path):
        cfg = write_cfg(tmp_path, """
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
""")
        out = tmp_path / "sweep"
        assert main(["sweep-gamma", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
        rate = json.loads((out / "rate.json").read_text())
        assert np.isfinite(rate["slope"])
        svg = (out / "rate.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg
        rows = (out / "rate.csv").read_text().splitlines()
        assert rows[0] == "gamma,error,floor_flag"
        assert len(rows) == 4


class TestInvariantsCommand:
    def test_pass_on_conservative_snapshot(self, tmp_path):
        grid = Grid(128, 20.0)
        field = gaussian_bump(grid, amplitude=0.4, width=2.0)
        snap = tmp_path / "snap.dat"
        write_snapshot(snap, field, beta=-1.0, gamma=1.0, k=5, t=0.0)
        cfg = write_cfg(tmp_path, f"""
[invariants]
snapshot = {snap}
horizon = 0.05
""")
        out = tmp_path / "inv"
        assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["passed"]


class TestManifest:
    def test_manifest_contains_resolved_config(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLVE_CFG)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["config"]["solve"]["beta"] == "-1.0"
        assert manifest["counts"]["steps"] == 10


class TestProbeKernelCommand:
    def test_summary_reports_quadrature_per_block(self, tmp_path, monkeypatch):
        small = cli.kernel_mixed_norm
        monkeypatch.setattr(cli, "kernel_mixed_norm",
                            lambda spec, gamma_exp: small(spec, gamma_exp, n_x=8, n_t=4))
        cfg = write_cfg(tmp_path, "[probe-kernel]\nblocks = 8 16\nsamples_per_region = 3\n")
        out = tmp_path / "out"
        assert main(["probe-kernel", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "kernel_summary.json").read_text())
        assert sorted(summary) == ["blocks", "gamma_exp", "quadrature"]
        assert sorted(summary["quadrature"]) == sorted(summary["blocks"]) == ["16.0", "8.0"]
        for block in summary["quadrature"].values():
            decay, mixed = block["decay"], block["mixed_norm"]
            assert decay["points"] == 3 * 3 + 10 * 33
            assert mixed["points"] == 16 * 4
            for stats in (decay, mixed):
                assert sorted(stats) == ["max_error", "over_cap", "points",
                                         "refined_x16", "refined_x4"]
                assert 0.0 < stats["max_error"] <= 1e-9
