"""golden.py: the record of fresh numbers, and the --moves report of how
fresh runs move against golden.json."""

import copy
import json
import math

import numpy as np
import pytest

import golden


def _moves_output(tmp_path, monkeypatch, capsys, shift):
    """Report picard, the smallest shipped config, against a golden.json
    whose picard entry is a fresh record of it with evolve_cross_check_l2
    moved by shift tolerances; (exit status, report lines)."""
    entry = golden.record("picard", tmp_path / "record")
    leaf = entry["numbers"]["evolve_cross_check_l2"]
    leaf["value"] += shift * leaf["tolerance"]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({**json.loads(golden.GOLDEN.read_text()), "picard": entry}))
    before = path.read_bytes()
    monkeypatch.setattr(golden, "GOLDEN", path)
    status = golden.run(["--moves", "picard"])
    assert path.read_bytes() == before  # the report writes nothing
    return status, capsys.readouterr().out.splitlines()


def _group_line(lines, group):
    (line,) = [line for line in lines if line.split()[0] == group]
    return line.split()


class TestMovesReport:
    def test_moved_field_named_and_fails(self, tmp_path, monkeypatch, capsys):
        status, lines = _moves_output(tmp_path, monkeypatch, capsys, 3.0)
        assert status == 1
        assert lines[0].startswith("picard: numbers OUTSIDE tolerance; hashes equal")
        moved = _group_line(lines, "evolve_cross_check_l2")
        assert moved[-1] == "3"  # share of tolerance
        unmoved = _group_line(lines, "difference")
        assert unmoved[3] == unmoved[5] == unmoved[-1] == "0"  # abs, rel, share
        assert any(line.startswith("  outside: evolve_cross_check_l2:") for line in lines)

    def test_unmoved_run_passes(self, tmp_path, monkeypatch, capsys):
        status, lines = _moves_output(tmp_path, monkeypatch, capsys, 0.0)
        assert status == 0
        assert lines[0] == "picard: numbers within tolerance; hashes equal"
        for group in ("difference", "evolve_cross_check_l2"):
            line = _group_line(lines, group)
            assert line[3] == line[5] == line[-1] == "0"


class TestExact:
    """--moves --exact on picard: one verdict line, and exit 0 only when
    every number moved by 0 and every comparable hash is equal."""

    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        return golden.record("picard", tmp_path_factory.mktemp("picard"))

    @staticmethod
    def _exact(tmp_path, monkeypatch, capsys, fresh, entry=None, exact=True):
        """(exit status, report lines) of fresh against golden.json, or
        against entry as its picard entry if given."""
        monkeypatch.setattr(golden, "record", lambda stem, out: copy.deepcopy(fresh))
        if entry is not None:
            path = tmp_path / "golden.json"
            path.write_text(json.dumps({**json.loads(golden.GOLDEN.read_text()), "picard": entry}))
            monkeypatch.setattr(golden, "GOLDEN", path)
        status = golden.run(["--moves", "picard", *(["--exact"] if exact else [])])
        return status, capsys.readouterr().out.splitlines()

    def test_tree_is_bit_identical(self, tmp_path, monkeypatch, capsys, fresh):
        if golden.hash_mismatch("picard"):
            pytest.skip(golden.hash_mismatch("picard"))
        assert self._exact(tmp_path, monkeypatch, capsys, fresh) == \
            (0, ["picard: bit-identical; hashes equal"])

    def test_number_moved_by_one_ulp_fails(self, tmp_path, monkeypatch, capsys, fresh):
        entry = copy.deepcopy(fresh)
        leaf = entry["numbers"]["evolve_cross_check_l2"]
        leaf["value"] = float(np.nextafter(leaf["value"], math.inf))
        assert self._exact(tmp_path, monkeypatch, capsys, fresh, entry) == \
            (1, ["picard: moved within tolerance; hashes equal"])
        status, lines = self._exact(tmp_path, monkeypatch, capsys, fresh, entry, exact=False)
        assert status == 0 and lines[0] == "picard: numbers within tolerance; hashes equal"

    def test_perturbed_digest_fails(self, tmp_path, monkeypatch, capsys, fresh):
        entry = copy.deepcopy(fresh)
        entry["sha256"]["picard_diffs.csv"] = "0" * 64
        assert self._exact(tmp_path, monkeypatch, capsys, fresh, entry) == \
            (1, ["picard: outside tolerance; hashes differ: picard_diffs.csv"])


class TestRecord:
    def test_fresh_number_within_tolerance_is_written(self, tmp_path, monkeypatch):
        recorded = json.loads(golden.GOLDEN.read_text())
        fresh = copy.deepcopy(recorded)
        leaf = fresh["picard"]["numbers"]["evolve_cross_check_l2"]
        leaf["value"] += 0.5 * leaf["tolerance"]
        path = tmp_path / "golden.json"
        path.write_bytes(golden.GOLDEN.read_bytes())
        monkeypatch.setattr(golden, "GOLDEN", path)
        monkeypatch.setattr(golden, "record", lambda stem, out: copy.deepcopy(fresh[stem]))
        monkeypatch.setattr(golden, "record_zoo", lambda: copy.deepcopy(fresh[golden.ZOO]))
        assert golden.within_tolerance(fresh["picard"], recorded["picard"])
        assert golden.run([]) == 0
        assert json.loads(path.read_text()) == fresh


class TestZooDigests:
    """Per-draw digests of the zoo, on a two-tag zoo small enough to record
    here: 2.057 with its grid and window refinements, 3.03 with its lattice."""

    DRAWS = {"2.057": 2, "3.03": 1}

    @pytest.fixture
    def small_zoo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(golden, "ZOO_DRAWS", self.DRAWS)
        entry = golden.record_zoo()
        path = tmp_path / "golden.json"
        monkeypatch.setattr(golden, "GOLDEN", path)
        return entry, path

    def test_digest_per_ensemble_and_side(self, small_zoo):
        entry, _ = small_zoo
        assert sorted(entry["sha256"]) == sorted(
            f"{tag} {name} {side}" for tag, names in
            (("2.057", ("base", "grid_x2", "window_x2")), ("3.03", ("base", "lattice_x2")))
            for name in names for side in ("lhs", "rhs"))

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_perturbed_digest_fails_moves(self, small_zoo, capsys, perturbed):
        entry, path = small_zoo
        name = "2.057 window_x2 rhs"
        if perturbed:
            entry["sha256"][name] = "0" * 64
        path.write_text(json.dumps({golden.ZOO: entry}))
        assert golden.run(["--moves", golden.ZOO]) == int(perturbed)
        state = f"hashes differ: {name}" if perturbed else "hashes equal"
        assert capsys.readouterr().out.splitlines()[0] == \
            f"{golden.ZOO}: numbers within tolerance; {state}"

    def test_check_zoo_names_a_perturbed_digest(self, small_zoo):
        entry, path = small_zoo
        runs = {tag: golden.run_zoo_tag(tag) for tag in self.DRAWS}
        reports = {tag: report for tag, (report, _) in runs.items()}
        digests = {name: value for _, d in runs.values() for name, value in d.items()}
        path.write_text(json.dumps({golden.ZOO: entry}))
        golden.check_zoo(reports, digests)
        entry["sha256"]["3.03 lattice_x2 lhs"] = "0" * 64
        path.write_text(json.dumps({golden.ZOO: entry}))
        with pytest.raises(AssertionError, match="3.03 lattice_x2 lhs"):
            golden.check_zoo(reports, digests)


class TestKernelDigests:
    """The |K| digests of probe_kernel's mixed norms, checked here against
    the recorded ones without a quadrature run."""

    def test_check_digests_names_a_perturbed_block(self):
        if golden.hash_mismatch("probe_kernel"):
            pytest.skip(golden.hash_mismatch("probe_kernel"))
        recorded = json.loads(golden.GOLDEN.read_text())["probe_kernel"]["sha256"]
        digests = {name: value for name, value in recorded.items()
                   if name != "kernel_regions.csv"}
        assert sorted(digests) == [f"{n} mixed_norm |K|" for n in ("16.0", "32.0", "64.0")]
        golden.check_digests("probe_kernel", digests)
        digests["32.0 mixed_norm |K|"] = "0" * 64
        with pytest.raises(AssertionError, match=r"32\.0 mixed_norm \|K\|"):
            golden.check_digests("probe_kernel", digests)
        with pytest.raises(AssertionError, match="other arrays"):
            golden.check_digests("probe_kernel", {})
