"""Smoke runs of the scripts in scripts/: the study driver's main() returns 0 and prints its table, and the artifact
comparison finds no difference between a tree and itself and one extra character in a copy."""

import importlib.util
import math
import shutil
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table(out):
    """The header's words and each row's words of a printed table."""
    header, *rows = out.splitlines()
    return header.split(), [row.split() for row in rows]


class TestLatticeVsPde:
    def test_prints_one_gap_per_load(self, capsys):
        argv = ["--particles", "200,2000", "--sites", "20", "--cells-per-bin", "2", "--seeds", "2", "--t-end", "0.05"]
        assert load("lattice_vs_pde").main(argv) == 0
        header, rows = table(capsys.readouterr().out)
        assert header == ["particles", "u_max", "L1_gap"]
        assert [row[:2] for row in rows] == [["200", "50"], ["2000", "500"]]
        # inf > 0 holds too, so each gap must also be finite
        assert all(0.0 < float(row[2]) < math.inf for row in rows)

    def test_leap_fraction_flag_is_gone(self):
        with pytest.raises(SystemExit):
            load("lattice_vs_pde").main(["--leap-fraction", "0.25"])



class TestArtifactDiff:
    def test_finds_nothing_in_the_checkout_and_one_extra_character_in_a_copy(self, tmp_path):
        from test_cli import TINY_CFG

        diff = load("artifact_diff")
        case_list = [("tiny", TINY_CFG, [diff.RUN, diff.VERIFY])]
        checkout = SCRIPTS.parent
        base = diff.run_tree(str(checkout), case_list, str(tmp_path / "base"))
        # run_stats.json's timings and the directory's path differ between the two runs; both are masked
        assert diff.differences(base, diff.run_tree(str(checkout), case_list, str(tmp_path / "again"))) == []
        copy = tmp_path / "copy"
        shutil.copytree(checkout / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        cli = copy / "src" / "chemofront" / "cli.py"
        text = cli.read_text()
        assert text.count('print("run: %d steps') == 1
        cli.write_text(text.replace('print("run: %d steps', 'print("run:  %d steps'))
        changed = diff.run_tree(str(copy), case_list, str(tmp_path / "changed"))
        assert diff.differences(base, changed) == ["tiny: command 0 (run) stdout: differs"]
