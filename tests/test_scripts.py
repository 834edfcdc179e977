"""Smoke runs of the study driver in scripts/: main() returns 0 and prints its table."""

import importlib.util
import math
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

