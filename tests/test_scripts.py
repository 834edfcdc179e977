"""Smoke runs of the study drivers in scripts/: each main() returns 0 and prints its table."""

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


class TestFrontSpeedStudy:
    def test_fits_every_exponent(self, capsys):
        argv = ["--m-values", "2.0,3.0", "--cells", "64", "--t-end", "1", "--stride", "2"]
        assert load("front_speed_study").main(argv) == 0
        header, rows = table(capsys.readouterr().out)
        assert header == ["m", "exponent", "stderr", "r^2", "rows", "r_final"]
        assert [row[0] for row in rows] == ["2", "3"]
        assert all(0.0 < float(row[1]) < 2.0 for row in rows)

    def test_default_stride_fits(self, capsys):
        assert load("front_speed_study").main(["--m-values", "2.0"]) == 0
        _, [row] = table(capsys.readouterr().out)
        assert float(row[1]) > 0.0

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["--cells", "64", "--t-end", "1", "--stride", "50"], "too few history rows; lower --stride"),
            (["--cells", "48", "--extent", "3"], "support saturated the domain; enlarge --extent"),
        ],
    )
    def test_a_case_it_cannot_fit_names_the_cause(self, capsys, argv, cause):
        assert load("front_speed_study").main(["--m-values", "2.0"] + argv) == 0
        _, [row] = table(capsys.readouterr().out)
        assert " ".join(row).endswith(cause)


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


def test_relaxation_rates_fits_every_norm(capsys):
    module = load("relaxation_rates")
    assert module.main(["--cells", "16", "--t-end", "4", "--stride", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("final |u-1| = ")
    header, rows = table("\n".join(lines[1:]))
    assert header == ["norm", "rate", "r^2"]
    assert [row[0] for row in rows] == list(module.NORMS)
    assert all(float(row[1]) > 0.0 for row in rows)
