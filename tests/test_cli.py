"""Exercises the five subcommands through main(), checking artifacts and exit codes."""

import concurrent.futures
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from chemofront import cli, config_io, lattice, solver
from chemofront.cli import main
from chemofront.config_io import ConfigError, SnapshotError
from chemofront.diagnostics import HISTORY_COLUMNS
from chemofront.model import Field, Grid, StateQuad
from chemofront.profiles import ConstructionError
from conftest import RUN_CFG


TINY_CFG = """\
[model]
m = 2.0
mu = 1.0
delta = 1.0

[grid]
dim = 1
cells = 16
extent = 2.0
origin = -1.0

[solver]
t_end = 0.05
output_stride = 100

[initial]
u = bump 0.0 0.25 0.5
w = constant 1.0

[output]
seed = 3
"""

LATTICE_CFG = """\
[model]
m = 2.0

[grid]
dim = 1
cells = 16
extent = 2.0

[solver]
t_end = 0.05

[initial]
u = constant 0.0

[lattice]
sites = 20
u_max = 50
particles = 150
t_end = 0.05
seeds = 2
cells_per_bin = 2
"""

# the grids of TINY_CFG and of the reference run behind cli_run_dir, which their snapshots are read onto
TINY_GRID = Grid((16,), (2.0,), (-1.0,))
RUN_GRID = Grid((128,), (2.0,), (-1.0,))


def damage_snapshot(path, damage):
    """Rewrite a snapshot file with one NaN in u's payload ("nan"), an extent the grid refuses ("extent"),
    8 cells, which no config here has ("grid"), its fields in reverse order ("order") or a later version's
    magic ("version")."""
    parts = path.read_bytes().split(b"\n", 6)
    if damage == "nan":
        parts[6] = parts[6][:40] + np.array([np.nan], "<f8").tobytes() + parts[6][48:]
    elif damage == "extent":
        parts[3] = b"-2"
    elif damage == "order":
        parts[5] = b"z w v u"
    elif damage == "version":
        parts[0] = b"DCSIM2"
    else:
        parts[2] = b"8"
    path.write_bytes(b"\n".join(parts))


SNAPSHOT_DAMAGE = {
    "nan": "bad snapshot payload in '%s': u field contains non-finite entries",
    "extent": "bad snapshot header in '%s' (extent must be positive and finite, got -2.0)",
    "grid": "snapshot '%s' is on a grid of cells (8,), extent (2.0,); the configured grid has cells",
    "order": "snapshot field order ('z', 'w', 'v', 'u') in '%s' is not ('u', 'v', 'w', 'z')",
    "version": "snapshot version 'DCSIM2' of '%s' is not supported (expected DCSIM1)",
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    cfg = base / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    out = base / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return {"cfg": cfg, "out": out}


# --- run --------------------------------------------------------------------


class TestRunCommand:
    def test_artifacts_written(self, tiny_run):
        out = tiny_run["out"]
        names = sorted(os.listdir(out))
        assert "config.cfg" in names
        assert "history.csv" in names
        snaps = [n for n in names if n.startswith("snap_") and n.endswith(".bin")]
        assert len(snaps) >= 2  # at least initial and final
        assert snaps[0] == "snap_00000000.bin"

    def test_history_and_snapshots_agree_on_times(self, tiny_run):
        out = tiny_run["out"]
        history = config_io.read_csv_columns(str(out / "history.csv"))
        assert list(history) == list(HISTORY_COLUMNS)
        snaps = sorted(p for p in os.listdir(out) if p.startswith("snap_"))
        states = [config_io.read_snapshot(str(out / p), TINY_GRID) for p in snaps]
        hist_t = history["t"]
        assert len(states) == len(hist_t)
        assert np.allclose([s.t for s in states], hist_t, rtol=0, atol=1e-12)
        # verify audits the snapshots' masses in place of this column, so they must agree exactly
        assert list(history["mass_vw"]) == [s.mass_vw() for s in states]
        assert hist_t[0] == 0.0
        assert hist_t[-1] == pytest.approx(0.05, abs=1e-9)

    def test_written_config_round_trips(self, tiny_run):
        cfg = config_io.parse_config_file(str(tiny_run["out"] / "config.cfg"))
        assert cfg.model.m == 2.0
        assert cfg.seed == 3

    def test_seed_override_lands_in_config(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "seeded"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
        assert config_io.parse_config_file(str(out / "config.cfg")).seed == 99

    def test_run_prints_summary_line(self, tiny_run, tmp_path, capsys):
        out = tmp_path / "again"
        assert main(["run", "--config", str(tiny_run["cfg"]), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("run: ")
        assert "snapshots" in captured

    def test_run_stats_count_every_step_once(self, tiny_run):
        stats = json.loads((tiny_run["out"] / "run_stats.json").read_text())
        assert set(stats) == {"steps", "stages", "wall_s", "steps_per_s", "dt", "bound_by", "clipped_mass"}
        assert list(stats["bound_by"]) == ["diffusion", "drift", "reaction", "cap"]
        assert sum(stats["bound_by"].values()) == stats["steps"] > 0
        assert 2 * stats["steps"] <= stats["stages"] <= solver.MAX_STAGES * stats["steps"]
        assert 0.0 < stats["dt"]["min"] <= stats["dt"]["median"] <= stats["dt"]["max"]
        assert stats["wall_s"] > 0.0
        assert stats["steps_per_s"] == pytest.approx(stats["steps"] / stats["wall_s"], rel=1e-12)
        assert stats["clipped_mass"] == 0.0

    def test_run_stats_clipped_mass_is_the_sum_of_each_steps_clipped_mass(self, tmp_path, capsys, monkeypatch):
        # a bump repelled off the top of a steep signal, stepped at twice its CFL dt at safety 1, is overdrawn
        monkeypatch.setattr(solver, "CFL_SAFETY", 1.0)
        real_cfl, real_step = solver.cfl_dt, solver.step
        clipped = []

        def doubled(*args):
            dt, terms = real_cfl(*args)
            return 2.0 * dt, terms

        def recorded(*args):
            out = real_step(*args)
            clipped.append(out[5])
            return out

        monkeypatch.setattr(solver, "cfl_dt", doubled)
        monkeypatch.setattr(solver, "step", recorded)
        text = TINY_CFG.replace("cells = 16", "cells = 32").replace("delta = 1.0", "delta = 1.0\nphi = constant -1.0")
        text = text.replace("u = bump 0.0 0.25 0.5", "u = bump 0.0 0.5 0.8\nv = bump 0.0 1.0 100.0\nz = constant 0.5")
        cfg = tmp_path / "clips.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
        assert len(clipped) == stats["steps"]
        assert sum(c > 0.0 for c in clipped) >= 2
        assert stats["clipped_mass"] == sum(clipped)
        assert "run: clipped negative mass %.3e" % sum(clipped) in capsys.readouterr().out

    def test_a_failed_run_keeps_every_history_row_it_emitted(self, tmp_path, monkeypatch):
        # each history row is on disk, exactly, once it is emitted: the third snapshot write fails the run
        cfg = tmp_path / "every_step.cfg"
        cfg.write_text(TINY_CFG.replace("output_stride = 100", "output_stride = 1"))
        real_write = config_io.write_snapshot
        emitted = []

        def write_then_fail(path, state):
            history = config_io.read_csv_columns(str(tmp_path / "out" / "history.csv"))
            emitted.append(state.t)
            assert list(history["t"]) == emitted
            if len(emitted) == 3:
                raise solver.SimulationError("stopped after three rows")
            real_write(path, state)

        monkeypatch.setattr(config_io, "write_snapshot", write_then_fail)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert len(emitted) == 3
        assert len((tmp_path / "out" / "history.csv").read_text().splitlines()) == 4

    def test_run_stats_of_a_zero_length_run(self, tmp_path):
        cfg = tmp_path / "still.cfg"
        cfg.write_text(TINY_CFG.replace("t_end = 0.05", "t_end = 0.0"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
        assert stats["steps"] == stats["stages"] == stats["steps_per_s"] == 0 and stats["dt"] is None
        assert set(stats["bound_by"].values()) == {0}

    def test_zero_length_run_writes_its_initial_state_and_verifies(self, tmp_path, capsys):
        cfg = tmp_path / "still.cfg"
        cfg.write_text(TINY_CFG.replace("t_end = 0.05", "t_end = 0.0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        history = config_io.read_csv_columns(str(out / "history.csv"))
        assert [col.size for col in history.values()] == [1] * len(HISTORY_COLUMNS)
        assert history["t"][0] == 0.0
        assert sorted(p.name for p in out.glob("snap_*.bin")) == ["snap_00000000.bin"]
        assert config_io.read_snapshot(str(out / "snap_00000000.bin"), TINY_GRID).t == 0.0
        assert main(["verify", "--out", str(out)]) == 0
        assert "sandwich lower viol 0.000e+00 (1 snaps)" in capsys.readouterr().out

    def test_reference_run_is_diffusion_bound_on_most_steps(self, cli_run_dir):
        stats = json.loads((cli_run_dir["out"] / "run_stats.json").read_text())
        assert sum(stats["bound_by"].values()) == stats["steps"]
        assert stats["bound_by"]["diffusion"] > stats["steps"] / 2

    def test_collapsed_dt_is_numeric_failure(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = bump 0.0 0.25 1e13"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "diffusion term binds" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize(
        "line", ["v_z_stepper = explicit", "chemo_upwind = off", "clip_negative = off"]
    )
    def test_retired_solver_option_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(TINY_CFG.replace("output_stride = 100", "output_stride = 100\n" + line))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line 15: option solver.%s was removed" % line.split(" = ")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, line, line_no",
        [
            ("model", "eps_reg = 0.05", 5),
            ("oracles", "check_upper = off", 24),
            ("oracles", "check_lower = off", 24),
        ],
    )
    def test_retired_model_and_oracle_options_are_config_errors(self, tmp_path, capsys, section, line, line_no):
        cfg = tmp_path / "old.cfg"
        if section == "oracles":
            cfg.write_text(TINY_CFG + "\n[oracles]\n" + line + "\n")
        else:
            cfg.write_text(TINY_CFG.replace("delta = 1.0", "delta = 1.0\n" + line))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line %d: option %s.%s was removed" % (line_no, section, line.split(" = ")[0]) in err
        assert not out.exists()

    @pytest.mark.parametrize("damage", sorted(SNAPSHOT_DAMAGE))
    def test_damaged_snapshot_initial_is_snapshot_error_naming_the_file(self, tmp_path, capsys, damage):
        snap = tmp_path / "seed.bin"
        tiny = config_io.parse_config(TINY_CFG)
        config_io.write_snapshot(str(snap), config_io.build_initial_state(tiny))
        damage_snapshot(snap, damage)
        cfg = tmp_path / "from_snapshot.cfg"
        cfg.write_text(TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = snapshot seed.bin u"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "snapshot error: " + SNAPSHOT_DAMAGE[damage] % snap in capsys.readouterr().err
        assert not out.exists()

    def test_run_from_a_relative_snapshot_verifies_and_reruns_alike(self, tiny_run, tmp_path):
        # config.cfg names the snapshot resolved against the original config's directory,
        # so verify and a rerun from the run directory read the file the run read, spaces and all
        source = tmp_path / "old configs"
        source.mkdir()
        shutil.copy(sorted(tiny_run["out"].glob("snap_*.bin"))[-1], source / "late.bin")
        cfg = source / "relax.cfg"
        cfg.write_text(TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = snapshot late.bin u"))
        run_dir, again = tmp_path / "runs" / "relax", tmp_path / "again"
        assert main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
        assert "u = snapshot %s u\n" % (source / "late.bin") in (run_dir / "config.cfg").read_text()
        assert main(["verify", "--out", str(run_dir)]) == 0
        assert main(["run", "--config", str(run_dir / "config.cfg"), "--out", str(again)]) == 0
        assert (again / "history.csv").read_bytes() == (run_dir / "history.csv").read_bytes()

    def test_missing_snapshot_is_one_io_error_before_any_directory(self, tmp_path, capsys):
        # the parser makes no filesystem call; building the initial state opens the file
        cfg = tmp_path / "from_snapshot.cfg"
        cfg.write_text(TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = snapshot missing.bin u"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        missing = str(tmp_path / "missing.bin")
        assert capsys.readouterr().err == "io error: [Errno 2] No such file or directory: %r\n" % missing
        assert not out.exists()

    def test_snapshot_path_holding_a_hash_is_config_error_before_any_step(self, tiny_run, tmp_path, capsys, monkeypatch):
        # config.cfg would store the path, and reading it back would cut the line at the '#'
        monkeypatch.setattr(solver, "run", lambda *args, **kwargs: pytest.fail("a step ran"))
        source = tmp_path / "h#dir"
        source.mkdir()
        shutil.copy(sorted(tiny_run["out"].glob("snap_*.bin"))[-1], source / "late.bin")
        text = TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = snapshot late.bin u")
        cfg = source / "relax.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        line_no = text.splitlines().index("u = snapshot late.bin u") + 1
        message = "config error: line %d: snapshot path %r holds '#', which starts a comment in config.cfg" % (
            line_no, str(source / "late.bin"))
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_broken_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nm = fast\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err


class TestOneRunPerDirectory:
    def test_shorter_rerun_leaves_no_earlier_snapshot_report_or_fits(self, tmp_path, capsys):
        # a run, verified and fitted, then a shorter one with twice the matrix, so another v + w mass, into its directory
        text = TINY_CFG.replace("cells = 16", "cells = 32").replace("output_stride = 100", "output_stride = 1")
        first = tmp_path / "first.cfg"
        first.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(first), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        assert main(["fit", str(out / "history.csv"), "--out", str(out)]) == 0
        earlier = len(list(out.glob("snap_*.bin")))
        second = tmp_path / "second.cfg"
        second.write_text(text.replace("t_end = 0.05", "t_end = 0.01").replace("w = constant 1.0", "w = constant 2.0"))
        assert main(["run", "--config", str(second), "--out", str(out)]) == 0
        rows = len(config_io.read_csv_columns(str(out / "history.csv"))["t"])
        assert 2 <= rows < earlier
        assert sorted(p.name for p in out.glob("snap_*.bin")) == [cli.SNAPSHOT_PATTERN % i for i in range(rows)]
        assert not (out / "verify_report.csv").exists() and not (out / "fits.csv").exists()
        assert main(["verify", "--out", str(out)]) == 0

    def test_directory_with_glob_characters_holds_its_snapshots(self, tiny_run, tmp_path):
        out = tmp_path / "run[1]"
        assert main(["run", "--config", str(tiny_run["cfg"]), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0

    @pytest.mark.parametrize("name", ["h#x", " sp", "jos\u00e9"])
    def test_any_directory_name_runs_and_verifies_with_the_same_config(self, tiny_run, tmp_path, monkeypatch, name):
        # config.cfg records the run's inputs, not its location, so a '#', a leading space or a non-ASCII
        # letter in the name cannot reach it
        monkeypatch.chdir(tmp_path)
        for out in ("plain", name):
            assert main(["run", "--config", str(tiny_run["cfg"]), "--out", out]) == 0
            assert main(["verify", "--out", out]) == 0
        text = (tmp_path / name / "config.cfg").read_text(encoding="ascii")
        assert [line for line in text.splitlines() if line.startswith("dir")] == []
        assert (tmp_path / name / "config.cfg").read_bytes() == (tmp_path / "plain" / "config.cfg").read_bytes()


class TestNonAsciiInput:
    # config.cfg and every CSV fit reads are ASCII: anything else is a config error (exit 1), not a numerical failure

    def test_config_is_refused_naming_its_line_before_any_directory(self, tmp_path, capsys):
        cfg = tmp_path / "mu.cfg"
        cfg.write_text(TINY_CFG.replace("[model]", "# growth rate \u03bc\n[model]"), encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: config %r line 1: byte 0xce is not ASCII\n" % str(cfg)
        assert not (tmp_path / "out").exists()

    def test_csv_is_refused_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "mu.csv"
        path.write_text("t,norm_w\n" + "".join("%d,1\n" % i for i in range(20)) + "20,1 \u03bc\n", encoding="utf-8")
        assert main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: CSV %r line 22: byte 0xce is not ASCII\n" % str(path)

    def test_snapshot_path_is_refused_before_any_directory(self, tiny_run, tmp_path, capsys):
        folder = tmp_path / "jos\u00e9"
        folder.mkdir()
        shutil.copy(tiny_run["out"] / "snap_00000000.bin", folder / "start.bin")
        cfg = folder / "from_snapshot.cfg"
        text = TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = snapshot start.bin u")
        cfg.write_text(text)
        line_no = text.splitlines().index("u = snapshot start.bin u") + 1
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: line %d: snapshot path %r is not ASCII, as config.cfg must be\n" % (
            line_no, str(folder / "start.bin"))
        assert not out.exists()


# --- verify -----------------------------------------------------------------


CHEMO_CFG = """\
[model]
m = 2.0
mu = 0.0
phi = %s

[grid]
dim = 1
cells = 64
extent = 2.0
origin = -1.0

[solver]
t_end = 0.2

[initial]
u = bump 0.0 0.25 0.5
v = bump 0.5 0.5 1.0
w = constant 0.0
z = constant 0.0
"""


class TestChemotaxisEndToEnd:
    # a bump of u under a signal v that peaks to its right: only the drift term can move u's centre of mass
    @pytest.mark.parametrize("phi, low, high", [
        ("constant 1.0", 0.030, 0.036),
        # phi = 1 - u/0.5 is below 1 wherever u > 0, so the bump drifts about half as far
        ("linear_switch 0.5", 0.013, 0.018),
    ])
    def test_signal_pulls_the_density_uphill(self, tmp_path, phi, low, high):
        assert low <= self.final_centre(tmp_path, phi) <= high

    def test_no_sensitivity_leaves_the_centre_in_place(self, tmp_path):
        assert abs(self.final_centre(tmp_path, "constant 0.0")) <= 1e-12

    @staticmethod
    def final_centre(tmp_path, phi):
        cfg = tmp_path / "chemo.cfg"
        cfg.write_text(CHEMO_CFG % phi)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        final = config_io.read_snapshot(str(sorted(out.glob("snap_*.bin"))[-1]), Grid((64,), (2.0,), (-1.0,)))
        assert final.t == pytest.approx(0.2, abs=1e-12)
        x, u = final.grid.axis_centers(0), final.u.values
        centre = float(np.sum(x * u) / np.sum(u))
        print("phi = %s: centre of mass of u at t = 0.2 is %.6g" % (phi, centre))
        return centre


class TestVerifyCommand:
    def test_clean_run_passes(self, cli_run_dir, capsys):
        code = main(["verify", "--out", str(cli_run_dir["out"])])
        captured = capsys.readouterr().out
        assert code == 0
        assert "mass drift" in captured
        assert "sandwich" in captured

    def test_report_csv_written(self, cli_run_dir):
        assert main(["verify", "--out", str(cli_run_dir["out"])]) == 0
        lines = (cli_run_dir["out"] / "verify_report.csv").read_text().splitlines()
        assert lines[0] == "metric,value"
        metrics = {ln.split(",")[0] for ln in lines[1:]}
        assert {"mass_drift", "c1", "c2", "lower_amplitude", "upper_valid_until",
                "max_lower_violation", "violation_count"} <= metrics

    def test_c1_and_c2_are_the_largest_attractant_slope_and_laplacian_plus_ten_percent(self, cli_run_dir):
        out = cli_run_dir["out"]
        assert main(["verify", "--out", str(out)]) == 0
        report = dict(ln.split(",") for ln in (out / "verify_report.csv").read_text().splitlines()[1:])
        h = RUN_GRID.h
        slopes, laplacians = [], []
        for path in sorted(out.glob("snap_*.bin")):
            v = config_io.read_snapshot(str(path), RUN_GRID).v.values
            slopes.append(np.abs(np.diff(v)).max() / h)
            # no-flux walls: the ghost cell beyond each wall repeats the wall cell
            laplacians.append(np.abs(np.diff(np.pad(v, 1, mode="edge"), 2)).max() / (h * h))
        assert len(slopes) > 1 and max(slopes) > 0.0 and max(laplacians) > 0.0
        assert float(report["c1"]) == pytest.approx(1.1 * max(slopes), rel=1e-12)
        assert float(report["c2"]) == pytest.approx(1.1 * max(laplacians), rel=1e-12)

    def test_corrupted_snapshot_fails_with_exit_3(self, cli_run_dir, tmp_path, capsys):
        src = cli_run_dir["out"]
        dst = tmp_path / "broken"
        shutil.copytree(src, dst)
        snaps = sorted(p for p in os.listdir(dst) if p.startswith("snap_"))
        victim = str(dst / snaps[len(snaps) // 2])
        state = config_io.read_snapshot(victim, RUN_GRID)
        crushed = state.__class__(
            state.u.__class__(state.u.grid, state.u.values * 1e-6),
            state.v,
            state.w,
            state.z,
            t=state.t,
        )
        config_io.write_snapshot(victim, crushed)
        code = main(["verify", "--out", str(dst)])
        captured = capsys.readouterr().out
        assert code == 3
        assert "FAIL" in captured
        report = dict(
            ln.split(",") for ln in (dst / "verify_report.csv").read_text().splitlines()[1:]
        )
        assert float(report["violation_count"]) > 0
        assert float(report["max_lower_violation"]) > 1e-8

    @pytest.mark.parametrize("drift, code", [(1e-12, 0), (1e-8, 3)])
    def test_mass_drift_past_the_tolerance_fails_with_exit_3(self, cli_run_dir, tmp_path, drift, code):
        # w of the last snapshot scaled so that its v + w mass is off by a relative drift, either side of MASS_TOL
        dst = tmp_path / "drifted"
        shutil.copytree(cli_run_dir["out"], dst)
        victim = str(sorted(dst.glob("snap_*.bin"))[-1])
        state = config_io.read_snapshot(victim, RUN_GRID)
        w = state.w.values * (1.0 + drift * state.mass_vw() / state.w.mass())
        config_io.write_snapshot(victim, StateQuad(state.u, state.v, Field(RUN_GRID, w), state.z, t=state.t))
        assert main(["verify", "--out", str(dst)]) == code
        report = dict(ln.split(",") for ln in (dst / "verify_report.csv").read_text().splitlines()[1:])
        assert float(report["mass_drift"]) == pytest.approx(drift, rel=1e-2)
        # a failed mass audit does not stop verify: the envelope check runs and writes its rows too
        assert float(report["checked_lower"]) > 0

    def test_violation_count_is_exact_past_a_thousand(self, cli_run_dir, tmp_path):
        # the first snapshot, then `copies` copies of it at t = 0 with u emptied; each
        # copy misses the sub-profile on the same cells, so the count scales with them
        def count(copies):
            dst = tmp_path / ("empty_%d" % copies)
            dst.mkdir()
            shutil.copy(cli_run_dir["out"] / "config.cfg", dst)
            first = config_io.read_snapshot(str(cli_run_dir["out"] / "snap_00000000.bin"), RUN_GRID)
            config_io.write_snapshot(str(dst / "snap_00000000.bin"), first)
            empty = first.__class__(first.u.__class__(first.grid, np.zeros(first.grid.cells)),
                                    first.v, first.w, first.z, t=first.t)
            for i in range(1, copies + 1):
                config_io.write_snapshot(str(dst / ("snap_%08d.bin" % i)), empty)
            assert main(["verify", "--out", str(dst)]) == 3
            report = dict(ln.split(",") for ln in (dst / "verify_report.csv").read_text().splitlines()[1:])
            assert float(report["checked_lower"]) == copies + 1
            return float(report["violation_count"])

        one = count(1)
        assert 0 < one < 1000
        many = count(60)
        assert many > 1000
        assert many == 60 * one

    def test_verify_reads_no_history_csv(self, cli_run_dir, tmp_path, capsys):
        # the mass audit reads the snapshots, which run writes with every history row
        kept, dropped = tmp_path / "kept", tmp_path / "dropped"
        shutil.copytree(cli_run_dir["out"], kept)
        shutil.copytree(cli_run_dir["out"], dropped)
        (dropped / "history.csv").unlink()
        capsys.readouterr()
        assert main(["verify", "--out", str(kept)]) == 0
        printed = capsys.readouterr().out
        assert main(["verify", "--out", str(dropped)]) == 0
        assert capsys.readouterr().out == printed
        assert (dropped / "verify_report.csv").read_bytes() == (kept / "verify_report.csv").read_bytes()

    def test_snapshot_started_run_verifies_after_its_source_moved(self, tiny_run, tmp_path, capsys):
        # verify checks the snapshots the run wrote and never builds the initial state, so neither a moved source
        # nor the relative [initial] path that older versions wrote into config.cfg stops it
        source = tmp_path / "source"
        source.mkdir()
        shutil.copy(sorted(tiny_run["out"].glob("snap_*.bin"))[-1], source / "late.bin")
        cfg = source / "relax.cfg"
        cfg.write_text(TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = snapshot late.bin u"))
        current, old = tmp_path / "current", tmp_path / "old"
        assert main(["run", "--config", str(cfg), "--out", str(current)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(current)]) == 0
        printed, report = capsys.readouterr().out, (current / "verify_report.csv").read_bytes()
        shutil.copytree(current, old)
        resolved = "u = snapshot %s u\n" % (source / "late.bin")
        text = (old / "config.cfg").read_text()
        assert resolved in text
        (old / "config.cfg").write_text(text.replace(resolved, "u = snapshot late.bin u\n"))
        (source / "late.bin").rename(tmp_path / "moved.bin")
        for run_dir in (current, old):
            assert main(["verify", "--out", str(run_dir)]) == 0
            assert capsys.readouterr().out == printed
            assert (run_dir / "verify_report.csv").read_bytes() == report

    def test_run_dir_with_retired_solver_lines_verifies_alike(self, cli_run_dir, tmp_path):
        # run directories written before the solver options were retired carry them at the kept values
        current, old = tmp_path / "current", tmp_path / "old"
        shutil.copytree(cli_run_dir["out"], current)
        shutil.copytree(cli_run_dir["out"], old)
        cfg = old / "config.cfg"
        text = cfg.read_text()
        assert "clip_negative" not in text
        cfg.write_text(text.replace(
            "output_stride = 200\n",
            "output_stride = 200\nclip_negative = on\nchemo_upwind = on\nv_z_stepper = semi-implicit\n",
        ))
        assert main(["verify", "--out", str(current)]) == 0
        assert main(["verify", "--out", str(old)]) == 0
        assert (old / "verify_report.csv").read_bytes() == (current / "verify_report.csv").read_bytes()

    def test_run_dir_written_with_eps_reg_and_oracles_verifies_alike(self, cli_run_dir, tmp_path, capsys):
        # the config.cfg of a run directory written while [model] eps_reg and [oracles] were options
        current, old = tmp_path / "current", tmp_path / "old"
        shutil.copytree(cli_run_dir["out"], current)
        shutil.copytree(cli_run_dir["out"], old)
        cfg = old / "config.cfg"
        text = cfg.read_text()
        assert "eps_reg" not in text and "[oracles]" not in text
        cfg.write_text(text.replace("r = 1.0\n", "r = 1.0\neps_reg = 0.0\n", 1)
                       + "\n[oracles]\ncheck_lower = on\ncheck_upper = on\n")
        capsys.readouterr()
        assert main(["verify", "--out", str(current)]) == 0
        printed = capsys.readouterr().out
        assert main(["verify", "--out", str(old)]) == 0
        assert capsys.readouterr().out == printed
        assert (old / "verify_report.csv").read_bytes() == (current / "verify_report.csv").read_bytes()

    @pytest.mark.parametrize("damage", sorted(SNAPSHOT_DAMAGE))
    def test_damaged_snapshot_is_snapshot_error_naming_the_file(self, cli_run_dir, tmp_path, capsys, damage):
        # the mass audit reads every snapshot before verify prints a line, so any damaged one leaves no output
        for where in ("first", "middle", "last"):
            dst = tmp_path / where
            shutil.copytree(cli_run_dir["out"], dst)
            (dst / "verify_report.csv").unlink(missing_ok=True)
            snaps = sorted(dst.glob("snap_*.bin"))
            victim = snaps[{"first": 0, "middle": len(snaps) // 2, "last": -1}[where]]
            damage_snapshot(victim, damage)
            capsys.readouterr()
            assert main(["verify", "--out", str(dst)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "snapshot error: " + SNAPSHOT_DAMAGE[damage] % victim in captured.err
            assert not (dst / "verify_report.csv").exists()

    def test_verify_holds_at_most_two_snapshots_at_once(self, cli_run_dir, monkeypatch, capsys):
        # each pass reads the snapshots one file at a time: the one in hand and the one being read are all it holds
        read, live, peak = config_io.read_snapshot, [0], [0]

        def dropped():
            live[0] -= 1

        def counted(path, grid):
            state = read(path, grid)
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            weakref.finalize(state, dropped)
            return state

        monkeypatch.setattr(config_io, "read_snapshot", counted)
        assert main(["verify", "--out", str(cli_run_dir["out"])]) == 0
        assert len(list(cli_run_dir["out"].glob("snap_*.bin"))) > 2
        assert peak[0] <= 2

    def test_empty_initial_density_skips_both_envelopes(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(TINY_CFG.replace("u = bump 0.0 0.25 0.5", "u = constant 0.0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "verify: note: lower skipped: initial density is empty" in printed
        assert "verify: note: upper skipped: initial density is empty" in printed
        report = dict(ln.split(",") for ln in (out / "verify_report.csv").read_text().splitlines()[1:])
        assert report["checked_lower"] == report["checked_upper"] == "0"
        envelope = ("lower_amplitude", "lower_spread", "lower_rate", "upper_amplitude", "upper_shift", "upper_valid_until")
        assert [report[name] for name in envelope] == ["nan"] * len(envelope)

    def test_non_run_directory_is_usage_error(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 1

    @staticmethod
    def _large_or_small_m_run(tmp_path, capsys, m, mu):
        # the reference bump to t = 0.25 at another m and mu
        cfg = tmp_path / "other_m.cfg"
        cfg.write_text(
            RUN_CFG.replace("t_end = 1.0", "t_end = 0.25").replace("m = 2.0", "m = " + m).replace("mu = 1.0", "mu = " + mu)
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    @pytest.mark.parametrize(
        "m, mu",
        [
            ("1.0001", "0.0"),
            ("1.0001", "1.0"),
            ("1.01", "0.0"),
            ("1.01", "1.0"),
            ("600", "1.0"),
            ("1e300", "1.0"),
        ],
    )
    def test_envelope_out_of_float_range_is_one_line_naming_m(self, tmp_path, capsys, m, mu):
        # near m = 1 the amplitudes' powers 1/(m-1) leave the float range, at 600 the lower spread underflows,
        # and at 1e300 the lower spread does
        out = self._large_or_small_m_run(tmp_path, capsys, m, mu)
        assert main(["verify", "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: ") and "m=%g" % float(m) in line
        assert "np.float64" not in line

    def test_upper_envelope_at_m_200_is_built_and_holds(self, tmp_path, capsys):
        # the three inequalities first hold together at shift 2^-9, where eps^(m-1) alone is past the float range
        out = self._large_or_small_m_run(tmp_path, capsys, "200", "1.0")
        assert main(["verify", "--out", str(out)]) == 0
        assert "verify: upper profile amplitude=" in capsys.readouterr().out
        report = dict(ln.split(",") for ln in (out / "verify_report.csv").read_text().splitlines()[1:])
        assert float(report["upper_shift"]) == 2.0**-9
        assert report["violation_count"] == "0"

    def test_upper_envelope_at_m_1e300_without_growth_is_built_and_holds(self, tmp_path, capsys):
        # sup k < 1, so (sup k)^(m-1) vanishes and shift 1/2 meets every inequality; coeff, about c1^2 m^3, is past
        # the float range, but it enters only through log B2
        out = self._large_or_small_m_run(tmp_path, capsys, "1e300", "0.0")
        assert main(["verify", "--out", str(out)]) == 0
        assert "verify: upper profile amplitude=0.999023 shift=0.5 valid for t<=0.5" in capsys.readouterr().out
        report = dict(ln.split(",") for ln in (out / "verify_report.csv").read_text().splitlines()[1:])
        assert report["checked_upper"] == "2"
        assert report["violation_count"] == "0"


def seed_ball_radius_by_walk(u, x0, level):
    """_seed_ball_radius written as a walk over the cells, nearest first (ties by index), to the first below level."""
    d2 = u.grid.center_distance2(x0).ravel()
    best = 0.0
    for idx in np.argsort(d2, kind="stable"):
        if u.values.ravel()[idx] < level:
            break
        best = float(d2[idx])
    return max(np.sqrt(best), 0.5 * u.grid.h)


class TestSeedBallRadius:
    GRIDS = {1: Grid((16,), (2.0,), (-1.0,)), 2: Grid((12, 12), (3.0, 3.0), (-1.5, -1.5))}

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_walk_on_random_fields(self, dim, seed):
        # a noisy bump in steps of 0.1, so that cells sit at the level, centred on a cell face or centre (where
        # distances tie) or anywhere
        rng = np.random.default_rng(seed)
        grid = self.GRIDS[dim]
        x0 = [(0.0,) * dim, tuple(grid.origin[a] + 6.5 * grid.h for a in range(dim)),
              tuple(rng.uniform(-0.5, 0.5, dim))][seed % 3]
        values = np.round(np.clip(1.0 - grid.center_distance2(x0), 0.0, None) + rng.uniform(0.0, 0.3, grid.cells), 1)
        u = Field(grid, values)
        for level in (0.2, 0.5, 0.8, 1.2):
            assert cli._seed_ball_radius(u, x0, level) == seed_ball_radius_by_walk(u, x0, level)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_is_half_a_spacing_when_no_cell_reaches_the_level(self, dim):
        grid = self.GRIDS[dim]
        assert cli._seed_ball_radius(Field.full(grid, 0.25), (0.0,) * dim, 0.5) == 0.5 * grid.h

    @pytest.mark.parametrize("dim", [1, 2])
    def test_is_half_a_spacing_when_only_the_nearest_cell_is_inside(self, dim):
        # x0 a quarter spacing from the nearest centre, whose distance alone is under the floor
        grid = self.GRIDS[dim]
        x0 = tuple(grid.origin[a] + 6.25 * grid.h for a in range(dim))
        values = np.zeros(grid.cells)
        values[(6,) * dim] = 1.0
        assert cli._seed_ball_radius(Field(grid, values), x0, 0.5) == 0.5 * grid.h

    @pytest.mark.parametrize("dim", [1, 2])
    def test_field_wholly_above_the_level_reaches_the_farthest_cell(self, dim):
        grid = self.GRIDS[dim]
        x0 = (0.1,) * dim
        expected = np.sqrt(np.max(grid.center_distance2(x0)))
        assert cli._seed_ball_radius(Field.full(grid, 1.0), x0, 0.5) == expected


# --- fit --------------------------------------------------------------------


class TestFitCommand:
    def test_fits_history_and_writes_csv(self, cli_run_dir, tmp_path, capsys):
        history = cli_run_dir["out"] / "history.csv"
        out = tmp_path / "fits"
        code = main(["fit", str(history), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        lines = captured.strip().splitlines()
        assert lines[0] == "column,kind,exponent_or_rate,prefactor,r_squared,stderr,samples"
        kinds = {ln.split(",")[0]: ln.split(",")[1] for ln in lines[1:]}
        assert kinds.get("support_radius") == "power_law"
        assert all(v == "exponential" for k, v in kinds.items() if k.startswith("norm_"))
        written = (out / "fits.csv").read_text().strip().splitlines()
        assert written == lines

    def test_flat_column_is_skipped_as_a_constant_series(self, tmp_path, capsys):
        # sup|u - 1/r| stays at 1 while any cell is empty: a series that cannot move has no rate, so it gets no row
        path = tmp_path / "flat.csv"
        path.write_text("t,support_radius,norm_u_minus_1\n" + "".join("%d,%d,1\n" % (i, i + 1) for i in range(20)))
        assert main(["fit", str(path), "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "fit: skipped norm_u_minus_1 (exponential fit of a constant series)\n"
        assert [line.split(",")[0] for line in captured.out.splitlines()] == ["column", "support_radius"]
        assert (tmp_path / "fits.csv").read_text() == captured.out

    @pytest.mark.parametrize("cell", ["1_5", "1e-400"])
    def test_underscore_or_underflowing_cell_is_config_error_naming_its_line(self, tmp_path, capsys, cell):
        path = tmp_path / "odd.csv"
        path.write_text("t,support_radius\n" + "".join("%d,%s\n" % (i, cell if i == 3 else i + 1) for i in range(20)))
        assert main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: CSV %r line 5: %r is not a number\n" % (str(path), cell)

    def test_too_short_history_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t,support_radius\n0,1\n1,2\n2,3\n")
        assert main(["fit", str(path)]) == 2
        assert "usable" in capsys.readouterr().err

    def test_header_only_history_is_too_short(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("t,support_radius,norm_u_minus_1\n")
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "fit: skipped support_radius (power-law fit needs >= 8 usable samples, got 0)",
            "fit: skipped norm_u_minus_1 (exponential fit needs >= 8 usable samples, got 0)",
            "fit: no column could be fitted",
        ]

    def test_constant_column_alone_is_not_fitted(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("t,norm_w\n" + "".join("%d,0.25\n" % i for i in range(20)))
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "fit: skipped norm_w (exponential fit of a constant series)",
            "fit: no column could be fitted",
        ]
        assert not any("samples" in line for line in err)

    @pytest.mark.parametrize("column, bad", [("support_radius", "inf"), ("t", "nan")])
    def test_non_finite_value_is_config_error_naming_its_line(self, tmp_path, capsys, column, bad):
        rows = [[i, i + 1.0] for i in range(20)]
        rows[4][column == "support_radius"] = bad
        path = tmp_path / "bad.csv"
        path.write_text("t,support_radius\n" + "".join("%s,%s\n" % tuple(row) for row in rows))
        assert main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: CSV %r line 6: %s must be a finite number, got %r\n" % (
            str(path), column, bad)

    def test_repeated_column_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("t,t,support_radius\n" + "".join("%d,%d,%d\n" % (i, i, i + 1) for i in range(20)))
        assert main(["fit", str(path)]) == 1
        assert "config error: CSV %r repeats column 't'" % str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("t_min", ["nan", "inf", "-inf"])
    def test_non_finite_t_min_is_usage_error_before_the_csv_is_read(self, tmp_path, capsys, monkeypatch, t_min):
        monkeypatch.setattr(config_io, "read_csv_columns", lambda path: pytest.fail("the CSV was read"))
        # "--t-min=-inf": argparse reads a separate "-inf" as an option
        assert main(["fit", str(tmp_path / "history.csv"), "--t-min=" + t_min]) == 1
        assert "error: --t-min must be a finite number, got %s" % float(t_min) in capsys.readouterr().err

    def test_csv_with_no_column_to_fit_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "t_x.csv"
        path.write_text("t,x\n" + "".join("%d,%d\n" % (i, i) for i in range(20)))
        assert main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: CSV %s has no column to fit; fit reads 't' with 'support_radius' or 'norm_*'\n" % path

    def test_missing_time_column_is_usage_error(self, tmp_path):
        path = tmp_path / "no_t.csv"
        path.write_text("x,support_radius\n0,1\n")
        assert main(["fit", str(path)]) == 1


# --- sweep ------------------------------------------------------------------


SWEEP_CFG = TINY_CFG.replace("t_end = 0.05", "t_end = 0.02") + "\n[sweep]\nmodel.m = 2.0, 3.0\n"

# the manifest columns after final_sup_u: the front exponent, then the rates of the four deviation norms
FITTED = ["support_radius", "norm_u_minus_1", "norm_w", "norm_v_minus_target", "norm_z_minus_1"]


class TestSweepCommand:
    def test_cases_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "2 cases" in capsys.readouterr().out
        lines = (out / "manifest.csv").read_text().splitlines()
        assert lines[0] == "case,dir,model.m,final_t,steps,final_sup_u,%s,status" % ",".join(FITTED)
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[1] for r in rows] == ["case_0000", "case_0001"]
        assert [float(r[2]) for r in rows] == [2.0, 3.0]
        assert [r[-1] for r in rows] == ["ok", "ok"]
        for idx, row in enumerate(rows):
            case_cfg = config_io.parse_config_file(str(out / row[1] / "config.cfg"))
            assert case_cfg.model.m == float(row[2])
            assert case_cfg.sweep == {}
            assert case_cfg.seed == 3 + idx  # base seed plus case index
            assert (out / row[1] / "history.csv").exists()
            fits_header = (out / row[1] / "fits.csv").read_text().splitlines()[0]
            assert fits_header == "column,kind,exponent_or_rate,prefactor,r_squared,stderr,samples"

    def test_parallel_workers_give_same_manifest(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(parallel), "--workers", "2"]) == 0
        keep = lambda text: text.replace(str(serial), "X").replace(str(parallel), "X")
        assert keep((serial / "manifest.csv").read_text()) == keep((parallel / "manifest.csv").read_text())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_case_is_recorded_and_the_manifest_kept(self, tmp_path, capsys, workers):
        # mu = 1e15 parses, but its reaction limit drives the CFL dt below the floor at once
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("model.m = 2.0, 3.0", "model.mu = 1.0, 1e15, 2.0"))
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == 2
        assert "1 of 3 cases failed" in capsys.readouterr().err
        with open(out / "manifest.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["case", "dir", "model.mu", "final_t", "steps", "final_sup_u"] + FITTED + ["status"]
        assert [r[-1] for r in rows] == ["ok", rows[1][-1], "ok"]
        assert rows[1][-1].startswith("failed: SimulationError: CFL dt")
        assert rows[1][3:-1] == [""] * (3 + len(FITTED))
        assert not (out / rows[1][1] / "fits.csv").exists()
        for row in (rows[0], rows[2]):
            assert float(row[3]) == pytest.approx(0.02) and int(row[4]) > 0
            assert (out / row[1] / "history.csv").exists()

    def test_refused_sweep_value_is_config_error_before_any_case(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("model.m = 2.0, 3.0", "model.m = 2.0, 0.5"))
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "sweep.model.m value 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_snapshot_refuses_the_sweep_before_any_directory(self, tmp_path, capsys):
        # the initial state is built once, before the first case, so the sweep fails as a whole
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("u = bump 0.0 0.25 0.5", "u = snapshot missing.bin u"))
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        missing = str(tmp_path / "missing.bin")
        assert capsys.readouterr().err == "io error: [Errno 2] No such file or directory: %r\n" % missing
        assert not out.exists()

    def test_pool_never_gets_more_workers_than_cases(self, tmp_path, monkeypatch):
        # a pool starts all of its workers at the first submit; this fake starts none
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                assert mp_context.get_start_method() == "spawn"  # never forks the threaded parent

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "100000"]) == 0
        assert sizes == [2]
        assert [ln.rsplit(",", 1)[1] for ln in (out / "manifest.csv").read_text().splitlines()[1:]] == ["ok", "ok"]

    def test_spawned_workers_run_every_case_from_the_command_line(self, tmp_path):
        # a spawned worker imports the CLI module afresh and must not run __main__ again
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("model.m = 2.0, 3.0", "model.m = 2.0, 2.5, 3.0"))
        out = tmp_path / "sweep_out"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "chemofront", "sweep", "--config", str(cfg), "--out", str(out),
                               "--workers", "2"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert [ln.rsplit(",", 1)[1] for ln in (out / "manifest.csv").read_text().splitlines()[1:]] == ["ok"] * 3

    def test_sweepless_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "no [sweep]" in capsys.readouterr().err


# a bump on [-4, 4] that grows and climbs a constant-sensitivity signal: 128 cells to t = 3, a row every 20 steps
FRONT_CFG = """\
[model]
m = 2.0
delta = 1.0
mu = 1.0
r = 1.0
phi = constant 1.0

[grid]
dim = 1
cells = 128
extent = 8.0
origin = -4.0

[solver]
t_end = 3.0
output_stride = 20

[initial]
u = bump 0.0 0.25 0.5
v = constant 0.0
w = constant 1.0
z = constant 0.0

[output]
seed = 3

[sweep]
model.m = 2.0
"""

# the stderr line of a front fit that is skipped: its case directory, the fit's error and the wall rule's count
FRONT_SKIP = re.compile(r"(.+): fit: skipped support_radius \(power-law fit needs >= 8 usable samples, got \d+; "
                        r"(\d+) of (\d+) rows at the wall\)")


def front_sweep(tmp_path, capsys, *changes):
    """The manifest rows, as dicts, and the stderr lines of a sweep of FRONT_CFG with each (old, new) text swap."""
    text = FRONT_CFG
    for old, new in changes:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "front.cfg"
    cfg.write_text(text)
    out = tmp_path / "front_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok"] * len(rows)
    return out, rows, capsys.readouterr().err.splitlines()


SHORT_RUN = [("cells = 128", "cells = 64"), ("t_end = 3.0", "t_end = 1.0")]


class TestSweepFits:
    def test_every_front_exponent_lies_in_0_2(self, tmp_path, capsys):
        _, rows, _ = front_sweep(tmp_path, capsys, *SHORT_RUN, ("output_stride = 20", "output_stride = 2"),
                                 ("model.m = 2.0", "model.m = 2.0, 3.0"))
        assert [row["model.m"] for row in rows] == ["2", "3"]
        assert all(0.0 < float(row["support_radius"]) < 2.0 for row in rows)

    def test_default_setup_fits_and_writes_what_fit_writes(self, tmp_path, capsys):
        out, [row], err = front_sweep(tmp_path, capsys)
        assert float(row["support_radius"]) > 0.0
        case = out / row["dir"]
        # the front never fills the domain, so sup|u - 1/r| stays at 1: a constant series, skipped with an empty cell
        assert err == ["%s: fit: skipped norm_u_minus_1 (exponential fit of a constant series)" % case]
        assert row["norm_u_minus_1"] == ""
        assert main(["fit", str(case / "history.csv"), "--out", str(tmp_path / "fit")]) == 0
        written = (case / "fits.csv").read_text()
        assert written == (tmp_path / "fit" / "fits.csv").read_text()
        # each other manifest cell is the exponent_or_rate of its column's row in fits.csv
        assert {ln.split(",")[0]: ln.split(",")[2] for ln in written.splitlines()[1:]} == {
            name: row[name] for name in FITTED if name != "norm_u_minus_1"}

    def test_too_few_rows_leave_the_front_cell_empty_with_none_at_the_wall(self, tmp_path, capsys):
        out, [row], err = front_sweep(tmp_path, capsys, *SHORT_RUN, ("output_stride = 20", "output_stride = 50"))
        assert row["support_radius"] == ""
        [(case, dropped, total)] = [FRONT_SKIP.fullmatch(line).groups() for line in err if "support_radius" in line]
        assert case == str(out / row["dir"])
        assert int(dropped) == 0 and int(total) < 8

    def test_a_front_at_the_wall_leaves_its_cell_empty_naming_the_rows_there(self, tmp_path, capsys):
        narrow = [("cells = 128", "cells = 48"), ("extent = 8.0", "extent = 3.0"), ("origin = -4.0", "origin = -1.5")]
        out, [row], err = front_sweep(tmp_path, capsys, *narrow)
        assert row["support_radius"] == ""
        [(case, dropped, total)] = [FRONT_SKIP.fullmatch(line).groups() for line in err if "support_radius" in line]
        assert case == str(out / row["dir"])
        assert int(dropped) > 0
        # the rows the wall rule dropped would have made the fit: the wall is to blame, not the stride
        assert main(["fit", str(out / row["dir"] / "history.csv")]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("support_radius,power_law,")

    def test_every_relaxation_rate_is_positive(self, tmp_path, capsys):
        unit = [("cells = 128", "cells = 16"), ("extent = 8.0", "extent = 2.0"), ("origin = -4.0", "origin = -1.0"),
                ("t_end = 3.0", "t_end = 4.0")]
        _, [row], _ = front_sweep(tmp_path, capsys, *unit)
        assert all(float(row[name]) > 0.0 for name in FITTED[1:])


# --- lattice ----------------------------------------------------------------


class TestLatticeCommand:
    def test_ensemble_csv(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG)
        out = tmp_path / "lat_out"
        assert main(["lattice", "--config", str(cfg), "--out", str(out), "--seed", "40"]) == 0
        assert "2 seeds" in capsys.readouterr().out
        lines = (out / "ensemble.csv").read_text().splitlines()
        assert lines[0] == "seed,time,bin,center,density"
        assert len(lines) == 1 + 2 * (20 // 2)  # seeds times bins
        rows = [ln.split(",") for ln in lines[1:]]
        # member i is labelled --seed + i, and every member reaches the same time
        assert [int(r[0]) for r in rows] == [40] * 10 + [41] * 10
        assert len({r[1] for r in rows}) == 1 and float(rows[0][1]) == pytest.approx(0.05, rel=1e-12)
        assert [int(r[2]) for r in rows] == list(range(10)) * 2
        centres = [float(r[3]) for r in rows]
        assert centres[:10] == centres[10:] == pytest.approx([0.05 + 0.1 * b for b in range(10)], rel=1e-14)
        # each member holds all 150 particles: its 10 bins of 2 sites sum to 150 / 50 / 2
        for member in (rows[:10], rows[10:]):
            densities = [float(r[4]) for r in member]
            assert min(densities) >= 0.0
            assert sum(densities) == pytest.approx(1.5, rel=1e-12)

    def test_lattice_stats_record_the_leaps_and_the_capacity_use(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG)
        for out in ("a", "b"):
            assert main(["lattice", "--config", str(cfg), "--out", str(tmp_path / out), "--seed", "40"]) == 0
        summary = capsys.readouterr().out
        stats_file = tmp_path / "a" / "lattice_stats.json"
        # no entry is timed, so the same seed writes the same bytes
        assert stats_file.read_bytes() == (tmp_path / "b" / "lattice_stats.json").read_bytes()
        stats = json.loads(stats_file.read_text())
        assert list(stats) == ["leaps", "t_reached", "dt", "seeds", "capacity_site_time"]
        run = lattice.run_ensemble(config_io.parse_config(LATTICE_CFG).lattice, 2.0, 40)
        assert stats["leaps"] == run.dts.size > 10
        assert stats["t_reached"] == run.t == pytest.approx(0.05, rel=1e-12)
        assert stats["dt"] == {"min": run.dts.min(), "median": float(np.median(run.dts)), "max": run.dts.max()}
        assert stats["seeds"] == [40, 41]
        assert stats["capacity_site_time"] == run.site_time.tolist()
        # the summary line prints the members' summed site-time above u_max
        assert "2 seeds, 20 sites, site-time above u_max %g, ensemble.csv in " % run.site_time.sum() in summary
        # 150 particles fill at most 2 sites above u_max = 50 at once
        assert all(0.0 < time <= 2 * stats["t_reached"] for time in stats["capacity_site_time"])

    def test_walk_whose_rates_all_underflow_reaches_t_end(self, tmp_path, capsys):
        # a 40-site walk at m = 400, as on lattice_ensemble.cfg's model: q = (100 / 1000)^399 underflows to 0
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG.replace("m = 2.0", "m = 400").split("[lattice]")[0] + (
            "[lattice]\nsites = 40\nu_max = 1000\nparticles = 100\nt_end = 0.5\nseeds = 2\n"
            "cells_per_bin = 5\nextent = 2.0\norigin = -1.0\n"))
        out = tmp_path / "out"
        assert main(["lattice", "--config", str(cfg), "--out", str(out), "--seed", "101"]) == 0
        stats = json.loads((out / "lattice_stats.json").read_text())
        assert (stats["leaps"], stats["t_reached"]) == (1, 0.5)
        # one leap that moves nothing: every member keeps its 100 particles on the centre site, in bin 4 of 8
        rows = [ln.split(",") for ln in (out / "ensemble.csv").read_text().splitlines()[1:]]
        assert {r[1] for r in rows} == {"0.5"}
        assert [float(r[4]) for r in rows] == [0.1 / 5 if r[2] == "4" else 0.0 for r in rows]

    def test_run_that_compares_nothing_removes_an_earlier_comparison(self, tmp_path):
        cfg = tmp_path / "lat.cfg"
        out = tmp_path / "out"
        cfg.write_text(LATTICE_CFG + "compare_pde = on\n")
        assert main(["lattice", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "compare.csv").exists()
        cfg.write_text(LATTICE_CFG)
        assert main(["lattice", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["ensemble.csv", "lattice_stats.json"]

    def test_compare_writes_distance_table(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG + "compare_pde = on\n")
        out = tmp_path / "lat_cmp"
        assert main(["lattice", "--config", str(cfg), "--out", str(out)]) == 0
        assert "L1 distance" in capsys.readouterr().out
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "bin,center,lattice_mean,continuum,abs_diff"
        assert len(lines) == 1 + 10
        # the comparison uses the ensemble's bin centres, byte for byte
        ensemble = (out / "ensemble.csv").read_text().splitlines()[1:11]
        assert [ln.split(",")[1] for ln in lines[1:]] == [ln.split(",")[3] for ln in ensemble]

    def test_impossible_tolerance_fails_with_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG)
        out = tmp_path / "lat_tol"
        code = main(["lattice", "--config", str(cfg), "--out", str(out), "--tol-l1", "1e-12"])
        assert code == 3
        assert "exceeds tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_that_cannot_work_is_usage_error_before_any_leap(self, tmp_path, capsys, monkeypatch, tol):
        monkeypatch.setattr(lattice, "run_ensemble", lambda *args: pytest.fail("the ensemble ran"))
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG)
        out = tmp_path / "lat_bad_tol"
        assert main(["lattice", "--config", str(cfg), "--out", str(out), "--tol-l1", tol]) == 1
        assert "error: --tol-l1 must be a finite number >= 0, got %s" % float(tol) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, extra, source", [
        (["--seed", "-1"], "", "--seed"),
        ([], "\n[output]\nseed = -5\n", "[output] seed of %s"),
    ])
    def test_negative_seed_is_usage_error_before_the_output_directory(self, tmp_path, capsys, argv, extra, source):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG + extra)
        out = tmp_path / "lat_neg_seed"
        assert main(["lattice", "--config", str(cfg), "--out", str(out)] + argv) == 1
        seed = -1 if argv else -5
        message = "error: the lattice seed must be >= 0, got %d from %s" % (seed, source.replace("%s", str(cfg)))
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_t_end_is_numeric_failure(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG.replace("t_end = 0.05\nseeds", "t_end = 1e300\nseeds"))
        t0 = time.perf_counter()
        code = main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "lat_far")])
        assert code == 2
        assert time.perf_counter() - t0 < 10.0
        assert "below the floor 1e+288" in capsys.readouterr().err

    def test_state_the_config_cannot_build_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG.replace("u_max = 50", "u_max = 30"))  # 150 > 4 * 30
        out = tmp_path / "lat_cap"
        assert main(["lattice", "--config", str(cfg), "--out", str(out)]) == 1
        assert "overflow cap 120" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kernel", ["volume_filling", "quorum_pushing"])
    def test_continuum_comparison_needs_the_pushing_kernel(self, tmp_path, capsys, kernel):
        # the kernel option is retired: any value but pushing is a config error before any output
        cfg = tmp_path / "lat.cfg"
        out = tmp_path / "lat_kernel"
        removed = "line 22: option lattice.kernel was removed; chemofront always runs kernel = pushing, got '%s'" % kernel
        for extra, argv in (("", ["--tol-l1", "0.05"]), ("compare_pde = on\n", []), ("", [])):
            cfg.write_text(LATTICE_CFG + "kernel = %s\n" % kernel + extra)
            assert main(["lattice", "--config", str(cfg), "--out", str(out)] + argv) == 1
            assert removed in capsys.readouterr().err
            assert not out.exists()

    def test_run_dir_config_with_the_kernel_line_verifies_and_reruns_alike(self, tmp_path):
        # a run directory's config.cfg written while the kernel, alpha and beta options existed carries
        # kernel = pushing, alpha = 1.0 and beta = 0.0
        cfg = tmp_path / "both.cfg"
        cfg.write_text(TINY_CFG + LATTICE_CFG[LATTICE_CFG.index("[lattice]") - 1:] + "compare_pde = on\n")
        current, old = tmp_path / "current", tmp_path / "old"
        assert main(["run", "--config", str(cfg), "--out", str(current)]) == 0
        shutil.copytree(current, old)
        text = (old / "config.cfg").read_text()
        assert "kernel" not in text and "beta" not in text and "alpha" not in text and text.count("seeds = 2\n") == 1
        (old / "config.cfg").write_text(text.replace("seeds = 2\n", "alpha = 1.0\nbeta = 0.0\nkernel = pushing\nseeds = 2\n"))
        for run_dir in (current, old):
            assert main(["verify", "--out", str(run_dir)]) == 0
            assert main(["lattice", "--config", str(run_dir / "config.cfg"), "--out", str(run_dir / "lat")]) == 0
        assert (old / "verify_report.csv").read_bytes() == (current / "verify_report.csv").read_bytes()
        for name in ("ensemble.csv", "compare.csv"):
            assert (old / "lat" / name).read_bytes() == (current / "lat" / name).read_bytes()

    @pytest.mark.parametrize("command", ["run", "lattice"])
    def test_drift_coefficient_is_config_error_naming_its_line(self, tmp_path, capsys, command):
        # [lattice] beta is retired at 0: every lattice run has a flat signal, over which beta acts on nothing
        text = LATTICE_CFG + "beta = 0.5\n"
        cfg = tmp_path / "drift.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        line_no = len(text.splitlines())
        message = "line %d: option lattice.beta was removed; chemofront always runs beta = 0.0, got '0.5'" % line_no
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sites, cells_per_bin, message", [
        (20, 0, "lattice cells_per_bin must be >= 1, got 0"),
        (200, -5, "lattice cells_per_bin must be >= 1, got -5"),  # 200 % -5 == 0
        (6, 2, "lattice needs at least 4 bins, got 3 = sites // cells_per_bin"),
    ])
    @pytest.mark.parametrize("command", ["run", "lattice"])
    def test_bins_the_coarse_grid_cannot_hold_are_config_errors(
            self, tmp_path, capsys, command, sites, cells_per_bin, message):
        # refused when the record is built, so run (which never uses the section) refuses them too
        cfg = tmp_path / "bins.cfg"
        cfg.write_text(LATTICE_CFG.replace("sites = 20\n", "sites = %d\n" % sites).replace(
            "cells_per_bin = 2\n", "cells_per_bin = %d\n" % cells_per_bin))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error: " + message in capsys.readouterr().err
        assert not out.exists()

    def test_latticeless_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["lattice", "--config", str(cfg)]) == 1
        assert "no [lattice]" in capsys.readouterr().err


# --- argument handling ------------------------------------------------------


# every exception class main() reports, with the prefix of its one-line message and its exit code
FAILURE_ROWS = [
    (cli._UsageError, "error", 1),
    (ConfigError, "config error", 1),
    (SnapshotError, "snapshot error", 1),
    (OSError, "io error", 1),
    (solver.SimulationError, "numerical failure", 2),
    (ConstructionError, "numerical failure", 2),
    (ValueError, "numerical failure", 2),
    (ArithmeticError, "numerical failure", 2),
    (MemoryError, "out of memory", 2),
]
CASE_FAILURE_ROWS = [row for row in FAILURE_ROWS if row[0] is not cli._UsageError]


def raising(exc_type):
    def fail(*args, **kwargs):
        raise exc_type("boom")
    return fail


class TestFailureTable:
    def test_the_rows_are_every_reported_class(self):
        assert [cls for classes, _, _ in cli._FAILURES for cls in classes] == [row[0] for row in FAILURE_ROWS]

    @pytest.mark.parametrize("exc_type, prefix, code", FAILURE_ROWS, ids=lambda v: getattr(v, "__name__", None))
    def test_run_reports_each_row_on_one_line(self, tmp_path, capsys, monkeypatch, exc_type, prefix, code):
        monkeypatch.setattr(config_io, "build_initial_state", raising(exc_type))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == "%s: boom\n" % prefix

    @pytest.mark.parametrize("exc_type, prefix, code", CASE_FAILURE_ROWS, ids=lambda v: getattr(v, "__name__", None))
    def test_sweep_records_each_case_row_and_runs_the_other_cases(self, tmp_path, capsys, monkeypatch, exc_type,
                                                                  prefix, code):
        execute = cli._execute_run

        def fail_case_1(case):
            if case.out_dir.endswith("case_0001"):
                raise exc_type("boom")
            return execute(case)

        monkeypatch.setattr(cli, "_execute_run", fail_case_1)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("model.m = 2.0, 3.0", "model.m = 2.0, 3.0, 4.0"))
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "1 of 3 cases failed" in capsys.readouterr().err
        with open(out / "manifest.csv", newline="") as fh:
            _, *rows = list(csv.reader(fh))
        assert [r[-1] for r in rows] == ["ok", "failed: %s: boom" % exc_type.__name__, "ok"]
        assert rows[1][3:-1] == [""] * (3 + len(FITTED))

    def test_an_unlisted_exception_escapes_with_its_traceback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(config_io, "build_initial_state", raising(KeyError))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        with pytest.raises(KeyError, match="boom"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command, cfg_text", [("run", TINY_CFG), ("lattice", LATTICE_CFG)], ids=["run", "lattice"])
    def test_an_array_too_large_for_memory_is_one_line_and_exit_2(self, tmp_path, capsys, monkeypatch, command,
                                                                   cfg_text):
        # what numpy raises for cells = 10**12 in [grid] or sites = 10**12 in [lattice], without the allocation
        monkeypatch.setattr(Grid, "axis_centers", raising(MemoryError))
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(cfg_text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "out of memory: boom\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["run"],  # missing --config
            ["verify"],  # missing --out
            ["sweep"],  # missing --config
            ["lattice"],  # missing --config
        ],
    )
    def test_bad_invocations_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "lattice"])
    def test_config_commands_parse_the_same_config_out_and_seed(self, command):
        args = cli._build_parser().parse_args([command, "--config", "c", "--out", "o", "--seed", "3"])
        assert (args.config, args.out, args.seed) == ("c", "o", 3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "run.cfg", "--threshold-support", "1e-6"],
            ["verify", "--out", "out", "--threshold-support", "1e-6"],
            ["verify", "--out", "out", "--tol-sandwich", "1e-6"],
            ["verify", "--out", "out", "--tol-mass", "1e-6"],
            ["sweep", "--config", "sweep.cfg", "--threshold-support", "1e-6"],
        ],
    )
    def test_removed_flags_exit_1(self, argv, capsys):
        # the files need not exist: the parser refuses the flag first
        assert main(argv) == 1
        assert "error: unrecognized arguments: %s 1e-6" % argv[3] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("solver", "cfl_safety = 0.1", "option solver.cfl_safety was removed"),
            ("lattice", "leap_fraction = 0.25", "option lattice.leap_fraction was removed"),
            ("solver", "dt_max = 0.01", "unknown key 'dt_max' in section [solver]"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "lattice"])
    def test_retired_step_size_keys_exit_1_naming_their_line(self, tmp_path, capsys, command, section, line, message):
        text = LATTICE_CFG.replace("[%s]\n" % section, "[%s]\n%s\n" % (section, line))
        cfg = tmp_path / "old.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "line %d: %s" % (text.splitlines().index(line) + 1, message) in capsys.readouterr().err
        assert not out.exists()

    def test_console_entry_point(self):
        # the child finds the package where this interpreter found it, installed or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "chemofront", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        for name in ("run", "verify", "sweep", "fit", "lattice"):
            assert name in proc.stdout
