"""Exercises the five subcommands through main(), checking artifacts and exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from chemofront import config_io
from chemofront.cli import main


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


def damage_snapshot(path, damage):
    """Rewrite a snapshot file with one NaN in u's payload ("nan") or an extent the grid refuses ("extent")."""
    parts = path.read_bytes().split(b"\n", 6)
    if damage == "nan":
        parts[6] = parts[6][:40] + np.array([np.nan], "<f8").tobytes() + parts[6][48:]
    else:
        parts[3] = b"-2"
    path.write_bytes(b"\n".join(parts))


SNAPSHOT_DAMAGE = {
    "nan": "bad snapshot payload in '%s': u field contains non-finite entries",
    "extent": "bad snapshot header in '%s' (extent must be positive and finite, got -2.0)",
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
        history = config_io.read_history_csv(str(out / "history.csv"))
        snaps = sorted(p for p in os.listdir(out) if p.startswith("snap_"))
        times = [config_io.read_snapshot(str(out / p), origin=(-1.0,)).t for p in snaps]
        hist_t = np.asarray(history.rows)[:, 0]
        assert len(times) == len(hist_t)
        assert np.allclose(times, hist_t, rtol=0, atol=1e-12)
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
        assert 2 * stats["steps"] <= stats["stages"] <= 4 * stats["steps"]  # 2 to MAX_STAGES per step
        assert 0.0 < stats["dt"]["min"] <= stats["dt"]["median"] <= stats["dt"]["max"]
        assert stats["wall_s"] > 0.0
        assert stats["steps_per_s"] == pytest.approx(stats["steps"] / stats["wall_s"], rel=1e-12)
        assert stats["clipped_mass"] == 0.0

    def test_run_stats_of_a_zero_length_run(self, tmp_path):
        cfg = tmp_path / "still.cfg"
        cfg.write_text(TINY_CFG.replace("t_end = 0.05", "t_end = 0.0"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
        assert stats["steps"] == stats["stages"] == stats["steps_per_s"] == 0 and stats["dt"] is None
        assert set(stats["bound_by"].values()) == {0}

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

    def test_broken_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nm = fast\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err


# --- verify -----------------------------------------------------------------


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

    def test_corrupted_snapshot_fails_with_exit_3(self, cli_run_dir, tmp_path, capsys):
        src = cli_run_dir["out"]
        dst = tmp_path / "broken"
        shutil.copytree(src, dst)
        snaps = sorted(p for p in os.listdir(dst) if p.startswith("snap_"))
        victim = str(dst / snaps[len(snaps) // 2])
        state = config_io.read_snapshot(victim, origin=(-1.0,))
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
        dst = tmp_path / "damaged"
        shutil.copytree(cli_run_dir["out"], dst)
        victim = sorted(dst.glob("snap_*.bin"))[2]
        damage_snapshot(victim, damage)
        assert main(["verify", "--out", str(dst)]) == 1
        assert "snapshot error: " + SNAPSHOT_DAMAGE[damage] % victim in capsys.readouterr().err

    def test_non_run_directory_is_usage_error(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 1


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

    def test_too_short_history_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t,support_radius\n0,1\n1,2\n2,3\n")
        assert main(["fit", str(path)]) == 2
        assert "usable" in capsys.readouterr().err

    def test_repeated_column_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("t,t,support_radius\n" + "".join("%d,%d,%d\n" % (i, i, i + 1) for i in range(20)))
        assert main(["fit", str(path)]) == 1
        assert "config error: CSV %r repeats column 't'" % str(path) in capsys.readouterr().err

    def test_missing_time_column_is_usage_error(self, tmp_path):
        path = tmp_path / "no_t.csv"
        path.write_text("x,support_radius\n0,1\n")
        assert main(["fit", str(path)]) == 1


# --- sweep ------------------------------------------------------------------


SWEEP_CFG = TINY_CFG.replace("t_end = 0.05", "t_end = 0.02") + "\n[sweep]\nmodel.m = 2.0, 3.0\n"


class TestSweepCommand:
    def test_cases_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "2 cases" in capsys.readouterr().out
        lines = (out / "manifest.csv").read_text().splitlines()
        assert lines[0] == "case,dir,model.m,final_t,steps,final_sup_u,status"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[1] for r in rows] == ["case_0000", "case_0001"]
        assert [float(r[2]) for r in rows] == [2.0, 3.0]
        assert [r[6] for r in rows] == ["ok", "ok"]
        for idx, row in enumerate(rows):
            case_cfg = config_io.parse_config_file(str(out / row[1] / "config.cfg"))
            assert case_cfg.model.m == float(row[2])
            assert case_cfg.sweep == {}
            assert case_cfg.seed == 3 + idx  # base seed plus case index
            assert (out / row[1] / "history.csv").exists()

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
        assert header == ["case", "dir", "model.mu", "final_t", "steps", "final_sup_u", "status"]
        assert [r[6] for r in rows] == ["ok", rows[1][6], "ok"]
        assert rows[1][6].startswith("failed: SimulationError: CFL dt")
        assert rows[1][3:6] == ["", "", ""]
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

    def test_sweepless_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "no [sweep]" in capsys.readouterr().err


# --- lattice ----------------------------------------------------------------


class TestLatticeCommand:
    def test_ensemble_csv(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG)
        out = tmp_path / "lat_out"
        assert main(["lattice", "--config", str(cfg), "--out", str(out)]) == 0
        assert "2 seeds" in capsys.readouterr().out
        lines = (out / "ensemble.csv").read_text().splitlines()
        assert lines[0] == "seed,time,bin,center,density"
        assert len(lines) == 1 + 2 * (20 // 2)  # seeds times bins
        # every recorded density is a multiple of one particle per bin
        for ln in lines[1:]:
            val = float(ln.split(",")[4])
            assert val >= 0.0

    def test_compare_writes_distance_table(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG + "compare_pde = on\n")
        out = tmp_path / "lat_cmp"
        assert main(["lattice", "--config", str(cfg), "--out", str(out)]) == 0
        assert "L1 distance" in capsys.readouterr().out
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "bin,center,lattice_mean,continuum,abs_diff"
        assert len(lines) == 1 + 10

    def test_impossible_tolerance_fails_with_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(LATTICE_CFG)
        out = tmp_path / "lat_tol"
        code = main(["lattice", "--config", str(cfg), "--out", str(out), "--tol-l1", "1e-12"])
        assert code == 3
        assert "exceeds tolerance" in capsys.readouterr().err

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
        # a run directory's config.cfg written while the kernel option existed carries kernel = pushing
        cfg = tmp_path / "both.cfg"
        cfg.write_text(TINY_CFG + LATTICE_CFG[LATTICE_CFG.index("[lattice]") - 1:] + "compare_pde = on\n")
        current, old = tmp_path / "current", tmp_path / "old"
        assert main(["run", "--config", str(cfg), "--out", str(current)]) == 0
        shutil.copytree(current, old)
        text = (old / "config.cfg").read_text()
        assert "kernel" not in text
        (old / "config.cfg").write_text(text.replace("beta = 0.0\n", "beta = 0.0\nkernel = pushing\n"))
        for run_dir in (current, old):
            assert main(["verify", "--out", str(run_dir)]) == 0
            assert main(["lattice", "--config", str(run_dir / "config.cfg"), "--out", str(run_dir / "lat")]) == 0
        assert (old / "verify_report.csv").read_bytes() == (current / "verify_report.csv").read_bytes()
        for name in ("ensemble.csv", "compare.csv"):
            assert (old / "lat" / name).read_bytes() == (current / "lat" / name).read_bytes()

    def test_latticeless_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["lattice", "--config", str(cfg)]) == 1
        assert "no [lattice]" in capsys.readouterr().err


# --- argument handling ------------------------------------------------------


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["run"],  # missing --config
            ["verify"],  # missing --out
        ],
    )
    def test_bad_invocations_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chemofront", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for name in ("run", "verify", "sweep", "fit", "lattice"):
            assert name in proc.stdout
