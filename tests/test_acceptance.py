"""Acceptance gate: ten desk-scale checks, one test (one pass/fail line) each.

Each test states its tolerance inline and prints the measured numbers, so a
failure line carries enough to diagnose.  Shared fixtures: `standard_run`
(bump run, 10^4 steps) backs the conservation and boundedness checks, and
`cli_run_dir` (reference config through the `run` subcommand) backs the
envelope, front-rate and determinism checks.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chemofront import diagnostics
from chemofront.cli import main as cli_main
from chemofront.config_io import (
    parse_config,
    read_csv_columns,
    read_snapshot,
    serialize_config,
    write_snapshot,
)
from chemofront.model import ConstantSensitivity, Field, Grid, ModelParams, StateQuad
from chemofront.profiles import barenblatt, barenblatt_support_radius, classify_blowup
from chemofront.solver import SolverConfig, cfl_dt, run

from conftest import RUN_CFG, STANDARD_MODEL, make_standard_initial


def _read_report(run_dir):
    lines = (run_dir / "verify_report.csv").read_text().splitlines()
    return {name: float(value) for name, value in (ln.split(",") for ln in lines[1:])}


@pytest.fixture(scope="module")
def long_run():
    """Coarse bump run to T=14, far into the relaxation regime."""
    initial = make_standard_initial(cells=64)
    config = SolverConfig(t_end=14.0, output_stride=1000)
    t0 = time.perf_counter()
    result = run(initial, STANDARD_MODEL, config)
    return {"result": result, "seconds": time.perf_counter() - t0}


def test_criterion_01_steady_state_is_a_fixed_point():
    """(u,v,w,z) = (1,c,0,1) with r=1 must not move: residual < 1e-12 per field."""
    grid = Grid((256,), (2.0,), (-1.0,))
    initial = StateQuad(
        Field.full(grid, 1.0),
        Field.full(grid, 0.7),
        Field.full(grid, 0.0),
        Field.full(grid, 1.0),
        t=0.0,
    )
    # every step takes the CFL dt of the steady state, so 1000 of them end at 1000 dt0
    dt0, _ = cfl_dt(grid, initial.u.values, [np.diff(initial.v.values)], STANDARD_MODEL)
    t0 = time.perf_counter()
    result = run(initial, STANDARD_MODEL, SolverConfig(t_end=1000 * dt0, output_stride=10**9))
    seconds = time.perf_counter() - t0
    assert result.steps == 1000
    residuals = {
        name: float(np.max(np.abs(getattr(result.final, name).values - getattr(initial, name).values)))
        for name in ("u", "v", "w", "z")
    }
    print("steady-state residuals after 1000 steps: %r (%.2fs)" % (residuals, seconds))
    for name, res in residuals.items():
        assert res < 1e-12, "field %s drifted by %.3e" % (name, res)
    assert seconds < 1.0


def test_criterion_02_attractant_plus_matrix_mass_conserved(standard_run):
    """Sum of (v+w) cell masses drifts at most 1e-10 relative over 10^4 steps."""
    assert standard_run["result"].steps == 10_000
    audit = diagnostics.conservation_audit(standard_run["result"].history["mass_vw"])
    print(
        "mass drift %.3e (%s) over %d steps in %.1fs"
        % (audit.drift, "relative" if audit.relative else "absolute",
           standard_run["result"].steps, standard_run["seconds"])
    )
    assert audit.relative
    assert audit.drift <= 1e-10
    assert standard_run["seconds"] < 10.0


def test_criterion_03_nonnegativity_and_boundedness(standard_run):
    """All fields stay >= 0, clipping is negligible, sup u respects the comparison cap."""
    result = standard_run["result"]
    minima = standard_run["field_minima"]
    sup_u_run = float(result.history["sup_u"].max())
    sup_u0 = float(standard_run["initial"].u.values.max())
    mass_u0 = standard_run["initial"].u.mass()
    cap = max(sup_u0, 1.0) + 0.05
    print(
        "minima %r, clipped %.3e of mass %.3e, sup_u %.6g vs cap %.6g"
        % (minima, result.total_clipped, mass_u0, sup_u_run, cap)
    )
    for name, lowest in minima.items():
        assert lowest >= 0.0, "field %s dipped to %.3e" % (name, lowest)
    assert result.total_clipped <= 1e-8 * mass_u0
    assert sup_u_run <= cap


def _barenblatt_cell_means(grid, t):
    """Exact cell averages of the m = 2, n = 1 Barenblatt profile a (1 - x^2/R^2)_+."""
    a = barenblatt(0.0, t, 2.0, 1)
    r = barenblatt_support_radius(t, 2.0, 1)
    edges = grid.origin[0] + grid.h * np.arange(grid.cells[0] + 1)
    edges = np.clip(edges, -r, r)
    return np.diff(a * (edges - edges**3 / (3.0 * r * r))) / grid.h


def test_criterion_04_self_similar_refinement_order():
    """Least-squares L1 order vs the spreading reference on 32/64/128/256 cells lies in [1.75, 2.25].

    Pure porous-medium spreading (m = 2, mu = 0, phi = 0) from Barenblatt time
    1 to 2.  The flux-form update is second order here: the diffusive flux is
    a centred difference of u^m, and the second-order RKL2 super-step adds
    O(dt^2), no more than O(h^2), because the CFL step scales with h^2.
    Initial data and the exact solution are both exact cell averages,
    matching the solver's unknowns.  The kink at the
    front makes single halving ratios depend on where the front falls in its
    cell, so the order is the slope of log e against log h over all four
    grids; it measures about 1.9.  Errors must also shrink at every halving.
    """
    params = ModelParams(m=2.0, mu=0.0, phi=ConstantSensitivity(0.0))
    cells_list = (32, 64, 128, 256)
    spacings = []
    errors = []
    t0 = time.perf_counter()
    for cells in cells_list:
        grid = Grid((cells,), (12.0,), (-6.0,))
        state = StateQuad(
            Field(grid, _barenblatt_cell_means(grid, 1.0)),
            Field.full(grid, 0.0),
            Field.full(grid, 0.0),
            Field.full(grid, 0.0),
            t=1.0,
        )
        result = run(state, params, SolverConfig(t_end=1.0, output_stride=10**9))
        exact = _barenblatt_cell_means(grid, 2.0)
        spacings.append(grid.h)
        errors.append(float(np.abs(result.final.u.values - exact).sum()) * grid.h)
    seconds = time.perf_counter() - t0
    order = float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])
    shown = ["%.6e" % e for e in errors]
    print("cells %s, L1 errors %s, fitted order %.4f (%.1fs)" % (cells_list, shown, order, seconds))
    assert seconds < 60.0
    assert all(a > b for a, b in zip(errors, errors[1:])), shown
    assert 1.75 <= order <= 2.25, (
        "fitted L1 order %.4f outside [1.75, 2.25] on cells %s (L1 errors %s)"
        % (order, cells_list, shown)
    )


def test_criterion_05_sandwich_envelopes_hold(cli_run_dir):
    """verify on the reference run: both envelopes constructed, zero violations at 1e-8."""
    t0 = time.perf_counter()
    code = cli_main(["verify", "--out", str(cli_run_dir["out"])])
    verify_seconds = time.perf_counter() - t0
    assert code == 0
    report = _read_report(cli_run_dir["out"])
    print(
        "run %.1fs + verify %.1fs, lower viol %.3e over %d snaps, upper viol %.3e over %d snaps"
        % (cli_run_dir["seconds"], verify_seconds,
           report["max_lower_violation"], report["checked_lower"],
           report["max_upper_violation"], report["checked_upper"])
    )
    assert report["checked_lower"] > 0, "lower envelope was skipped"
    assert report["checked_upper"] > 0, "upper envelope was skipped"
    assert report["max_lower_violation"] <= 1e-8
    assert report["max_upper_violation"] <= 1e-8
    assert report["violation_count"] == 0.0
    assert cli_run_dir["seconds"] + verify_seconds < 30.0


def test_criterion_06_front_rate_bounds(cli_run_dir):
    """Fitted support-radius exponent sits in (0, 0.5 + 2 stderr] and above half the floor rate."""
    assert cli_main(["verify", "--out", str(cli_run_dir["out"])]) == 0
    report = _read_report(cli_run_dir["out"])
    beta_lower = report["lower_spread"]
    history = read_csv_columns(str(cli_run_dir["out"] / "history.csv"))
    fit = diagnostics.fit("power_law", history["t"], history["support_radius"])
    print(
        "support exponent %.5f +- %.5f (r^2 %.5f), floor beta/2 = %.5f"
        % (fit.exponent_or_rate, fit.stderr, fit.r_squared, beta_lower / 2.0)
    )
    assert 0.0 < fit.exponent_or_rate <= 0.5 + 2.0 * fit.stderr
    assert fit.exponent_or_rate >= beta_lower / 2.0


def test_criterion_07_late_exponential_relaxation(long_run):
    """All four deviation norms decay exponentially (r^2 >= 0.95) once u is within 1e-3 of 1."""
    result = long_run["result"]
    t = result.history["t"]
    norm_u = result.history["norm_u_minus_1"]
    assert norm_u[-1] < 1e-3, "run too short: final |u-1| = %.3e" % norm_u[-1]
    cut = t[int(math.floor(0.4 * len(t)))] - 1e-12  # keep the final 60% of samples
    fits = {}
    for name in ("norm_u_minus_1", "norm_w", "norm_v_minus_target", "norm_z_minus_1"):
        fits[name] = diagnostics.fit("exponential", t, result.history[name], t_min=cut)
    print(
        "rates %s in %.1fs"
        % ({k: "%.3f (r2 %.5f)" % (f.exponent_or_rate, f.r_squared) for k, f in fits.items()},
           long_run["seconds"])
    )
    for name, fit in fits.items():
        assert fit.exponent_or_rate > 0.0, "%s does not decay (rate %.3e)" % (name, fit.exponent_or_rate)
        assert fit.r_squared >= 0.95, "%s poorly exponential (r^2 %.4f)" % (name, fit.r_squared)
    assert long_run["seconds"] < 120.0


def test_criterion_08_ode_dichotomy_vs_brute_force():
    """Closed-form blow-up classifier vs direct integration on 100 random draws."""

    def brute(C, c, m, g0, t_hint):
        def rhs(tt, y):
            return [C * math.exp(-c * tt) * min(y[0], 1e13) ** m]

        def hit(tt, y):
            return y[0] - 1e12

        hit.terminal = True
        hit.direction = 1
        sol = solve_ivp(rhs, [0.0, t_hint], [g0], events=hit, method="DOP853", rtol=1e-10, atol=1e-12)
        if sol.t_events[0].size:
            return True, float(sol.t_events[0][0])
        if sol.status == -1 and sol.y[0, -1] > 10.0 * g0:
            # step-size underflow while growing: the integrator hit the singularity
            return True, float(sol.t[-1])
        return False, None

    rng = np.random.default_rng(1723)
    t_start = time.perf_counter()
    skipped = 0
    worst_rel = 0.0
    for _ in range(100):
        C = rng.uniform(0.2, 3.0)
        c = rng.uniform(0.2, 3.0)
        m = rng.uniform(1.5, 4.0)
        g0 = rng.uniform(0.1, 3.0)
        threshold = (m - 1.0) * g0 ** (m - 1.0)
        if abs(c / C - threshold) <= 0.01 * threshold:
            skipped += 1  # inside the 1% margin band around the dichotomy
            continue
        verdict = classify_blowup(C, c, m, g0)
        blows = verdict.outcome == "blows_up"
        hint = 1.01 * verdict.time if blows else 10.0 / c
        brute_blows, brute_time = brute(C, c, m, g0, hint)
        assert blows == brute_blows, (
            "classifier says %s, integration says %s at (C=%g, c=%g, m=%g, g0=%g)"
            % (verdict.outcome, brute_blows, C, c, m, g0)
        )
        if blows:
            rel = abs(brute_time - verdict.time) / verdict.time
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.01, (
                "blow-up time off by %.2e rel at (C=%g, c=%g, m=%g, g0=%g)" % (rel, C, c, m, g0)
            )
    seconds = time.perf_counter() - t_start
    print("100 draws, %d margin skips, worst time error %.2e rel, %.2fs" % (skipped, worst_rel, seconds))
    assert seconds < 5.0


LATTICE_LIMIT_CFG = """\
[model]
m = 2.0

[grid]
dim = 1
cells = 40
extent = 2.0
origin = -1.0

[solver]
t_end = 0.1

[initial]
u = constant 0.0

[output]
seed = 101

[lattice]
sites = 200
u_max = 25000
particles = 100000
t_end = 0.5
seeds = 10
cells_per_bin = 5
extent = 2.0
origin = -1.0
compare_pde = on
"""


def test_criterion_09_lattice_matches_continuum(tmp_path):
    """Mean coarse density of 10 pushing-kernel walks lands within L1 0.05 of the continuum run."""
    cfg = tmp_path / "lat.cfg"
    cfg.write_text(LATTICE_LIMIT_CFG)
    out = tmp_path / "lat_out"
    t0 = time.perf_counter()
    code = cli_main(
        ["lattice", "--config", str(cfg), "--out", str(out), "--tol-l1", "0.05"]
    )
    seconds = time.perf_counter() - t0
    assert code == 0
    compare = read_csv_columns(str(out / "compare.csv"))
    l1 = float(np.sum(compare["abs_diff"])) * (2.0 / 40)
    print("ensemble-to-continuum L1 %.5f (tol 0.05) in %.1fs" % (l1, seconds))
    assert l1 <= 0.05
    assert seconds < 120.0


def test_criterion_10_determinism_and_round_trips(tmp_path):
    """Same seed, same bytes; snapshots and configs survive a write/read cycle exactly."""
    # seeded lattice ensembles are bytewise repeatable
    cfg = tmp_path / "lat.cfg"
    cfg.write_text(
        LATTICE_LIMIT_CFG.replace("particles = 100000", "particles = 2000")
        .replace("u_max = 25000", "u_max = 500")
        .replace("seeds = 10", "seeds = 2")
        .replace("compare_pde = on", "compare_pde = off")
    )
    for out in ("a", "b"):
        assert cli_main(["lattice", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a" / "ensemble.csv").read_bytes() == (tmp_path / "b" / "ensemble.csv").read_bytes()

    # the integrator itself is deterministic: rerunning the reference config
    # reproduces history and every snapshot bit for bit
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG.replace("cells = 128", "cells = 32").replace("t_end = 1.0", "t_end = 0.1"))
    for out in ("r1", "r2"):
        assert cli_main(["run", "--config", str(run_cfg), "--out", str(tmp_path / out)]) == 0
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "r2").iterdir())
    assert "config.cfg" in names  # it records the run's inputs, not its directory, so the copies agree byte for byte
    for name in names:
        if name == "run_stats.json":
            # each copy times its own run; the step, stage, dt and binding records agree
            a, b = (json.loads((tmp_path / out / name).read_text()) for out in ("r1", "r2"))
            assert a.pop("wall_s") > 0.0 and b.pop("wall_s") > 0.0
            assert a.pop("steps_per_s") > 0.0 and b.pop("steps_per_s") > 0.0
            assert a == b
            continue
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes(), name

    # snapshot round trip: read back equals the original, rewrite is byte-identical
    snap_names = [n for n in names if n.startswith("snap_")]
    src = tmp_path / "r1" / snap_names[-1]
    state = read_snapshot(str(src), parse_config(run_cfg.read_text()).grid)
    write_snapshot(str(tmp_path / "copy.bin"), state)
    assert (tmp_path / "copy.bin").read_bytes() == src.read_bytes()

    # config round trip: parse -> serialize -> parse is the identity
    parsed = parse_config(RUN_CFG)
    assert parse_config(serialize_config(parsed)) == parsed
    print("lattice ensembles, run artifacts, snapshots and configs all reproduce exactly")
