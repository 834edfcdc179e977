"""Command line driver.

Subcommands: run (integrate a config and write a run directory), verify
(check a finished run against the analytic envelopes and the conservation
audit), sweep (cartesian parameter grid over worker processes), fit (power
law and exponential fits on a history CSV), lattice (stochastic ensemble,
optionally compared against the matching continuum run).

Exit codes: 0 success, 1 bad usage or config, 2 numerical failure,
3 a requested acceptance check failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import json
import os
import sys
import time

import numpy as np

from . import config_io, diagnostics, lattice as lattice_mod, profiles, solver
from .config_io import ConfigError, RunConfig, SnapshotError
from .model import Field, Grid, StateQuad
from .profiles import ConstructionError
from .solver import SimulationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VIOLATION = 3

SNAPSHOT_PATTERN = "snap_%08d.bin"

# verify fails when the v + w mass drift of diagnostics.conservation_audit exceeds MASS_TOL
# or u crosses an envelope by more than SANDWICH_TOL
MASS_TOL = 1e-10
SANDWICH_TOL = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chemofront", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a config into a run directory")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", help="output directory (default: [output] dir)")
    p_run.add_argument("--seed", type=int, help="override [output] seed")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check a finished run directory")
    p_verify.add_argument("--out", required=True, help="run directory to verify")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", help="base output directory")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit front and relaxation laws to a history CSV")
    p_fit.add_argument("csv", help="history CSV path")
    p_fit.add_argument("--t-min", type=float, help="drop samples before this time")
    p_fit.add_argument("--out", help="also write fits.csv into this directory")
    p_fit.set_defaults(func=cmd_fit)

    p_lat = sub.add_parser("lattice", help="run a stochastic lattice ensemble")
    p_lat.add_argument("--config", required=True)
    p_lat.add_argument("--out")
    p_lat.add_argument("--seed", type=int)
    p_lat.add_argument(
        "--tol-l1",
        type=float,
        help="fail (exit 3) if the mean density is farther than this from the continuum run",
    )
    p_lat.set_defaults(func=cmd_lattice)

    return parser


# --- run --------------------------------------------------------------------


def _run_stats(result: solver.RunResult, wall_s: float) -> dict:
    """The run_stats.json record: why the run took the steps it did, and what they cost."""
    dts = np.sort(result.dts)  # np.median would import numpy.ma, 1.4 MB of resident memory
    n = dts.size
    return {
        "steps": result.steps,
        "stages": result.stages,
        "wall_s": wall_s,
        "steps_per_s": result.steps / wall_s,
        "dt": None if n == 0 else {
            "min": float(dts[0]), "median": float(0.5 * (dts[(n - 1) // 2] + dts[n // 2])), "max": float(dts[-1])},
        "bound_by": result.bound_by,
        "clipped_mass": result.total_clipped,
    }


def _execute_run(cfg: RunConfig, base_dir: str, out_dir: str):
    """Integrate cfg and write config.cfg, history.csv, snapshots and run_stats.json to out_dir."""
    state = config_io.build_initial_state(cfg, base_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.cfg"), "w", encoding="ascii") as fh:
        fh.write(config_io.serialize_config(cfg))

    writer = config_io.HistoryCsvWriter(os.path.join(out_dir, "history.csv"))
    emitted = [0]

    def snap_sink(s: StateQuad) -> None:
        config_io.write_snapshot(os.path.join(out_dir, SNAPSHOT_PATTERN % emitted[0]), s)
        emitted[0] += 1

    t0 = time.perf_counter()
    try:
        result = solver.run(state, cfg.model, cfg.solver, history_sink=writer, snapshot_sink=snap_sink)
    finally:
        writer.close()
    wall_s = time.perf_counter() - t0
    with open(os.path.join(out_dir, "run_stats.json"), "w", encoding="ascii") as fh:
        json.dump(_run_stats(result, wall_s), fh, indent=1)
        fh.write("\n")
    return result, emitted[0]


def cmd_run(args) -> int:
    cfg = config_io.parse_config_file(args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result, n_snaps = _execute_run(cfg, base_dir, cfg.out_dir)
    print(
        "run: %d steps to t=%.6g, %d history rows, %d snapshots in %s"
        % (result.steps, result.final.t, len(result.history), n_snaps, cfg.out_dir)
    )
    if result.total_clipped > 0.0:
        print("run: clipped negative mass %.3e" % result.total_clipped)
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def _load_run_dir(run_dir: str):
    cfg_path = os.path.join(run_dir, "config.cfg")
    if not os.path.exists(cfg_path):
        raise _UsageError("%s has no config.cfg; is it a run directory?" % run_dir)
    cfg = config_io.parse_config_file(cfg_path)
    paths = sorted(glob.glob(os.path.join(run_dir, "snap_*.bin")))
    if not paths:
        raise _UsageError("%s holds no snapshots" % run_dir)
    states = [config_io.read_snapshot(p, origin=cfg.grid.origin) for p in paths]
    for state, path in zip(states, paths):
        if state.grid != cfg.grid:
            raise ConfigError("snapshot %s grid does not match config.cfg" % path)
    history = config_io.read_history_csv(os.path.join(run_dir, "history.csv"))
    return cfg, states, history


def _seed_ball_radius(u: Field, x0, level: float) -> float:
    """Largest radius whose full ball of cells stays at or above level.

    Walks cells outward from x0; stops at the first cell below level.  At
    least the cell containing x0 counts, so the radius is at least half a
    spacing.
    """
    grid = u.grid
    d2 = grid.center_distance2(x0).ravel()
    vals = u.values.ravel()
    order = np.argsort(d2, kind="stable")
    best = 0.0
    for idx in order:
        if vals[idx] < level:
            break
        best = float(d2[idx])
    return max(np.sqrt(best), 0.5 * grid.h)


def _wall_distance(grid: Grid, x0) -> float:
    best = np.inf
    for a in range(grid.dim):
        lo = grid.origin[a]
        hi = grid.origin[a] + grid.extent[a]
        best = min(best, x0[a] - lo, hi - x0[a])
    return float(best)


def cmd_verify(args) -> int:
    run_dir = args.out
    cfg, states, history = _load_run_dir(run_dir)
    grid = cfg.grid
    notes = []

    audit = diagnostics.conservation_audit(history)
    mass_ok = audit.drift <= MASS_TOL
    print(
        "verify: mass drift %.3e (%s, tol %.1e): %s"
        % (audit.drift, "relative" if audit.relative else "absolute", MASS_TOL, "ok" if mass_ok else "FAIL")
    )

    c1 = max(solver.max_abs_gradient(s.v) for s in states)
    c2 = max(solver.max_abs_laplacian(s.v) for s in states)
    # 10% headroom over the observed run, floored away from zero
    c1 = max(1.1 * c1, 1e-12)
    c2 = max(1.1 * c2, 1e-12)
    print("verify: attractant bounds c1=%.6g c2=%.6g (observed, +10%%)" % (c1, c2))

    u0 = states[0].u
    sup0 = float(np.max(u0.values))
    x0 = solver.peak_coordinate(u0)
    params = cfg.model
    front_ok = 1.0 <= params.delta < params.m

    lower = None
    if sup0 <= 0.0:
        notes.append("lower skipped: initial density is empty")
    elif not (front_ok and params.mu > 0.0):
        notes.append("lower skipped: needs growth (mu > 0) and 1 <= delta < m")
    else:
        seed_height = min(0.5, 0.5 * sup0)
        seed_radius = _seed_ball_radius(u0, x0, seed_height)
        lower = profiles.select_lower_profile(
            params.m,
            grid.dim,
            params.mu,
            params.delta,
            seed_radius,
            seed_height,
            grid.diameter(),
            c1,
            c2,
            x0,
        )
        print(
            "verify: lower profile amplitude=%.6g spread=%.6g rate=%.6g seed_r=%.4g"
            % (lower.amplitude, lower.spread_exp, lower.rate_exp, seed_radius)
        )

    upper = None
    t0 = None
    if sup0 <= 0.0:
        notes.append("upper skipped: initial density is empty")
    elif not front_ok:
        notes.append("upper skipped: needs 1 <= delta < m")
    else:
        r0 = diagnostics.support_radius(u0, x0)
        wall = _wall_distance(grid, x0)
        if not (0.0 < r0 < wall):
            notes.append(
                "upper skipped: initial support (r0=%.4g) leaves no margin to the boundary (%.4g)"
                % (r0, wall)
            )
        else:
            r1 = 0.5 * (r0 + wall)
            upper, t0 = profiles.select_upper_profile(
                params.m, params.mu, params.delta, r0, r1, sup0, c1, c2, x0
            )
            print(
                "verify: upper profile amplitude=%.6g shift=%.6g valid for t<=%.6g"
                % (upper.amplitude, upper.time_shift, t0)
            )

    report = diagnostics.sandwich_check(
        states, lower=lower, upper=upper, upper_valid_until=t0, tol=SANDWICH_TOL
    )
    sandwich_ok = report.clean
    print(
        "verify: sandwich lower viol %.3e (%d snaps), upper viol %.3e (%d snaps), %d locations: %s"
        % (
            report.max_lower_violation,
            report.checked_lower,
            report.max_upper_violation,
            report.checked_upper,
            len(report.violation_locations),
            "ok" if sandwich_ok else "FAIL",
        )
    )
    for note in notes:
        print("verify: note: %s" % note)

    rows = [
        ("mass_drift", audit.drift),
        ("mass_relative", 1.0 if audit.relative else 0.0),
        ("c1", c1),
        ("c2", c2),
        ("lower_amplitude", lower.amplitude if lower else float("nan")),
        ("lower_spread", lower.spread_exp if lower else float("nan")),
        ("lower_rate", lower.rate_exp if lower else float("nan")),
        ("upper_amplitude", upper.amplitude if upper else float("nan")),
        ("upper_shift", upper.time_shift if upper else float("nan")),
        ("upper_valid_until", t0 if t0 is not None else float("nan")),
        ("max_lower_violation", report.max_lower_violation),
        ("max_upper_violation", report.max_upper_violation),
        ("violation_count", float(len(report.violation_locations))),
        ("checked_lower", float(report.checked_lower)),
        ("checked_upper", float(report.checked_upper)),
    ]
    with open(os.path.join(run_dir, "verify_report.csv"), "w", encoding="ascii") as fh:
        fh.write("metric,value\n")
        for name, value in rows:
            fh.write("%s,%.17g\n" % (name, value))

    return EXIT_OK if (mass_ok and sandwich_ok) else EXIT_VIOLATION


# --- sweep ------------------------------------------------------------------


def _apply_override(cfg: RunConfig, key: str, value: float) -> RunConfig:
    section, param = key.split(".", 1)
    if section == "model":
        return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, **{param: value}))
    return dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, **{param: value}))


# what main() reports as a failed command; any other exception is a bug and aborts the sweep
_CASE_FAILURES = (
    ConfigError, SnapshotError, OSError, SimulationError, ConstructionError, ValueError, ArithmeticError
)


def _sweep_worker(job):
    """(final_t, steps, final_sup_u) of one case, or the message its run failed with.

    A failing case returns its error instead of raising, so the other cases
    and the manifest survive it.
    """
    text, base_dir, out_dir = job
    try:
        cfg = config_io.parse_config(text, base_dir)
        result, _ = _execute_run(cfg, base_dir, out_dir)
    except _CASE_FAILURES as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return result.final.t, result.steps, float(np.max(result.final.u.values))


def cmd_sweep(args) -> int:
    cfg = config_io.parse_config_file(args.config)
    if not cfg.sweep:
        raise _UsageError("config %s has no [sweep] section" % args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    base_out = args.out if args.out is not None else cfg.out_dir
    base_seed = args.seed if args.seed is not None else cfg.seed
    os.makedirs(base_out, exist_ok=True)

    keys = list(cfg.sweep.keys())
    grids = [cfg.sweep[k] for k in keys]
    combos = [()]
    for values in grids:
        combos = [prev + (v,) for prev in combos for v in values]

    jobs = []
    for idx, combo in enumerate(combos):
        case = cfg
        for key, value in zip(keys, combo):
            case = _apply_override(case, key, value)
        case = dataclasses.replace(case, sweep={}, out_dir=".", seed=base_seed + idx)
        sub = os.path.join(base_out, "case_%04d" % idx)
        jobs.append((config_io.serialize_config(case), base_dir, sub))

    workers = max(1, args.workers)
    if workers == 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        # imported by its only user: it loads ~30 stdlib modules that every other command would pay for
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))

    failed = 0
    with open(os.path.join(base_out, "manifest.csv"), "w", encoding="ascii", newline="") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(["case", "dir"] + keys + ["final_t", "steps", "final_sup_u", "status"])
        for idx, (combo, result) in enumerate(zip(combos, results)):
            if isinstance(result, str):
                failed += 1
                numbers, status = ["", "", ""], "failed: " + result
            else:
                final_t, steps, sup_u = result
                numbers, status = ["%.17g" % final_t, "%d" % steps, "%.17g" % sup_u], "ok"
            rows.writerow(
                [idx, "case_%04d" % idx] + ["%.17g" % v for v in combo] + numbers + [status]
            )
    print("sweep: %d cases under %s (manifest.csv written)" % (len(combos), base_out))
    if failed:
        print("sweep: %d of %d cases failed; see the status column of manifest.csv" % (failed, len(combos)),
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# --- fit --------------------------------------------------------------------


def cmd_fit(args) -> int:
    cols = config_io.read_csv_columns(args.csv)
    if "t" not in cols:
        raise _UsageError("CSV %s has no 't' column" % args.csv)
    t = cols["t"]
    lines = ["column,kind,exponent_or_rate,prefactor,r_squared,stderr,samples"]
    fitted = 0
    for name, values in cols.items():
        if name == "support_radius":
            kind = "power_law"
        elif name.startswith("norm_"):
            kind = "exponential"
        else:
            continue
        try:
            if kind == "power_law":
                fit = diagnostics.fit_power_law(t, values, t_min=args.t_min)
                payload = (fit.exponent, fit.prefactor, fit.r_squared, fit.stderr, fit.samples)
            else:
                fit = diagnostics.fit_exponential(t, values, t_min=args.t_min)
                payload = (fit.rate, fit.prefactor, fit.r_squared, fit.stderr, fit.samples)
        except ValueError as exc:
            print("fit: skipped %s (%s)" % (name, exc), file=sys.stderr)
            continue
        fitted += 1
        lines.append(
            "%s,%s,%.17g,%.17g,%.17g,%.17g,%d" % ((name, kind) + payload)
        )
    for line in lines:
        print(line)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "fits.csv"), "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    if fitted == 0:
        print("fit: no column had enough usable samples", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# --- lattice ----------------------------------------------------------------


def cmd_lattice(args) -> int:
    cfg = config_io.parse_config_file(args.config)
    if cfg.lattice is None:
        raise _UsageError("config %s has no [lattice] section" % args.config)
    lat = cfg.lattice
    m = cfg.model.m
    out_dir = args.out if args.out is not None else cfg.out_dir
    base_seed = args.seed if args.seed is not None else cfg.seed
    os.makedirs(out_dir, exist_ok=True)
    members = lattice_mod.run_ensemble(lat, m, base_seed)
    with open(os.path.join(out_dir, "ensemble.csv"), "w", encoding="ascii") as fh:
        fh.write("seed,time,bin,center,density\n")
        for mem in members:
            centers = mem.density.grid.axis_centers(0)
            for b, (x, val) in enumerate(zip(centers, mem.density.values)):
                fh.write("%d,%.17g,%d,%.17g,%.17g\n" % (mem.seed, mem.t, b, x, val))
    mean = np.mean([mem.density.values for mem in members], axis=0)
    print(
        "lattice: %d seeds, %d sites, %d capacity flags, ensemble.csv in %s"
        % (lat.seeds, lat.sites, sum(mem.capacity_violations for mem in members), out_dir)
    )

    if not lat.compare_pde and args.tol_l1 is None:
        return EXIT_OK

    twin = lattice_mod.continuum_twin(lat, m)
    diff = np.abs(mean - twin.values)
    l1 = float(np.sum(diff)) * twin.grid.cell_volume
    with open(os.path.join(out_dir, "compare.csv"), "w", encoding="ascii") as fh:
        fh.write("bin,center,lattice_mean,continuum,abs_diff\n")
        for b, x in enumerate(twin.grid.axis_centers(0)):
            fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (b, x, mean[b], twin.values[b], diff[b]))
    print("lattice: L1 distance to continuum run %.6g (compare.csv written)" % l1)
    if args.tol_l1 is not None and l1 > args.tol_l1:
        print("lattice: L1 %.6g exceeds tolerance %.6g" % (l1, args.tol_l1), file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# --- entry ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SnapshotError as exc:
        print("snapshot error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (SimulationError, ConstructionError, ValueError, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
