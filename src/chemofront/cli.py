"""Command line driver.

Subcommands: run (integrate a config and write a run directory), verify
(run _CHECKS, the mass audit and the envelope sandwich, over a finished
run's snapshots read one file at a time), sweep (cartesian parameter grid
over worker processes; each case is a run directory plus fit's fits.csv,
and the manifest carries each case's front exponent and relaxation rates),
fit (power law and exponential fits on a history CSV), lattice (stochastic
ensemble, optionally compared against the matching continuum run).

Exit codes: 0 success, 1 bad usage or config, 2 numerical failure or out of
memory (each a one-line message, see _FAILURES), 3 a requested check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import itertools
import json
import math
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


class _UsageError(Exception):
    pass


# what main() reports as a failed command: (exception classes, message prefix, exit code), matched
# in order; any other exception is a bug and escapes with its traceback
_FAILURES = (
    ((_UsageError,), "error", EXIT_USAGE),
    ((ConfigError,), "config error", EXIT_USAGE),
    ((SnapshotError,), "snapshot error", EXIT_USAGE),
    ((OSError,), "io error", EXIT_USAGE),
    ((SimulationError, ConstructionError, ValueError, ArithmeticError), "numerical failure", EXIT_NUMERIC),
    ((MemoryError,), "out of memory", EXIT_NUMERIC),
)

# what a sweep records as a failed case: every reported class but the usage error, which is the command's
_CASE_FAILURES = tuple(cls for classes, _, _ in _FAILURES for cls in classes if cls is not _UsageError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chemofront", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # the options _config applies, shared by every command that reads a config
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True, help="config file path")
    configured.add_argument("--out", help="output directory (default: [output] dir)")
    configured.add_argument("--seed", type=int, help="override [output] seed")

    p_run = sub.add_parser("run", parents=[configured], help="integrate a config into a run directory")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check a finished run directory")
    p_verify.add_argument("--out", required=True, help="run directory to verify")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", parents=[configured], help="run a cartesian parameter sweep")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit front and relaxation laws to a history CSV")
    p_fit.add_argument("csv", help="history CSV path")
    p_fit.add_argument("--t-min", type=float, help="drop samples before this time")
    p_fit.add_argument("--out", help="also write fits.csv into this directory")
    p_fit.set_defaults(func=cmd_fit)

    p_lat = sub.add_parser("lattice", parents=[configured], help="run a stochastic lattice ensemble")
    p_lat.add_argument(
        "--tol-l1",
        type=float,
        help="fail (exit 3) if the mean density is farther than this from the continuum run",
    )
    p_lat.set_defaults(func=cmd_lattice)

    return parser


# --- run --------------------------------------------------------------------


def _dt_stats(dts: np.ndarray):
    """min, median and max of the step sizes, or None for a run of no steps."""
    dts = np.sort(dts)  # np.median would import numpy.ma, 1.4 MB of resident memory
    n = dts.size
    if n == 0:
        return None
    return {"min": float(dts[0]), "median": float(0.5 * (dts[(n - 1) // 2] + dts[n // 2])), "max": float(dts[-1])}


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def _write_table(path: str, rows) -> None:
    """Write rows, the header first, as the CSV file at path."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(config_io.table_text(rows))


def _run_stats(result: solver.RunResult, wall_s: float) -> dict:
    """The run_stats.json record: why the run took the steps it did, and what they cost."""
    return {
        "steps": result.steps,
        "stages": result.stages,
        "wall_s": wall_s,
        "steps_per_s": result.steps / wall_s,
        "dt": _dt_stats(result.dts),
        "bound_by": result.bound_by,
        "clipped_mass": result.total_clipped,
    }


def _remove_stale(out_dir: str, *patterns) -> None:
    """Delete the files of out_dir that match patterns: an earlier command's output that this one may not rewrite."""
    for pattern in patterns:
        for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.remove(path)


def _execute_run(cfg: RunConfig):
    """Integrate cfg and write config.cfg, history.csv, snapshots and run_stats.json to cfg.out_dir.

    A run directory holds one run: an earlier run's snapshots, verify report
    and fits go first, so that verify and fit never read them with this one's.
    Returns the run's result, whose center is the run's one centre.
    """
    initial = config_io.build_initial_state(cfg)
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.cfg"), "w", encoding="ascii") as fh:
        fh.write(config_io.serialize_config(cfg))
    _remove_stale(out_dir, "snap_*.bin", "verify_report.csv", "fits.csv")

    with open(os.path.join(out_dir, "history.csv"), "w", encoding="ascii") as history:
        history.write(config_io.table_text([diagnostics.HISTORY_COLUMNS]))
        emitted = [0]

        def emit(s: StateQuad, row) -> None:
            # each row is on disk once it is emitted, so a run that fails keeps the rows it wrote
            history.write(config_io.table_text([row]))
            history.flush()
            config_io.write_snapshot(os.path.join(out_dir, SNAPSHOT_PATTERN % emitted[0]), s)
            emitted[0] += 1

        t0 = time.perf_counter()
        result = solver.run(initial, cfg.model, cfg.solver, emit=emit)
        wall_s = time.perf_counter() - t0
    _write_json(os.path.join(out_dir, "run_stats.json"), _run_stats(result, wall_s))
    return result


def _config(args) -> RunConfig:
    """The config file of args, with --out and --seed, when given, over its [output] dir and seed."""
    cfg = config_io.parse_config_file(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_run(args) -> int:
    cfg = _config(args)
    result = _execute_run(cfg)
    rows = len(result.history["t"])  # run writes one snapshot per history row
    print("run: %d steps to t=%.6g, %d history rows, %d snapshots in %s"
          % (result.steps, result.final.t, rows, rows, cfg.out_dir))
    if result.total_clipped > 0.0:
        print("run: clipped negative mass %.3e" % result.total_clipped)
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def _run_dir_snapshots(run_dir: str):
    """The run's config, and a function that returns a fresh iterator over its snapshots: each snap_*.bin file read
    in name order, one at a time, so that a pass holds one snapshot at a time."""
    cfg_path = os.path.join(run_dir, "config.cfg")
    if not os.path.exists(cfg_path):
        raise _UsageError("%s has no config.cfg; is it a run directory?" % run_dir)
    cfg = config_io.parse_config_file(cfg_path)
    paths = sorted(glob.glob(os.path.join(glob.escape(run_dir), "snap_*.bin")))
    if not paths:
        raise _UsageError("%s holds no snapshots" % run_dir)
    return cfg, lambda: (config_io.read_snapshot(p, cfg.grid) for p in paths)


def _seed_ball_radius(u: Field, d2, level: float) -> float:
    """Largest radius whose full ball of cells stays at or above level.

    Orders cells outward from the run's centre, d2 holding their squared
    distances from it, ties by index; the ball ends at the first cell below
    level.  At least the nearest cell counts, so the radius is at least half
    a spacing.
    """
    d2 = d2.ravel()
    order = np.argsort(d2, kind="stable")
    inside = np.logical_and.accumulate(~(u.values.ravel()[order] < level))
    return max(np.sqrt(np.max(d2[order][inside], initial=0.0)), 0.5 * u.grid.h)


def _wall_distance(grid: Grid, x0) -> float:
    return float(min(min(x - lo, lo + size - x) for x, lo, size in zip(x0, grid.origin, grid.extent)))


def _mass_check(cfg: RunConfig, snapshots):
    """The v + w mass audit, in one pass: run writes every history row with its snapshot, so the snapshots carry
    the mass_vw column."""
    audit = diagnostics.conservation_audit([s.mass_vw() for s in snapshots()])
    ok = audit.drift <= diagnostics.MASS_TOL
    print("verify: mass drift %.3e (%s, tol %.1e): %s"
          % (audit.drift, "relative" if audit.relative else "absolute", diagnostics.MASS_TOL, "ok" if ok else "FAIL"))
    return [("mass_drift", audit.drift), ("mass_relative", 1.0 if audit.relative else 0.0)], ok


def _envelope_check(cfg: RunConfig, snapshots):
    """The lower and upper envelopes, sized from the run's attractant bounds c1 and c2 (one pass) and from the first
    snapshot's u, and the sandwich of every snapshot between them (a second pass), all about that snapshot's peak."""
    grid, params = cfg.grid, cfg.model
    notes = []
    grads, laps = zip(*(solver.max_abs_derivatives(s.v) for s in snapshots()))
    # 10% headroom over the observed run, floored away from zero
    c1 = max(1.1 * max(grads), 1e-12)
    c2 = max(1.1 * max(laps), 1e-12)
    print("verify: attractant bounds c1=%.6g c2=%.6g (observed, +10%%)" % (c1, c2))

    u0 = next(snapshots()).u
    sup0 = float(np.max(u0.values))
    x0 = solver.peak_coordinate(u0)
    d2 = grid.center_distance2(x0)  # the run's one centre: the seed ball, r0 and the sandwich all read d2
    front_ok = 1.0 <= params.delta < params.m

    lower = upper = None
    if sup0 <= 0.0:
        notes += ["lower skipped: initial density is empty", "upper skipped: initial density is empty"]
    else:
        if not (front_ok and params.mu > 0.0):
            notes.append("lower skipped: needs growth (mu > 0) and 1 <= delta < m")
        else:
            seed_height = min(0.5, 0.5 * sup0)
            seed_radius = _seed_ball_radius(u0, d2, seed_height)
            lower = profiles.select_lower_profile(params.m, grid.dim, params.mu, params.delta, seed_radius,
                                                  seed_height, grid.diameter(), c1, c2)
            print("verify: lower profile amplitude=%.6g spread=%.6g rate=%.6g seed_r=%.4g"
                  % (lower.amplitude, lower.spread_exp, lower.rate_exp, seed_radius))

        r0, wall = diagnostics.support_radius(u0, d2), _wall_distance(grid, x0)
        if not front_ok:
            notes.append("upper skipped: needs 1 <= delta < m")
        elif not (0.0 < r0 < wall):
            notes.append("upper skipped: initial support (r0=%.4g) leaves no margin to the boundary (%.4g)"
                         % (r0, wall))
        else:
            upper = profiles.select_upper_profile(params.m, params.mu, params.delta, r0, 0.5 * (r0 + wall), sup0,
                                                  c1, c2)
            print("verify: upper profile amplitude=%.6g shift=%.6g valid for t<=%.6g"
                  % (upper.amplitude, upper.time_shift, upper.valid_until))

    envelopes = [env for env in (lower, upper) if env is not None]
    report = diagnostics.sandwich_check(snapshots(), envelopes, d2)
    print("verify: sandwich lower viol %.3e (%d snaps), upper viol %.3e (%d snaps), %d violations: %s"
          % (report.max_lower_violation, report.checked_lower, report.max_upper_violation, report.checked_upper,
             report.violation_count, "ok" if report.clean else "FAIL"))
    for note in notes:
        print("verify: note: %s" % note)

    skipped = (float("nan"),) * 3
    rows = [("c1", c1), ("c2", c2)]
    rows += zip(("lower_amplitude", "lower_spread", "lower_rate"),
                (lower.amplitude, lower.spread_exp, lower.rate_exp) if lower else skipped)
    rows += zip(("upper_amplitude", "upper_shift", "upper_valid_until"),
                (upper.amplitude, upper.time_shift, upper.valid_until) if upper else skipped)
    rows += [("max_lower_violation", report.max_lower_violation), ("max_upper_violation", report.max_upper_violation),
             ("violation_count", float(report.violation_count)), ("checked_lower", float(report.checked_lower)),
             ("checked_upper", float(report.checked_upper))]
    return rows, report.clean


# verify's checks, in the order of their printed lines and report rows; each takes the run's config and its
# snapshot source, prints its lines as it goes and returns its verify_report.csv rows and its verdict
_CHECKS = (_mass_check, _envelope_check)


def cmd_verify(args) -> int:
    cfg, snapshots = _run_dir_snapshots(args.out)
    rows, ok = [("metric", "value")], True
    for check in _CHECKS:
        check_rows, check_ok = check(cfg, snapshots)  # every check runs, whatever the earlier ones found
        rows += check_rows
        ok = ok and check_ok
    _write_table(os.path.join(args.out, "verify_report.csv"), rows)
    return EXIT_OK if ok else EXIT_VIOLATION


# --- sweep ------------------------------------------------------------------


def _sweep_worker(cfg: RunConfig):
    """One case's manifest cells (final_t, steps, final_sup_u, then its fits, None where skipped), its status, and
    fit's skip lines.

    A failing case returns empty cells and the status "failed: <class>:
    <message>" instead of raising, so the other cases and the manifest
    survive it.  A fit that is skipped leaves its cell empty and does not
    fail the case.
    """
    try:
        result = _execute_run(cfg)
        # the front fit stops short of the wall, where the pinned radius would flatten it
        front_cap = 0.95 * (_wall_distance(cfg.grid, result.center) - cfg.grid.h)
        rows, values, skips = _fit_history(result.history, front_cap=front_cap)
        _write_table(os.path.join(cfg.out_dir, "fits.csv"), rows)
    except _CASE_FAILURES as exc:
        cells = [None] * (3 + len(_fitted(diagnostics.HISTORY_COLUMNS)))
        return cells, "failed: %s: %s" % (type(exc).__name__, exc), []
    cells = [result.final.t, result.steps, float(np.max(result.final.u.values))] + list(values.values())
    return cells, "ok", ["%s: %s" % (cfg.out_dir, line) for line in skips]


def cmd_sweep(args) -> int:
    cfg = _config(args)
    if not cfg.sweep:
        raise _UsageError("config %s has no [sweep] section" % args.config)
    base_out, base_seed = cfg.out_dir, cfg.seed
    # no case may vary the initial state, so one that cannot be built refuses the sweep before any directory
    config_io.build_initial_state(cfg)
    os.makedirs(base_out, exist_ok=True)

    keys = list(cfg.sweep.keys())
    combos = list(itertools.product(*cfg.sweep.values()))

    jobs = []
    for idx, combo in enumerate(combos):
        case = cfg
        for key, value in zip(keys, combo):
            case = case.with_value(key, value)
        jobs.append(dataclasses.replace(
            case, sweep={}, out_dir=os.path.join(base_out, "case_%04d" % idx), seed=base_seed + idx))

    # a process pool starts all of its workers at once, so it never gets more than there are cases
    workers = min(max(1, args.workers), len(jobs))
    if workers <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        # imported by their only user: they load ~30 stdlib modules that every other command would pay for
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # numpy's BLAS has started a thread by now, and forking a threaded process is unsafe
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_sweep_worker, jobs))

    rows = [["case", "dir"] + keys + ["final_t", "steps", "final_sup_u"] + list(_fitted(diagnostics.HISTORY_COLUMNS))
            + ["status"]]
    for idx, (combo, (cells, status, skips)) in enumerate(zip(combos, results)):
        for line in skips:
            print(line, file=sys.stderr)
        rows.append([idx, "case_%04d" % idx] + list(combo) + cells + [status])
    failed = sum(status != "ok" for _, status, _ in results)
    _write_table(os.path.join(base_out, "manifest.csv"), rows)
    print("sweep: %d cases under %s (manifest.csv written)" % (len(combos), base_out))
    if failed:
        print("sweep: %d of %d cases failed; see the status column of manifest.csv" % (failed, len(combos)),
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# --- fit --------------------------------------------------------------------


def _fitted(names) -> dict:
    """The fitted columns among names, each with its diagnostics.fit kind: the front radius grows as a power law,
    the norms relax exponentially."""
    return {
        name: "power_law" if name == "support_radius" else "exponential"
        for name in names
        if name == "support_radius" or name.startswith("norm_")
    }


def _fit_history(cols: dict, t_min=None, front_cap=None):
    """fits.csv's rows, header first, for the fitted columns of cols against cols["t"], each fitted column's
    exponent or rate (None when skipped), and fit's stderr line for each skipped column.

    With front_cap, the front fit drops the rows whose support radius is at
    or beyond it, and its skip line says how many rows that dropped.
    """
    header = ("column",) + tuple(field.name for field in dataclasses.fields(diagnostics.Fit))
    rows, values, skips = [header], {}, []
    t = cols["t"]
    for name, kind in _fitted(cols).items():
        keep, at_wall = slice(None), ""
        if name == "support_radius" and front_cap is not None:
            keep = cols[name] < front_cap
            at_wall = "; %d of %d rows at the wall" % (t.size - np.count_nonzero(keep), t.size)
        try:
            fit = diagnostics.fit(kind, t[keep], cols[name][keep], t_min=t_min)
        except ValueError as exc:
            values[name] = None
            skips.append("fit: skipped %s (%s%s)" % (name, exc, at_wall))
            continue
        values[name] = fit.exponent_or_rate
        rows.append((name,) + dataclasses.astuple(fit))
    return rows, values, skips


def cmd_fit(args) -> int:
    # t >= nan is false for every sample, so a non-finite t_min would blame the data for a bad flag
    if args.t_min is not None and not math.isfinite(args.t_min):
        raise _UsageError("--t-min must be a finite number, got %r" % args.t_min)
    cols = config_io.read_csv_columns(args.csv)
    if "t" not in cols:
        raise _UsageError("CSV %s has no 't' column" % args.csv)
    rows, values, skips = _fit_history(cols, args.t_min)
    if not values:
        raise _UsageError("CSV %s has no column to fit; fit reads 't' with 'support_radius' or 'norm_*'" % args.csv)
    for line in skips:
        print(line, file=sys.stderr)
    sys.stdout.write(config_io.table_text(rows))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_table(os.path.join(args.out, "fits.csv"), rows)
    if all(value is None for value in values.values()):
        print("fit: no column could be fitted", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# --- lattice ----------------------------------------------------------------


def _lattice_stats(run: lattice_mod.EnsembleRun, base_seed: int) -> dict:
    """The lattice_stats.json record: how many leaps the ensemble took, how large, and its site-time above u_max."""
    return {
        "leaps": int(run.dts.size),
        "t_reached": run.t,
        "dt": _dt_stats(run.dts),
        "seeds": [base_seed + i for i in range(run.site_time.size)],
        "capacity_site_time": run.site_time.tolist(),
    }


def cmd_lattice(args) -> int:
    # nan would switch the check off (l1 > nan is false) and a negative tolerance would fail every run
    if args.tol_l1 is not None and not (0.0 <= args.tol_l1 < math.inf):
        raise _UsageError("--tol-l1 must be a finite number >= 0, got %r" % args.tol_l1)
    cfg = _config(args)
    if cfg.lattice is None:
        raise _UsageError("config %s has no [lattice] section" % args.config)
    lat = cfg.lattice
    m = cfg.model.m
    out_dir, base_seed = cfg.out_dir, cfg.seed
    if base_seed < 0:
        source = "--seed" if args.seed is not None else "[output] seed of %s" % args.config
        raise _UsageError("the lattice seed must be >= 0, got %d from %s" % (base_seed, source))
    centers = lat.bins().axis_centers(0)  # both CSVs write these centres
    os.makedirs(out_dir, exist_ok=True)
    _remove_stale(out_dir, "compare.csv")  # so a run that compares nothing leaves no earlier comparison behind
    run = lattice_mod.run_ensemble(lat, m, base_seed)
    rows = [("seed", "time", "bin", "center", "density")]
    for i, density in enumerate(run.density):
        rows += [(base_seed + i, run.t, b, x, val) for b, (x, val) in enumerate(zip(centers, density))]
    _write_table(os.path.join(out_dir, "ensemble.csv"), rows)
    _write_json(os.path.join(out_dir, "lattice_stats.json"), _lattice_stats(run, base_seed))
    mean = run.density.mean(axis=0)
    print(
        "lattice: %d seeds, %d sites, site-time above u_max %g, ensemble.csv in %s"
        % (lat.seeds, lat.sites, run.site_time.sum(), out_dir)
    )

    if not lat.compare_pde and args.tol_l1 is None:
        return EXIT_OK

    twin = lattice_mod.continuum_twin(lat, m)
    diff = np.abs(mean - twin.values)
    l1 = float(np.sum(diff)) * twin.grid.cell_volume
    _write_table(
        os.path.join(out_dir, "compare.csv"),
        [("bin", "center", "lattice_mean", "continuum", "abs_diff")]
        + [(b, x, mean[b], twin.values[b], diff[b]) for b, x in enumerate(centers)],
    )
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
    except (_UsageError,) + _CASE_FAILURES as exc:
        prefix, code = next((prefix, code) for classes, prefix, code in _FAILURES if isinstance(exc, classes))
        print("%s: %s" % (prefix, exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
