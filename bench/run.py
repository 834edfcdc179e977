"""End-to-end benchmark of the chemofront CLI, with a traced per-layer run.

    python3 bench/run.py --workload ref_1d --seed 101 --seconds 40 --trace 0

Each workload is a fixed list of CLI commands (configs under bench/configs).
Every command runs in a fresh interpreter, one at a time, the way a user runs
the program.  A run repeats whole rounds of those commands while one more
round, as long as the last, still ends within --seconds.  It checks every
round's outputs (bench/checks.py) and prints medians over its rounds; the
last line of stdout is one JSON object.

--trace 0 reports the end-to-end metrics: wall_s (first command launched to
last command exited), setup_s (interpreter launch to the first step or leap,
from a probe command after each round that stops there) and peak_rss_mb
(largest resident set of any command in a round).  --trace 1 alternates an
untraced round with a round whose commands run under bench/traced_cli.py and
reports the per-layer metrics from the spans.  --workload all runs every
workload in turn and prints one combined JSON line.

Must run from a checkout that holds src/chemofront; scratch output goes to
.bench_work/ and is removed at exit.
"""

from __future__ import annotations

import argparse
import configparser
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 101  # criterion 09's [output] seed
COMMAND_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # caps --seconds, so that a run ends within 180 s

WORKLOADS = {
    "ref_1d": "1D reference bump, run then verify: thousands of small steps, banded Helmholtz",
    "front_2d": "2D bump on 64 x 64 cells, run then verify: the sparse 2D Helmholtz solve",
    "lattice_ensemble": "criterion-09 walker ensemble and its continuum twin: rates and leaps",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Command:
    """Result of one child process: exit code, launch/exit times, peak RSS."""

    def __init__(self, argv: list[str], cwd: str, log: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log = log
        with open(log, "wb") as out:
            self.launched = _clock()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
            # a command that hangs is killed, so the run still ends in time
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.exited = _clock()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB

    def output(self) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as fh:
            return fh.read()


def _cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "chemofront"] + args


def _hooked(mode: list[str], args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py")] + mode + ["--"] + args


class Workload:
    """Commands, set-up probe and output checks of one workload."""

    def __init__(self, name: str, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.config = os.path.join(BENCH_DIR, "configs", name + ".cfg")
        self.lattice = name == "lattice_ensemble"
        if self.lattice:
            ini = configparser.ConfigParser()
            ini.read(self.config)
            lat = ini["lattice"]
            self.lat = {k: float(lat[k]) for k in ("extent", "origin")}
            self.lat.update({k: int(lat[k]) for k in ("sites", "u_max", "particles", "seeds", "cells_per_bin")})
            self.lat["m"] = float(ini["model"]["m"])
            self.lat["alpha"] = float(lat.get("alpha", "1.0"))

    def commands(self, out: str) -> list[list[str]]:
        """CLI arguments of one round, writing into out."""
        seed = ["--seed", str(self.seed)]
        if self.lattice:
            return [["lattice", "--config", self.config, "--out", out, "--tol-l1", "0.05"] + seed]
        return [["run", "--config", self.config, "--out", out] + seed, ["verify", "--out", out]]

    @property
    def ready_at(self) -> str:
        return "lattice.run_adaptive" if self.lattice else "solver.run"

    def check(self, out: str, done: list[Command]) -> list[tuple[str, str | None]]:
        """(operation, failure reason or None) for every operation of a round."""
        ops = []

        def attempt(name, fn):
            try:
                ops.append((name, fn()))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ops.append((name, "%s: %s" % (type(exc).__name__, exc)))

        def exit_ok(cmd):
            return None if cmd.code == 0 else "exit %d: %s" % (cmd.code, cmd.output()[-400:])

        if self.lattice:
            attempt("lattice", lambda: exit_ok(done[0]))
            ensemble = {}

            def load():
                with open(os.path.join(out, "ensemble.csv"), encoding="ascii") as fh:
                    ensemble.update(checks.read_ensemble(fh.read()))

            attempt("read_ensemble", load)
            members = range(self.seed, self.seed + self.lat["seeds"])
            for seed in members:
                attempt("particles", lambda: checks.check_particles(ensemble[seed][2], self.lat))

            def barenblatt():
                t, centers, _ = ensemble[self.seed]
                mean = np.mean([ensemble[s][2] for s in members], axis=0)
                return checks.check_barenblatt(mean, centers, t, self.lat)

            attempt("barenblatt", barenblatt)
            return ops

        attempt("run", lambda: exit_ok(done[0]))

        def verify():
            with open(os.path.join(out, "verify_report.csv"), encoding="ascii") as fh:
                return checks.check_verify_report(fh.read(), done[1].code)

        attempt("verify", verify)
        snaps = []

        def load():
            for path in sorted(glob.glob(os.path.join(out, "snap_*.bin"))):
                with open(path, "rb") as fh:
                    snaps.append(checks.parse_snapshot(fh.read()))
            return None if snaps else "no snapshots"

        attempt("read_snapshots", load)
        for name, fn in (("nonnegative", checks.check_nonnegative),
                         ("vw_mass", checks.check_vw_mass),
                         ("symmetry", checks.check_symmetry)):
            attempt(name, lambda: fn(snaps))
        return ops

    def round(self, tag: str, traced: bool) -> tuple[float, float, list, list[dict]]:
        """Run one round; returns (wall_s, peak_rss_mb, operations, span summaries)."""
        out = os.path.join(self.work, tag)
        shutil.rmtree(out, ignore_errors=True)
        done, spans = [], []
        for i, args in enumerate(self.commands(out)):
            if traced:
                spans.append(os.path.join(self.work, "%s.spans%d.json" % (tag, i)))
                argv = _hooked(["--spans", spans[-1]], args)
            else:
                argv = _cli(args)
            done.append(Command(argv, self.work, os.path.join(self.work, "%s.log%d" % (tag, i))))
        ops = self.check(out, done)
        shutil.rmtree(out, ignore_errors=True)
        wall = done[-1].exited - done[0].launched
        rss = max(c.peak_rss_mb for c in done)
        traces = []
        for path, args in zip(spans, self.commands(out)):
            if os.path.exists(path):
                traces.append(_summarize_spans(path, args[0]))
                os.remove(path)
        return wall, rss, ops, traces

    def setup_probe(self, tag: str) -> tuple[float | None, str | None]:
        """(seconds from launching the first command to its first step or leap,
        failure reason); the probe is one operation."""
        out = os.path.join(self.work, tag)
        cmd = Command(_hooked(["--ready-at", self.ready_at], self.commands(out)[0]),
                      self.work, os.path.join(self.work, tag + ".log"))
        shutil.rmtree(out, ignore_errors=True)
        if cmd.code != 0:
            return None, "exit %d: %s" % (cmd.code, cmd.output()[-400:])
        for line in cmd.output().splitlines():
            if line.startswith("ready "):
                return float(line.split()[1]) - cmd.launched, None
        # the hooked name is gone: the whole command is the set-up
        return cmd.exited - cmd.launched, None


# --- per-layer metrics --------------------------------------------------------


def _summarize_spans(path: str, command: str) -> dict:
    """Per span name: calls, total and self seconds, for one traced command."""
    with open(path, encoding="ascii") as fh:
        d = json.load(fh)
    names = d["names"]
    kind = np.asarray(d["span_name"], dtype=np.int64)
    parent = np.asarray(d["parent"], dtype=np.int64)
    dur = np.asarray(d["end"]) - np.asarray(d["start"])
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    n = len(names)
    return {
        "command": command,
        "import_s": d["import_s"],
        "missing": set(d["missing"]),
        "counts": d["counts"],
        "calls": dict(zip(names, np.bincount(kind, minlength=n).tolist())),
        "total": dict(zip(names, np.bincount(kind, weights=dur, minlength=n).tolist())),
        "self": dict(zip(names, np.bincount(kind, weights=dur - covered, minlength=n).tolist())),
    }


class _Absent(Exception):
    """A wrapped name no longer exists in the program."""


def _layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round; absent names drop their metrics."""
    missing = set().union(*(t["missing"] for t in traces))

    def agg(kind, name, among=traces):
        if name in missing:
            raise _Absent(name)
        return sum(t[kind].get(name, 0) for t in among)

    def count(name):
        return agg("counts", name)

    def ratio(a, b):
        return a / b if b else 0.0

    # set-up is timed in the round's first command, the one that goes on to step
    first = traces[:1]
    lattice_cmds = [t for t in traces if t["command"] == "lattice"]
    formulas = {
        "solver.step.calls": lambda: agg("calls", "solver.step"),
        "solver.step.self_s": lambda: agg("self", "solver.step"),
        "solver.helmholtz.calls": lambda: agg("calls", "solver._helmholtz_solve"),
        "solver.helmholtz.s": lambda: agg("total", "solver._helmholtz_solve"),
        "solver.cfl_dt.s": lambda: agg("total", "solver.cfl_dt"),
        "solver.flux.s": lambda: agg("total", "solver.diffusive_flux") + agg("total", "solver.chemotactic_flux"),
        "model.field_checks": lambda: count("model.Field"),
        "model.field_checks_per_step": lambda: ratio(count("model.Field"), agg("calls", "solver.step")),
        "diagnostics.history_row.s": lambda: agg("total", "diagnostics.history_row"),
        "config_io.write_snapshot.s": lambda: agg("total", "config_io.write_snapshot"),
        "config_io.snapshot_mb": lambda: count("config_io.write_snapshot") / 1e6,
        "config_io.read_snapshot.s": lambda: agg("total", "config_io.read_snapshot"),
        "profiles.select.s": lambda: agg("total", "profiles.select_lower_profile") + agg("total", "profiles.select_upper_profile"),
        "diagnostics.sandwich_check.s": lambda: agg("total", "diagnostics.sandwich_check"),
        "lattice.leaps": lambda: agg("calls", "lattice.step_tau_leap"),
        "lattice.rate_arrays.calls": lambda: agg("calls", "lattice.rate_arrays"),
        "lattice.rate_arrays_per_leap": lambda: ratio(agg("calls", "lattice.rate_arrays"), agg("calls", "lattice.step_tau_leap")),
        "lattice.step_tau_leap.self_s": lambda: agg("self", "lattice.step_tau_leap"),
        "lattice.rate_arrays.s": lambda: agg("total", "lattice.rate_arrays"),
        "lattice.state_checks": lambda: count("lattice.LatticeState"),
        "lattice.continuum.s": lambda: agg("total", "solver.run", lattice_cmds),
        "setup.import_s": lambda: first[0]["import_s"],
        "setup.parse_s": lambda: agg("total", "config_io.parse_config_file", first)
        + agg("total", "config_io.build_initial_state", first),
    }
    out = {}
    for name, formula in formulas.items():
        try:
            out[name] = formula()
        except _Absent as exc:
            print("trace: %s is absent (%s no longer exists)" % (name, exc), file=sys.stderr)
    return out


LAYER_UNITS = {
    "solver.step.calls": "count", "solver.step.self_s": "s",
    "solver.helmholtz.calls": "count", "solver.helmholtz.s": "s",
    "solver.cfl_dt.s": "s", "solver.flux.s": "s",
    "model.field_checks": "count", "model.field_checks_per_step": "count/step",
    "diagnostics.history_row.s": "s", "config_io.write_snapshot.s": "s", "config_io.snapshot_mb": "MB",
    "config_io.read_snapshot.s": "s", "profiles.select.s": "s", "diagnostics.sandwich_check.s": "s",
    "lattice.leaps": "count", "lattice.rate_arrays.calls": "count", "lattice.rate_arrays_per_leap": "count/leap",
    "lattice.step_tau_leap.self_s": "s", "lattice.rate_arrays.s": "s", "lattice.state_checks": "count",
    "lattice.continuum.s": "s",
    "setup.import_s": "s", "setup.parse_s": "s",
    "trace.overhead_s": "s",
}


# --- one run ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, "%s-%d" % (name, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        wl = Workload(name, seed, work)
        wl.setup_probe("warmup")  # untimed: compiles bytecode, fills the file cache
        walls, traced_walls, rss, setups, ops, layers = [], [], [], [], [], []
        budget = min(seconds, RUN_LIMIT_S)
        started = last = _clock()
        rounds = 0
        # a round starts only if one more as long as the last still fits
        while rounds == 0 or 2 * _clock() - last - started <= budget:
            last = _clock()
            rounds += 1
            tag = "r%d" % rounds
            wall, peak, round_ops, _ = wl.round(tag, traced=False)
            walls.append(wall)
            rss.append(peak)
            ops += round_ops
            if trace:
                wall, _, round_ops, traces = wl.round(tag + "t", traced=True)
                traced_walls.append(wall)
                ops += round_ops
                if traces:
                    layers.append(_layer_metrics(traces))
                note = "traced %.4f s" % wall
            else:
                setup, why = wl.setup_probe(tag + "p")
                ops.append(("setup_probe", why))
                if setup is not None:
                    setups.append(setup)
                note = "setup %.4f s" % setup if setup is not None else "setup failed"
            print("%s round %d: wall %.4f s, %s" % (name, rounds, walls[-1], note), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    failed = [(op, why) for op, why in ops if why is not None]
    for op, why in failed[:5]:
        print("%s: operation %s failed: %s" % (name, op, why), file=sys.stderr)
    if trace:
        metrics = {}
        for key in LAYER_UNITS:
            values = [m[key] for m in layers if key in m]
            if values:
                metrics[key] = statistics.median(values)
        if traced_walls:
            metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = LAYER_UNITS
    else:
        metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss)}
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base seed of the lattice members (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measure this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "chemofront", "cli.py")):
        print("error: %s holds no chemofront sources; run from a checkout" % SRC, file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("%s: %d operations, %d failed" % (name, res["attempted"], res["failed"]))
        for key, m in res["metrics"].items():
            print("  %-30s %.6g %s" % (key, m["value"], m["unit"]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
