"""Each public name is declared once, in its module's __all__, and resolves
there; the package itself re-exports nothing and imports no submodule; and
every name the benchmark's tracer hooks must exist and be reached, so that
the traced benchmark reports every per-layer metric."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import chemofront
from chemofront import cli

# __main__ runs the CLI when imported
SUBMODULES = [
    "chemofront." + info.name for info in pkgutil.iter_modules(chemofront.__path__) if info.name != "__main__"
]
MODULES = ["chemofront"] + SUBMODULES


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), "duplicate names in %s.__all__" % name
    assert [n for n in exported if not hasattr(module, n)] == []


def _public(name):
    return getattr(importlib.import_module(name), "__all__", ())


def test_each_public_name_is_declared_in_one_module():
    owners = {}
    for name in SUBMODULES:
        for attr in _public(name):
            owners.setdefault(attr, []).append(name)
    assert {attr: names for attr, names in owners.items() if len(names) > 1} == {}


def test_the_package_reexports_no_public_name():
    assert not hasattr(chemofront, "__all__")
    assert [(name, attr) for name in SUBMODULES for attr in _public(name) if hasattr(chemofront, attr)] == []


def _loaded_by(statement):
    """The chemofront submodules a fresh interpreter holds after running statement."""
    code = "import sys; %s; print(*sorted(m for m in sys.modules if m.startswith('chemofront.')))" % statement
    src = str(Path(chemofront.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_submodule():
    assert _loaded_by("import chemofront") == set()


def test_importing_the_lattice_loads_only_what_it_uses():
    loaded = _loaded_by("import chemofront.lattice")
    assert "chemofront.lattice" in loaded
    assert loaded & {"chemofront.cli", "chemofront.config_io", "chemofront.profiles"} == set()


# names deleted from the public surface, with the module that exported them
PRUNED = [
    ("chemofront", "jump_probability"),
    ("chemofront.model", "jump_probability"),
    ("chemofront", "KERNELS"),
    ("chemofront.lattice", "KERNELS"),
    ("chemofront.config_io", "OracleToggles"),
    ("chemofront", "FrontHistory"),
    ("chemofront.diagnostics", "FrontHistory"),
    ("chemofront.config_io", "read_history_csv"),
    ("chemofront.config_io", "write_history_csv"),
    ("chemofront", "SteadyStateTargets"),
    ("chemofront.diagnostics", "SteadyStateTargets"),
    ("chemofront", "steady_state_targets"),
    ("chemofront.diagnostics", "steady_state_targets"),
    ("chemofront.lattice", "Member"),
    ("chemofront.lattice", "coarse_density"),
    ("chemofront.cli", "SANDWICH_TOL"),
    ("chemofront.cli", "MASS_TOL"),  # beside SANDWICH_TOL in diagnostics
    # each kernel took the public name the tracer times, and the wrapper that held it went
    ("chemofront.solver", "StepReport"),
    ("chemofront.solver", "_advance"),
    ("chemofront.solver", "_cfl_dt"),
    ("chemofront.solver", "_chemotactic_fluxes"),
    ("chemofront.lattice", "_rates"),
    ("chemofront.lattice", "_leap"),
    # one pass over v's face differences gives both measures, and step scatters its drift itself
    ("chemofront.solver", "max_abs_gradient"),
    ("chemofront.solver", "max_abs_laplacian"),
    ("chemofront.solver", "_divergence"),
    # the late-stage ODE envelopes, which no command ran
    ("chemofront.profiles", "convergence_envelopes"),
    ("chemofront.profiles", "OdeEnvelopeParams"),
    ("chemofront.profiles", "EnvelopeResult"),
    ("chemofront.profiles", "_rk4_path"),
    ("chemofront.profiles", "_envelope_rhs"),
    # one least-squares fit, whose kind picks the abscissa
    ("chemofront.diagnostics", "PowerLawFit"),
    ("chemofront.diagnostics", "ExponentialFit"),
    ("chemofront.diagnostics", "fit_power_law"),
    ("chemofront.diagnostics", "fit_exponential"),
]


@pytest.mark.parametrize("name, attr", PRUNED)
def test_pruned_names_stay_gone(name, attr):
    module = importlib.import_module(name)
    assert attr not in getattr(module, "__all__", ())
    assert not hasattr(module, attr)


# (module, callable, parameter) for each knob that only tests ever set, retired for the constant or shape the program uses
RETIRED_PARAMETERS = [
    ("diagnostics", "support_radius", "threshold"),
    ("diagnostics", "sandwich_check", "tol"),
    ("lattice", "initial_state", "members"),
    ("lattice", "LatticeState", "origin"),
    # the site-time above u_max is the one capacity measure, and a leap builds its own probabilities
    ("lattice", "LatticeState", "capacity_violations"),
    ("lattice", "EnsembleRun", "flags"),
    ("lattice", "step_tau_leap", "probs"),
    # a snapshot is read onto the grid it must match, whose origin completes its header
    ("config_io", "read_snapshot", "origin"),
    # step raises u to the power m once, for the drift and the first diffusion stage
    ("solver", "diffusive_flux", "m"),
    # a run has one centre: every radial measure and profile is handed the squared distances computed once from it
    ("profiles", "ProfileParams", "center"),
    ("profiles", "select_lower_profile", "center"),
    ("profiles", "select_upper_profile", "center"),
]


@pytest.mark.parametrize("module, name, parameter", RETIRED_PARAMETERS)
def test_retired_parameters_stay_gone(module, name, parameter):
    target = getattr(importlib.import_module("chemofront." + module), name)
    assert parameter not in inspect.signature(target).parameters


@pytest.mark.parametrize("module, name", [("solver", "step"), ("lattice", "step_tau_leap")])
def test_kernels_take_every_argument_from_their_caller(module, name):
    # run passes step the time left as its dt_cap and run_adaptive sizes every leap, so no default is left for tests to vary
    target = getattr(importlib.import_module("chemofront." + module), name)
    assert [p.name for p in inspect.signature(target).parameters.values() if p.default is not p.empty] == []


def test_fields_are_built_from_arrays_only():
    from chemofront.model import Field

    assert not hasattr(Field, "from_function")


@pytest.mark.parametrize("module, cls, attr", [
    ("model", "Field", "copy"),
    ("model", "StateQuad", "copy"),
    ("profiles", "ProfileParams", "support_radius_at"),
])
def test_methods_no_command_called_stay_gone(module, cls, attr):
    assert not hasattr(getattr(importlib.import_module("chemofront." + module), cls), attr)


def test_lattice_states_have_no_particle_count():
    from chemofront.lattice import LatticeState

    assert not hasattr(LatticeState, "particle_count")  # occupancy.sum(axis=-1) is the count


def test_lattice_states_have_no_signal():
    from chemofront.lattice import LatticeState

    # one rate law, q(departure) / h^2: no frozen signal v, drift coefficient beta or rate scale alpha
    assert {f.name for f in dataclasses.fields(LatticeState)} & {"v", "alpha", "beta"} == set()


def _tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_exist():
    """The tracer skips a missing name, so a rename would only show as a lost
    per-layer metric; the --ready-at targets end the setup_s probe, and a
    counted class is counted through its __post_init__."""
    tracer = _tracer()
    assert tracer.TRACED and tracer.COUNTED

    def lookup(module, attr):
        return getattr(importlib.import_module("chemofront." + module), attr, None)

    called = tracer.TRACED + [("solver", "run"), ("lattice", "run_adaptive")]
    missing = ["%s.%s" % hook for hook in called if lookup(*hook) is None]
    missing += ["%s.%s" % hook for hook in tracer.COUNTED if not hasattr(lookup(*hook), "__post_init__")]
    assert missing == []


def _refuse(constant):
    raise ValueError("the result line holds %s, which strict JSON has no name for" % constant)


def test_traced_benchmark_reports_every_per_layer_metric():
    """A renamed hook leaves the traced run exiting 0 with a last line that
    parses but lacks that hook's metrics; ref_1d reaches every per-layer name."""
    root = Path(__file__).resolve().parents[1]
    command = [sys.executable, str(root / "bench" / "run.py"), "--workload", "ref_1d", "--trace", "1", "--seconds", "0"]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=root, check=True)
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    # the solver's layers read what the run spent in them, not 0
    timed = ("solver.step.calls", "solver.cfl_dt.s", "solver.flux.s")
    assert [name for name in timed if not result["metrics"][name]["value"] > 0] == []


PROBE_CFG = """\
[model]
m = 2.0

[grid]
dim = 1
cells = 16
extent = 2.0

[solver]
t_end = 0.05

[initial]
u = bump 1.0 0.25 0.5

[lattice]
sites = 20
u_max = 50
particles = 150
t_end = 0.05
"""


class _Reached(Exception):
    """Raised by the stand-in for a function the setup_s probe stops at; main() catches no such error."""


@pytest.mark.parametrize("command, module, attr", [("run", "solver", "run"), ("lattice", "lattice", "run_adaptive")])
def test_commands_reach_the_probe_targets_through_their_modules(tmp_path, monkeypatch, command, module, attr):
    """--ready-at replaces the module attribute, so a command that bound the
    function by name would never stop there and setup_s would time it whole."""

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(importlib.import_module("chemofront." + module), attr, reached)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(PROBE_CFG)
    with pytest.raises(_Reached):
        cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])


def _counting(calls, name, fn):
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


# per command, the module attributes the tracer times as its kernels, and the stats file that counts their work
TRACED_KERNELS = {
    "run": ("solver", ["step", "cfl_dt", "chemotactic_flux", "diffusive_flux"], "run_stats.json"),
    "lattice": ("lattice", ["rate_arrays", "step_tau_leap"], "lattice_stats.json"),
}


@pytest.mark.parametrize("command", sorted(TRACED_KERNELS))
def test_commands_call_the_traced_kernels_once_per_step_stage_or_leap(tmp_path, monkeypatch, command):
    """The tracer replaces module attributes, as these counters do: a kernel
    bound by name, or a wrapper that the command never calls, reads 0."""
    module, names, stats_file = TRACED_KERNELS[command]
    mod = importlib.import_module("chemofront." + module)
    calls = {}
    for name in names:
        monkeypatch.setattr(mod, name, _counting(calls, name, getattr(mod, name)))
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(PROBE_CFG)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    stats = json.loads((tmp_path / "out" / stats_file).read_text())
    if command == "run":
        steps = stats["steps"]
        assert steps > 0
        assert calls == {"step": steps, "cfl_dt": steps, "chemotactic_flux": steps, "diffusive_flux": stats["stages"]}
    else:
        assert stats["leaps"] > 0
        assert calls == {"rate_arrays": stats["leaps"], "step_tau_leap": stats["leaps"]}
