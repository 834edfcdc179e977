"""Every name in the package's and each submodule's __all__ must resolve,
and every name the benchmark's tracer hooks must exist."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import chemofront

# __main__ runs the CLI when imported
MODULES = ["chemofront"] + [
    "chemofront." + info.name for info in pkgutil.iter_modules(chemofront.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), "duplicate names in %s.__all__" % name
    assert [n for n in exported if not hasattr(module, n)] == []


# names deleted from the public surface, with the module that exported them
PRUNED = [
    ("chemofront", "jump_probability"),
    ("chemofront.model", "jump_probability"),
    ("chemofront", "KERNELS"),
    ("chemofront.lattice", "KERNELS"),
    ("chemofront.config_io", "OracleToggles"),
]


@pytest.mark.parametrize("name, attr", PRUNED)
def test_pruned_names_stay_gone(name, attr):
    module = importlib.import_module(name)
    assert attr not in getattr(module, "__all__", ())
    assert not hasattr(module, attr)


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
