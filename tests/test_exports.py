"""Every name in the package's and each submodule's __all__ must resolve."""

import importlib
import pkgutil

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
PRUNED = [("chemofront", "jump_probability"), ("chemofront.model", "jump_probability")]


@pytest.mark.parametrize("name, attr", PRUNED)
def test_pruned_names_stay_gone(name, attr):
    module = importlib.import_module(name)
    assert attr not in getattr(module, "__all__", ())
    assert not hasattr(module, attr)
