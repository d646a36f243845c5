"""Every exported name resolves to a real object."""

import importlib
import types

import pytest

import eiprecode

MODULES = (
    "channel",
    "cli",
    "config",
    "eta",
    "experiments",
    "linksim",
    "precoding",
    "rie",
    "rmt",
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"eiprecode.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_package_reexports_only_module_all_entries():
    # the package namespace is its API: each public name it re-exports must
    # be listed in the __all__ of the module that defines it
    exported = {
        n: obj
        for n, obj in vars(eiprecode).items()
        if not n.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported
    strays = [
        n
        for n, obj in exported.items()
        if n not in importlib.import_module(obj.__module__).__all__
    ]
    assert not strays, strays
