"""Every exported name resolves to a real object, and importing the package
loads no scipy module."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_the_package_and_its_cli_load_no_scipy_module():
    code = (
        "import sys, eiprecode, eiprecode.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"
