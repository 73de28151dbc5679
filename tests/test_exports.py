"""Every name a kfractions module exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import kfractions

MODULES = ["kfractions"] + [f"kfractions.{m.name}" for m in pkgutil.iter_modules(kfractions.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
