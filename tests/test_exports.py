"""Every name a kfractions module exports in __all__ resolves, and every module attribute the
benchmark's own tests read stays bound."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kfractions

MODULES = ["kfractions"] + [f"kfractions.{m.name}" for m in pkgutil.iter_modules(kfractions.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_names_the_benchmark_tests_read_stay_bound():
    # perfbench's tracer test saves and restores `originals`, names a module keeps only for it
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "test_perfbench.py").read_text()
    names = [ast.unparse(elt) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "originals" for t in node.targets) for elt in node.value.elts]
    assert "forms.character_group" in names and "incomplete.kloosterman_brute" in names
    for name in names:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"kfractions.{module}"), attr), name
