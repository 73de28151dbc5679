"""Every name a kfractions module exports in __all__ resolves, every module attribute the
benchmark's own tests read stays bound, and the number of options the package offers is tracked."""

import ast
import dataclasses
import importlib
import inspect
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


def _defaulted(fn) -> int:
    return sum(p.default is not inspect.Parameter.empty for p in inspect.signature(fn).parameters.values())


def test_tracked_option_count():
    """A ratchet on the package's knobs: over the __all__ of the nine submodules (one without __all__
    exports none), the defaulted parameters of the public functions, and of the public methods and
    __init__ of the public classes that are not dataclasses, plus the dataclass fields that have a
    default.  A new option, parameter or field changes this number, so it has to change it on purpose."""
    params = fields = 0
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for obj in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if dataclasses.is_dataclass(obj):
                fields += sum(f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                              for f in dataclasses.fields(obj))
            elif inspect.isclass(obj):
                methods = [getattr(obj, a) for a in vars(obj) if a == "__init__" or not a.startswith("_")]
                params += sum(_defaulted(m) for m in methods if inspect.isroutine(m))
            elif inspect.isfunction(obj):
                params += _defaulted(obj)
    assert len(MODULES[1:]) == 9
    assert (params, fields) == (54, 18)  # 72 options
