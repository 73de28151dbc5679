"""Every name a kfractions module exports in __all__ resolves and is read outside the tests, as is every
public method and property of its classes; every module attribute the benchmark's own tests read stays
bound, and the number of options the package offers is tracked."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from collections import Counter
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
    assert (params, fields) == (53, 18)  # 71 options


def _module_all(tree: ast.Module) -> list[str]:
    return next((ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)), [])


def _defines(node: ast.stmt, name: str | None) -> bool:
    """Whether a top-level statement defines name, or is an __all__ line (which names, not reads)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return any(isinstance(t, ast.Name) and t.id in (name, "__all__") for t in targets)


def _references(tree: ast.Module, name: str | None = None) -> set[str]:
    """Names read, attributes read and exact string constants (the benchmark's tracer names its
    targets by string), outside the __all__ lines and the top-level definition of name."""
    found = set()
    for node in (node for top in tree.body if not _defines(top, name) for node in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _source_trees() -> dict[Path, ast.Module]:
    """The parsed sources of the package, the demos and the benchmark: where a public name finds its caller."""
    root = Path(__file__).resolve().parents[1]
    return {path: ast.parse(path.read_text()) for folder in ("src/kfractions", "demos", "perfbench")
            for path in sorted((root / folder).glob("*.py"))}


NO_CALLER_OUTSIDE_TESTS = {"apps.rho"}  # the scalar oracle of the build_fraction_set tests


def test_every_export_has_a_caller_outside_tests():
    """A ratchet on dead exports: each name in a submodule's __all__ is read somewhere in the package,
    the demos or the benchmark, other than in its own definition and the __all__ line."""
    trees = _source_trees()
    elsewhere = {path: _references(tree) for path, tree in trees.items()}
    dead = []
    for path, tree in trees.items():
        if path.parent.name != "kfractions" or path.stem == "__init__":
            continue
        for name in _module_all(tree):
            read_elsewhere = any(name in refs for other, refs in elsewhere.items() if other != path)
            if not read_elsewhere and name not in _references(tree, name):
                dead.append(f"{path.stem}.{name}")
    assert sorted(set(dead) - NO_CALLER_OUTSIDE_TESTS) == [], "exported, and read only by the tests"
    assert NO_CALLER_OUTSIDE_TESTS <= set(dead), "an exemption that now has a caller is no longer needed"


MEMBER_NO_CALLER_OUTSIDE_TESTS = {"records.ExperimentRecord.passed"}  # the acceptance tests' verdict


def _member_reads(node: ast.AST) -> Counter:
    """Attributes read and exact string constants (getattr, the tracer's targets) under node."""
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.value for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_every_public_member_has_a_caller_outside_tests():
    """The same ratchet on the public methods and properties of each class in a submodule's __all__:
    each is read somewhere in the package, the demos or the benchmark, other than inside its own
    definition."""
    trees = _source_trees()
    reads = sum((_member_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent.name != "kfractions" or path.stem == "__init__":
            continue
        exported = set(_module_all(tree))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name in exported):
            for member in cls.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_")
                        and reads[member.name] == _member_reads(member)[member.name]):
                    dead.append(f"{path.stem}.{cls.name}.{member.name}")
    assert sorted(set(dead) - MEMBER_NO_CALLER_OUTSIDE_TESTS) == [], "public, and read only by the tests"
    assert MEMBER_NO_CALLER_OUTSIDE_TESTS <= set(dead), "an exemption that now has a caller is no longer needed"
