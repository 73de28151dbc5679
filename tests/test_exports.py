"""Every name a kfractions module exports in __all__ resolves, is defined in that module and is read
outside the tests, as is every public method, property and __init__-assigned instance attribute of its
classes; the package itself exports its submodules only; every module attribute the benchmark's own
tests read stays bound, only arith imports numbers.Integral or holds a byte cap, and the number of
options the package offers and its line total are tracked.

The caller ratchets match names by spelling, so they skip what only shares a spelling with a member: an
attribute read on an imported module (np.zeros is no read of CoefficientVector.zeros) and a string
constant other than the benchmark tracer's "Class.member" targets (a dict key "unit" is no read)."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
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


def test_tracked_line_count():
    """A ratchet on the line total of src/kfractions/*.py that ROADMAP quotes: code added or deleted changes
    this number, so it has to change it on purpose."""
    total = sum(path.read_bytes().count(b"\n") for path in Path(kfractions.__file__).parent.glob("*.py"))
    assert total == 3378


def test_only_arith_imports_integral():
    """The integer rule has one home: arith is the one module that imports numbers.Integral (or numbers), so
    every other module takes its integers through arith.as_int."""
    importers = set()
    for path in Path(kfractions.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                names = {"Integral" for a in node.names if a.name == "numbers"}  # numbers.Integral is one read away
            else:
                continue
            if "Integral" in names:
                importers.add(path.name)
    assert importers == {"arith.py"}


def test_only_arith_holds_a_byte_cap():
    """The byte budget has one home: arith.BYTE_CAP, raised on by arith.check_bytes.  Every other module names
    only its measured bytes per entry (under 1 KiB each) and raises no "over the cap of" of its own."""
    for path in Path(kfractions.__file__).parent.glob("*.py"):
        if path.name == "arith.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            for target in node.targets if isinstance(node, ast.Assign) else []:
                if isinstance(target, ast.Name) and "BYTE" in target.id:
                    value = eval(compile(ast.Expression(node.value), path.name, "eval"), {})
                    assert value < 2**10, f"{path.name} defines {target.id} = {value}"
        strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        assert not any("over the cap of" in s for s in strings), path.name
    assert kfractions.arith.BYTE_CAP == 2**30


def test_only_arith_holds_the_int64_range():
    """The int64 range has one home: arith.check_int64, which every exact int64 kernel's site calls with the
    largest value it forms.  No other module writes a literal from 2^60 to 2^63 (2**62, 1 << 63, an integer in
    that range) or raises an int64 message of its own."""
    for path in Path(kfractions.__file__).parent.glob("*.py"):
        if path.name == "arith.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.LShift)) and all(
                    isinstance(side, ast.Constant) and type(side.value) is int for side in (node.left, node.right)):
                value = eval(compile(ast.Expression(node), path.name, "eval"), {})
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                value = node.value
            else:
                continue
            assert not 2**60 <= value <= 2**63, f"{path.name}:{node.lineno} writes {ast.unparse(node)}"
        raised = [n.value for r in ast.walk(tree) if isinstance(r, ast.Raise) for n in ast.walk(r)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        assert not any("int64" in s for s in raised), path.name
    with pytest.raises(ValueError, match="x can reach 9223372036854775808, outside the exact int64 range"):
        kfractions.arith.check_int64(2**63, "x")
    kfractions.arith.check_int64(2**63 - 1, "x")


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
TRACER_TARGET = re.compile(r"(?:\w+\.)*[A-Z]\w*\.(\w+)")  # "DirichletCharacter.__call__", module prefix optional


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:  # a parent that is no package, or is not importable here
        return False


def _imported_modules(tree: ast.Module) -> set[str]:
    """The names a file binds to modules: `import x [as y]`, and `from p import x` where p.x is a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["kfractions" if node.level else None, node.module]))
            found.update(a.asname or a.name for a in node.names if _is_module(f"{package}.{a.name}"))
    return found


def _member_reads(node: ast.AST, modules: set[str]) -> Counter:
    """Attributes read under node, other than on the modules named, and the members the string
    constants in the tracer's "Class.member" form name."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            if not (isinstance(n.value, ast.Name) and n.value.id in modules):
                reads[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and (target := TRACER_TARGET.fullmatch(n.value)):
            reads[target.group(1)] += 1
    return reads


def _public_members(cls: ast.ClassDef, dataclass: bool) -> list[tuple[str, ast.AST]]:
    """The public methods and properties of a class, and, unless it is a dataclass, the public instance
    attributes its __init__ assigns; each with the definition whose own reads do not count."""
    members = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                members.append((node.name, node))
            elif node.name == "__init__" and not dataclass:
                members += [(n.attr, node) for n in ast.walk(node) if isinstance(n, ast.Attribute)
                            and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                            and n.value.id == "self" and not n.attr.startswith("_")]
    return members


def test_every_public_member_has_a_caller_outside_tests():
    """The same ratchet on the public methods and properties of each class in a submodule's __all__, and
    on the public instance attributes that __init__ assigns in each such class that is not a dataclass:
    each is read somewhere in the package, the demos or the benchmark, other than inside its own
    definition (the __init__, for an attribute)."""
    trees = _source_trees()
    modules = {path: _imported_modules(tree) for path, tree in trees.items()}
    reads = sum((_member_reads(tree, modules[path]) for path, tree in trees.items()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent.name != "kfractions" or path.stem == "__init__":
            continue
        module = importlib.import_module(f"kfractions.{path.stem}")
        exported = set(_module_all(tree))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name in exported):
            for name, definition in _public_members(cls, dataclasses.is_dataclass(getattr(module, cls.name))):
                if reads[name] == _member_reads(definition, modules[path])[name]:
                    dead.append(f"{path.stem}.{cls.name}.{name}")
    assert sorted(set(dead) - MEMBER_NO_CALLER_OUTSIDE_TESTS) == [], "public, and read only by the tests"
    assert MEMBER_NO_CALLER_OUTSIDE_TESTS <= set(dead), "an exemption that now has a caller is no longer needed"


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level: functions, classes and assigned names, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_each_public_name_has_one_path():
    """A public name has one import path: each name in a submodule's __all__ is defined at that module's
    top level, not imported into it, and the package exports its submodules and __version__ only."""
    imported = [f"{path.stem}.{name}" for path, tree in _source_trees().items()
                if path.parent.name == "kfractions" and path.stem != "__init__"
                for name in _module_all(tree) if name not in _top_level_names(tree)]
    assert imported == [], "exported by a module that does not define it"
    submodules = {m.name for m in pkgutil.iter_modules(kfractions.__path__)}
    assert "__version__" in kfractions.__all__
    assert sorted(set(kfractions.__all__) - submodules - {"__version__"}) == [], "re-exported by the package"
    init = ast.parse(Path(kfractions.__file__).read_text())
    bound = {a.asname or a.name for node in init.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for a in node.names}
    assert bound == set(kfractions.__all__) - {"__version__"}, "the package binds a name it does not export"
