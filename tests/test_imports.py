"""Every name a module of the package imports is used in that module,
every field its record types declare is read somewhere, every
definition and method of the package has a caller, and no module reads
another's private attributes."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import hsd

MODULES = sorted(Path(hsd.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads; a
    name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import comb, gcd\n\ngcd(4, 6)\n") == [
        "comb (line 2)", "os (line 1)"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def declared_fields(source: str) -> list:
    """(class, field) for every annotated field of a dataclass or a
    NamedTuple defined in the source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
                isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
            out += [(node.name, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def attribute_reads(tree) -> Counter:
    return Counter(n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def attributes_read(source: str) -> set:
    return set(attribute_reads(ast.parse(source)))


def test_every_declared_field_is_read():
    """A field nothing reads is computed or stored for no one.  The match is
    by name only: `x.type` anywhere in src/, tests/ or benchmarks/ counts
    as a read of every field called `type`, so the check finds fields
    whose name is read nowhere, not every unread field."""
    read = set()
    for folder in ("src", "tests", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            read |= attributes_read(path.read_text())
    fields = [f for path in MODULES for f in declared_fields(path.read_text())]
    assert ("VerificationReport", "errors") in fields
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []


def test_the_check_sees_an_unread_field():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "class B(NamedTuple):\n    z: int\n"
        "class C:\n    w: int\n"
        "print(A(1).x)\n"
    )
    assert declared_fields(source) == [("A", "x"), ("A", "y"), ("B", "z")]
    assert attributes_read(source) == {"x"}


CLOCKS = {"time", "datetime"}


def clock_imports(source: str) -> list:
    """The standard clock modules the source imports, in any import form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found & CLOCKS)


def test_only_the_cli_reads_the_clock():
    """Searches, the catalog sweep and the table return plain values, so
    equal inputs give equal results; the CLI times its own commands."""
    readers = {path.name: clock_imports(path.read_text()) for path in MODULES}
    assert {name: mods for name, mods in readers.items() if mods} == {"cli.py": ["time"]}


def test_the_check_sees_a_clock_import():
    assert clock_imports("import os, time as t\nfrom datetime import date\n") == [
        "datetime", "time"]
    assert clock_imports("from time import perf_counter\nimport timeit\n") == ["time"]
    assert clock_imports("import os.path\nfrom .time import clock\n") == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions(modules: dict, callers: list, exported=()) -> list:
    """`module.name` for each module-level function or class of `modules`
    ({module name: source}) that no `ast` name or attribute refers to
    outside its own definition, in `modules` or in the `callers` sources,
    and that `exported` does not list.  The match is by name only, as in
    `test_every_declared_field_is_read`."""
    defined, read = [], set()
    for module, source in [*modules.items(), *((None, s) for s in callers)]:
        for stmt in ast.parse(source).body:
            own = stmt.name if module is not None and isinstance(stmt, DEFINITIONS) else None
            if own is not None:
                defined.append((module, own))
            read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read and name not in exported)


def test_every_definition_has_a_caller():
    """Code that only tests run belongs with the tests (tests/oracles.py);
    the package keeps what a CLI verb, a rule, the benchmark or the public
    API reaches."""
    modules = {path.stem: path.read_text() for path in MODULES}
    callers = [path.read_text() for path in (ROOT / "benchmarks").rglob("*.py")]
    assert unreferenced_definitions(modules, callers, hsd.__all__) == []


def test_the_check_sees_a_definition_without_a_caller():
    modules = {"a": "def f():\n    return f()\n\ndef g():\n    return h\n\n"
                    "def h():\n    pass\n\nclass C:\n    pass\n"}
    assert unreferenced_definitions(modules, ["import a\na.C()\n"]) == ["a.f", "a.g"]
    assert unreferenced_definitions(modules, ["import a\na.C()\n"], ["f"]) == ["a.g"]
    assert unreferenced_definitions(modules, []) == ["a.C", "a.f", "a.g"]


def unread_methods(classes: dict, readers: list) -> list:
    """`module.Class.name` for each method or property of a module-level
    class of `classes` ({module name: (source, module namespace)}) whose
    name no attribute of the `readers` sources reads outside the method
    itself.  Dunders are exempt, and so are overrides of a method of a base
    class, which the base class calls.  The match is by name only, as in
    `test_every_declared_field_is_read`."""
    read = Counter()
    for source in readers:
        read.update(attribute_reads(ast.parse(source)))
    out = []
    for module, (source, namespace) in classes.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = namespace[cls.name].__mro__[1:]
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = fn.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if any(name in vars(base) for base in bases):
                    continue
                if read[name] == attribute_reads(fn)[name]:
                    out.append(f"{module}.{cls.name}.{name}")
    return sorted(out)


def test_every_method_has_a_caller():
    """A method or property of a package class that no code of the package
    or the benchmark reads is kept for the tests alone."""
    classes = {path.stem: (path.read_text(),
                           vars(importlib.import_module(f"hsd.{path.stem}".removesuffix(".__init__"))))
               for path in MODULES}
    readers = [path.read_text() for folder in ("src", "benchmarks")
               for path in (ROOT / folder).rglob("*.py")]
    assert unread_methods(classes, readers) == []


def test_the_check_sees_a_method_without_a_caller():
    source = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        pass\n"
        "    def planted(self):\n        return self.planted()\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def __len__(self):\n        return 0\n"
        "P().used()\n"
    )
    namespace = {}
    exec(source, namespace)
    assert unread_methods({"a": (source, namespace)}, [source]) == ["a.P.planted", "a.P.size"]
    assert unread_methods({"a": (source, namespace)}, [source, "p.size\n"]) == ["a.P.planted"]


def foreign_private_reads(source: str) -> list:
    """`name (line n)` for each read `x._name` of the source (dunders
    exempt) whose `_name` the source neither assigns nor defines: a private
    attribute of some other module's object."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            own.add(node.name)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            own.add(node.attr)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            own.add(node.id)
    return [f"{n.attr} (line {n.lineno})" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and n.attr.startswith("_") and not n.attr.endswith("__") and n.attr not in own]


def test_no_module_reads_another_modules_private_attribute():
    """A class's private attributes are read through its methods, so the
    class can change them without its callers."""
    reads = {path.name: foreign_private_reads(path.read_text()) for path in MODULES}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_check_sees_a_foreign_private_read():
    owner = (
        "class S:\n    def __init__(self):\n        self._of = {}\n"
        "    def _helper(self):\n        return self._of, self.__dict__\n"
        "_cache = {}\n"
        "def f(s, m):\n    return s._helper(), m._cache\n"
    )
    reader = "def g(st):\n    return st._of[0], st.of, st.__class__\n"
    assert foreign_private_reads(owner) == []
    assert foreign_private_reads(reader) == ["_of (line 2)"]
