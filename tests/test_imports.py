"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import hsd

MODULES = sorted(Path(hsd.__file__).parent.glob("*.py"))


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
