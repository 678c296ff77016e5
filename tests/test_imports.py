"""The lint step: no module of the package or the tests imports a name it
never uses.  Standard library only, so it runs wherever the tests run.

An import counts as used when its name is read inside the function (or
module) that imports it, or, at module level, when ``__all__`` lists it.
``from __future__`` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "plethyra").glob("*.py"), *(ROOT / "tests").glob("*.py")])


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_imports(scope):
    """(line, bound name) of each import of ``scope``, not of the functions
    nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        stack.extend(ast.iter_child_nodes(node))


def _reads(scope, name) -> bool:
    """Whether ``name`` is read in ``scope``, outside nested functions that
    import it again."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, FUNCTIONS) and any(n == name for _, n in _own_imports(node)):
            continue
        if isinstance(node, ast.Name) and node.id == name or _reads(node, name):
            return True
    return False


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(tree) -> list:
    """(line, name) of every imported name its scope never reads."""
    exported = _exported(tree)
    out = []
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]:
        for line, name in _own_imports(scope):
            if not _reads(scope, name) and not (scope is tree and name in exported):
                out.append((line, name))
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_detects_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import gcd as g, comb\n"
        "__all__ = ['comb']\n"
        "def f():\n"
        "    from itertools import product\n"
        "    return sys.argv, g(2, 4)\n"
        "def h():\n"
        "    import os\n"
        "    return os.sep\n")
    assert unused_imports(tree) == [(2, "os"), (6, "product")]
