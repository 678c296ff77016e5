"""The lint step: no module of the package or the tests imports a name it
never uses, no module of the package keeps a module-level cache, and every
module-level function and class of the package is reached.  Standard
library only, so it runs wherever the tests run.

An import counts as used when its name is read inside the function (or
module) that imports it, or, at module level, when ``__all__`` lists it.
``from __future__`` imports are skipped.

A module-level cache is a dict, list or set bound at module level that a
function of the module writes into.  It grows for the life of the process
and shows its size nowhere; a memo table is an ``lru_cache``, whose
``cache_info()`` does.

An unbounded cache is ``functools.cache`` or ``lru_cache(maxsize=None)``.
The package keeps a fixed list of them, which may shrink but not grow.

A definition is reached when package code outside its own body reads it, as
a name or an attribute; or when a file of the benchmark names it, string
constants included, since the tracer binds kernels by ``getattr``; or when
an ``__all__`` lists it.  Tests alone do not keep a definition in the
package: what only tests read belongs in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "plethyra").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
            "remove", "setdefault", "update"}


def _containers(tree) -> dict:
    """name -> line of each module-level binding of a dict, list or set:
    a display, a comprehension, or a dict(), list() or set() call."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")):
            out.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return out


def _written(func):
    """Names that ``func`` writes into: by item assignment or deletion,
    augmented assignment, or a mutating method call."""
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.AugAssign):
            target = node.target
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name):
            yield target.id


def _locals(func) -> set:
    """Names that ``func`` binds itself, so that they shadow module names."""
    if isinstance(func, ast.Lambda):
        return set()
    args = func.args
    bound = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg] if a is not None}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            bound.difference_update(node.names)
    return bound


def module_caches(tree) -> list:
    """(line, name) of every module-level dict, list or set that a function
    of the module writes into."""
    containers = _containers(tree)
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, FUNCTIONS):
            found.update(set(_written(func)) - _locals(func))
    return sorted((containers[name], name) for name in found & containers.keys())


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_caches(path):
    assert module_caches(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_detects_module_level_caches():
    tree = ast.parse(
        "import functools\n"
        "_MEMO: dict = {}\n"
        "SEEN = set()\n"
        "TABLE = {'a': 1}\n"
        "ORDER = []\n"
        "def f(key):\n"
        "    if key not in _MEMO:\n"
        "        _MEMO[key] = key * 2\n"
        "    (lambda: SEEN.add(key))()\n"
        "    return _MEMO[key], TABLE['a']\n"
        "def g():\n"
        "    ORDER = []\n"
        "    ORDER.append(1)\n"
        "    return ORDER\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def h(key):\n"
        "    return key * 2\n")
    assert module_caches(tree) == [(2, "_MEMO"), (3, "SEEN")]


# The package functions allowed an unbounded cache; remove a name once its
# cache is bounded, never add one.
UNBOUNDED_CACHES = {"partitions_of", "line_set_partitions"}


def _tail(node):
    """``f`` for ``f`` and for ``module.f``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def unbounded_caches(tree) -> list:
    """(line, name) of every function decorated with ``cache`` or with
    ``lru_cache(maxsize=None)``; a maxsize named by a module-level constant
    is read through it."""
    constants = {t.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for t in node.targets if isinstance(t, ast.Name)}

    def is_none(node):
        if isinstance(node, ast.Name):
            return node.id in constants and constants[node.id] is None
        return isinstance(node, ast.Constant) and node.value is None

    def unbounded(deco):
        if not isinstance(deco, ast.Call):
            return _tail(deco) == "cache"
        sizes = [*deco.args[:1], *(kw.value for kw in deco.keywords if kw.arg == "maxsize")]
        return _tail(deco.func) == "lru_cache" and any(map(is_none, sizes))

    return sorted((func.lineno, func.name) for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(map(unbounded, func.decorator_list)))


def test_unbounded_caches_only_shrink():
    found = {name for path in PACKAGE
             for _, name in unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))}
    assert found <= UNBOUNDED_CACHES


def test_detects_unbounded_caches():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "SIZE = None\n"
        "BOUND = 64\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(x): return x\n"
        "@lru_cache(None)\n"
        "def b(x): return x\n"
        "@functools.cache\n"
        "def c(x): return x\n"
        "@cache\n"
        "def d(x): return x\n"
        "@functools.lru_cache(maxsize=SIZE)\n"
        "def e(x): return x\n"
        "@functools.lru_cache(maxsize=BOUND)\n"
        "def f(x): return x\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def g(x): return x\n"
        "@functools.lru_cache\n"
        "def h(x): return x\n"
        "@functools.lru_cache()\n"
        "def i(x): return x\n")
    assert unbounded_caches(tree) == [(6, "a"), (8, "b"), (10, "c"), (12, "d"), (14, "e")]


BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _read_names(node):
    """Each name that ``node`` reads as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _named(tree) -> set:
    """Names that ``tree`` reads, and its string constants that are
    identifiers."""
    return set(_read_names(tree)) | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.isidentifier()}


def unreached(modules: dict, named: set) -> list:
    """(module, line, name) of every module-level function or class of
    ``modules`` (name -> tree) that no code outside its own body reads and
    that neither ``named`` nor an ``__all__`` holds."""
    reads = Counter()
    for tree in modules.values():
        reads.update(_read_names(tree))
    kept = named.union(*map(_exported, modules.values()))
    return sorted((module, node.lineno, node.name)
                  for module, tree in modules.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in kept
                  and reads[node.name] == sum(n == node.name for n in _read_names(node)))


def test_every_definition_is_reached():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    named = set().union(*(_named(ast.parse(path.read_text(encoding="utf-8")))
                          for path in BENCHMARK))
    assert unreached(modules, named) == []


def test_detects_unreached_definitions():
    modules = {
        "a": ast.parse(
            "__all__ = ['exported']\n"
            "def exported(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "def helper(): return 2\n"
            "class Box:\n"
            "    def make(self): return Box()\n"
            "def traced(): return 3\n"
            "def by_name(): return 4\n"),
        "b": ast.parse(
            "import a\n"
            "def user(): return a.helper() + a.exported()\n"),
    }
    named = _named(ast.parse("import a\nWRAP = [(a, 'by_name')]\nprint(a.traced, 'user')\n"))
    assert unreached(modules, named) == [("a", 3, "recursive"), ("a", 5, "Box")]
