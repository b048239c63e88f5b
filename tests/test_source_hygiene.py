"""Dead names and unbounded caches in the package source.

A module global counts as read only when its own module loads it as a
bare name, when another module imports it with `from .m import name`, or
when another module reads it as `m.name` after `from . import m`; a read
of `m.name` leaves a global of that name in any other module dead.  An
import counts as read when its module loads it as a bare name, or, in
the package's __init__, names it in __all__.  A submodule's own __all__
does not count: a public name that no module reads and the package does
not export is dead.  A field of a package dataclass is still matched by
name, not by class: it is dead unless some module loads an attribute of
that name or names it in a string constant inside a function that calls
getattr, as write_csv does for its series, so a dead field that shares
its spelling with a live attribute goes unflagged.  Tests do not count
as readers.

A cache without a size bound (functools.cache, lru_cache(maxsize=None))
keeps every key it has seen, so a long run's memory would grow with its
inputs; every cache in the package must name its maxsize bound.
"""

import ast
from pathlib import Path

import gpsol

SRC = Path(gpsol.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _reads(modules):
    """(module, name) for every name some module of the package reads."""
    reads = set()
    for stem, tree in modules.items():
        aliases = {}  # local name -> module, from `from . import m as alias`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        reads.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((stem, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                reads.add((aliases[node.value.id], node.attr))
        if stem == "__init__":
            reads.update((stem, name) for name in _exports(tree))
    return reads


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _module_globals(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _field_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                for call in ast.walk(node)):
            yield from (const.value for const in ast.walk(node)
                        if isinstance(const, ast.Constant) and isinstance(const.value, str))


def _dataclass_fields(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def dead_names(modules):
    """'module.name' for every unread import and module global, and
    'module.Class.field' for every unread dataclass field."""
    reads = _reads(modules)
    fields_read = set().union(*(_field_reads(tree) for tree in modules.values()))
    dead = []
    for stem, tree in modules.items():
        dead += [f"{stem}.{name}" for name in _imported(tree) if (stem, name) not in reads]
        dead += [f"{stem}.{name}" for name in _module_globals(tree)
                 if not name.startswith("__") and (stem, name) not in reads]
        dead += [f"{stem}.{cls}.{name}" for cls, name in _dataclass_fields(tree)
                 if name not in fields_read]
    return sorted(dead)


def test_source_has_no_dead_names():
    assert dead_names(_modules()) == []


def test_scan_flags_both_kinds_of_dead_name():
    modules = {"a": ast.parse("import os\nfrom .b import f\n__all__ = ['g']\n"
                              "def g():\n    return f()\n"),
               "b": ast.parse("import sys\nKINDS = (1, 2)\ndef f():\n    return 1\n")}
    # g is exported only by its own module's __all__
    assert dead_names(modules) == ["a.g", "a.os", "b.KINDS", "b.sys"]
    # re-exported by the package, g is live
    modules["__init__"] = ast.parse("from .a import g\n__all__ = ['g']\n")
    assert dead_names(modules) == ["a.os", "b.KINDS", "b.sys"]
    # a read names its module: c reads b's f and KINDS through its alias,
    # and d's f stays dead although it shares the name of a live one
    modules["c"] = ast.parse("from . import b as bb\nprint(bb.f(), bb.KINDS)\n")
    modules["d"] = ast.parse("def f():\n    return 2\n")
    assert dead_names(modules) == ["a.os", "b.sys", "d.f"]


def test_scan_flags_unread_dataclass_fields():
    modules = {"a": ast.parse("from dataclasses import dataclass\n"
                              "@dataclass(frozen=True)\nclass P:\n"
                              "    x: float\n    y: float\n    z: float\n    w: float = 0.0\n"
                              "class Q:\n    v: int\n"
                              "def f(p):\n    p.w = 1.0\n    return p.x\n"
                              "def g(p):\n    return [getattr(p, n) for n in ('y',)]\n"
                              "def h(p):\n    return 'z'\n"),
               "b": ast.parse("from .a import P, Q, f, g, h\nprint(P, Q, f, g, h)\n")}
    # x is loaded, y named for getattr; z is named where no getattr runs,
    # w only stored, and Q is no dataclass
    assert dead_names(modules) == ["a.P.w", "a.P.z"]


def _is_unbounded_cache(node):
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name == "cache" for alias in node.names)
    if isinstance(node, ast.Attribute) and node.attr == "cache":
        return isinstance(node.value, ast.Name) and node.value.id == "functools"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "lru_cache":
            size = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            return any(isinstance(v, ast.Constant) and v.value is None for v in size)
    return False


def unbounded_caches(modules):
    """'module:line' of every functools.cache and every lru_cache(maxsize=None)."""
    return sorted(f"{stem}:{node.lineno}" for stem, tree in modules.items()
                  for node in ast.walk(tree) if _is_unbounded_cache(node))


def test_source_has_no_unbounded_cache():
    assert unbounded_caches(_modules()) == []


def test_scan_flags_unbounded_caches_only():
    modules = {"a": ast.parse("from functools import cache, lru_cache\n"
                              "@lru_cache(maxsize=None)\ndef f(n):\n    return n\n"
                              "@lru_cache(8)\ndef g(n):\n    return n\n"
                              "@lru_cache\ndef h(n):\n    return n\n"),
               "b": ast.parse("import functools\n"
                              "@functools.cache\ndef f(n):\n    return n\n"
                              "k = functools.lru_cache(None)(len)\n"
                              "@functools.lru_cache(maxsize=16)\ndef g(n):\n    return n\n")}
    assert unbounded_caches(modules) == ["a:1", "a:2", "b:2", "b:5"]
