"""Dead names in the package source: unread imports, unread module globals.

A name counts as read when some module of the package loads it, as a bare
name or as an attribute, or exports it through __all__.  The scan works by
name, not by module, so it can miss a dead name that shares its spelling
with a live one; it never flags a live one.
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


def _reads(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names | _exports(tree)


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


def dead_names(modules):
    """'module.name' for every unread import and every unread module global."""
    everywhere = set().union(*(_reads(tree) for tree in modules.values()))
    dead = []
    for stem, tree in modules.items():
        local = _reads(tree)
        dead += [f"{stem}.{name}" for name in _imported(tree) if name not in local]
        dead += [f"{stem}.{name}" for name in _module_globals(tree)
                 if not name.startswith("__") and name not in everywhere]
    return sorted(dead)


def test_source_has_no_dead_names():
    assert dead_names(_modules()) == []


def test_scan_flags_both_kinds_of_dead_name():
    modules = {"a": ast.parse("import os\nfrom .b import f\n__all__ = ['g']\n"
                              "def g():\n    return f()\n"),
               "b": ast.parse("import sys\nKINDS = (1, 2)\ndef f():\n    return 1\n")}
    assert dead_names(modules) == ["a.os", "b.KINDS", "b.sys"]
