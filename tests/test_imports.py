"""Every module of the package uses each name its top-level imports bind, and the package reads each top-level name."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gcum"


def _imported(tree):
    """Each name a module-level import binds, with its line; imports under a top-level ``if`` count too."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):  # ``if TYPE_CHECKING:``, ``try: import ...``
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def _used(tree):
    """Every name the module reads, in string annotations too, and every name its ``__all__`` lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotation = getattr(node, "returns" if isinstance(node, ast.FunctionDef) else "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    assert [f"line {line}: {name}" for name, line in _imported(tree) if name not in used] == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "from typing import TYPE_CHECKING\n"
                     "import os.path\n"
                     "from functools import lru_cache, partial as p\n"
                     "if TYPE_CHECKING:\n"
                     "    from .synthdata import Dataset, GroupSample\n"
                     "__all__ = ['lru_cache']\n"
                     "def f(ds: 'Dataset') -> None:\n"
                     "    return os.sep\n")
    used = _used(tree)
    assert sorted(name for name, _ in _imported(tree) if name not in used) == ["GroupSample", "p"]


def _defined(tree):
    """Each top-level function, class and constant a module binds, with its line; dunder names are exempt."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in names if not (name.startswith("__") and name.endswith("__")))


def _unread(trees):
    """The top-level names of ``trees`` (file name: module) that none of them reads as a name, attribute or import."""
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return [f"{file} line {line}: {name}" for file, tree in trees.items()
            for name, line in _defined(tree) if name not in read]


def _package():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def test_every_top_level_name_is_read_in_the_package():
    trees = _package()
    assert len([name for tree in trees.values() for name in _defined(tree)]) > 150
    assert _unread(trees) == []


def test_an_unread_top_level_name_is_found():
    planted = ast.parse("from .diffcore import gather_rows\n"
                        "from . import cli\n"
                        "__all__ = ['_unread_helper']\n"
                        "_LIMIT, _SPARE = 3, 4\n"
                        "_STEP: float = 0.5\n"
                        "def _unread_helper():\n"
                        "    return _LIMIT + _STEP\n"
                        "class Read:\n"
                        "    def method(self):\n"
                        "        return cli.main, gather_rows\n"
                        "def _called():\n"
                        "    return Read\n"
                        "def _planted_entry():\n"
                        "    _called()\n")
    assert _unread({**_package(), "planted.py": planted}) == ["planted.py line 4: _SPARE",
                                                               "planted.py line 6: _unread_helper",
                                                               "planted.py line 13: _planted_entry"]
