"""Every module of the package uses each name its top-level imports bind."""

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
