"""Source hygiene checked with the standard library's ``ast``: no module of
the package imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fusionkit

PACKAGE = Path(fusionkit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded elsewhere in the
    module.  Names listed in ``__all__`` count as used (re-exports), and so
    does any ``from __future__`` import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    # Quoted annotations such as "FusionSystem" use the names inside them.
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        for const in ast.walk(note) if note is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                expr = ast.parse(const.value, mode="eval")
                used |= {n.id for n in ast.walk(expr)
                         if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = ("import os\n"
           "from typing import Optional\n"
           "from m import A, B\n"
           "def f(a: 'A') -> Optional[int]:\n"
           "    '''B'''\n")
    assert unused_imports(src) == ["B (line 3)", "os (line 1)"]
