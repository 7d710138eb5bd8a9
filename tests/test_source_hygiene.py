"""Dead names in the package: imports nobody reads and locals nobody reads.

Both checks read the source with `ast` only.  `__init__.py` is exempt from
the import check, since its imports are the package's re-exports, and so is
`from __future__`.  A local whose name starts with `_` is unread on purpose,
as in `_, x = pair`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "relaysim"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def _reads(node: ast.AST) -> set:
    """Every name loaded anywhere under `node`, quoted annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        hint = getattr(sub, "returns", None) or getattr(sub, "annotation", None)
        if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
            names |= _reads(ast.parse(hint.value, mode="eval"))
    return names


def _own_stores(func: ast.AST) -> set:
    """Names `func` binds in its own scope: not its parameters, and nothing
    bound inside a nested function or class."""
    names, outer, todo = set(), set(), list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names - outer


def unread_imports(name: str) -> list:
    tree = _tree(name)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    reads = _reads(tree)
    return sorted(n for n in imported if n not in reads)


def unread_locals(name: str) -> list:
    found = []
    for func in ast.walk(_tree(name)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads = _reads(func)
            found += [f"{func.name}:{n}" for n in sorted(_own_stores(func)) if n not in reads and not n.startswith("_")]
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_read(module):
    assert unread_imports(module) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_function_binds_a_local_it_never_reads(module):
    assert unread_locals(module) == []


def test_the_checks_see_what_they_look_for():
    source = (
        "import os\nfrom typing import Optional\n"
        "def f(arg) -> 'Optional[int]':\n"
        "    dead, _spare = 1, 2\n"
        "    for idx, x in enumerate(arg):\n"
        "        print(x)\n"
        "    def g():\n"
        "        inner = 3\n"
        "    return g\n"
    )
    tree = ast.parse(source)
    assert sorted(_own_stores(tree.body[2]) - _reads(tree.body[2])) == ["_spare", "dead", "idx"]
    assert "os" not in _reads(tree) and "Optional" in _reads(tree)
