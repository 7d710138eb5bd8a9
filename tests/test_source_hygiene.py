"""Dead names and import boundaries in the package.

Dead names are imports, locals and parameters nobody reads.  The checks
read the source with `ast` only.  `__init__.py` is exempt from the import
check, since its imports are the package's re-exports, and so is
`from __future__`.  A local or parameter whose name starts with `_` is
unread on purpose, as in `_, x = pair`.  So are `self` and `cls`, and the
parameters of callbacks whose signature the caller fixes: the application
hooks `on_tick` and `on_message`, the suites' `on_step` and `summarise`,
and lambdas.

The boundaries: `core` imports nothing from the package, `layer` imports
only `core` at run time, and protocol code (`kernel`, `layer`, `departure`,
`rules`) and the applications (`apps`) never import the oracle or the
suites, which are test equipment that read global state.

A relay's In set keeps a key index that only its own edits keep current,
so no code under `src/` or `tests/` assigns a relay's `in_set` attribute
(augmented assignment edits the set in place and is allowed); the relay
builds its set itself.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = "relaysim"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / PACKAGE
MODULES = sorted(p.name for p in SRC.glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_CALLBACKS = {"on_tick", "on_message", "on_step", "summarise"}


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


def package_imports(tree: ast.Module) -> set:
    """`(module, at_run_time)` for each import of a package module in `tree`.

    `from .core import X`, `from . import core` and `import relaysim.core`
    all name `core`; an import under `if TYPE_CHECKING:` does not run.
    """
    typing_only = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
        for stmt in node.body
        for sub in ast.walk(stmt)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == PACKAGE):
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            modules = parts[:1] if parts and parts[0] else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith(PACKAGE + ".")]
        else:
            continue
        found |= {(m, id(node) not in typing_only) for m in modules}
    return found


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


def unread_params(tree: ast.Module) -> list:
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name not in _CALLBACKS:
            a = func.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            reads = _reads(func)
            found += [
                f"{func.name}:{n}" for n in params
                if n not in reads and n not in ("self", "cls") and not n.startswith("_")
            ]
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_read(module):
    assert unread_imports(module) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_function_binds_a_local_it_never_reads(module):
    assert unread_locals(module) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_parameter_it_never_reads(module):
    assert unread_params(_tree(module)) == []


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
    params = ast.parse(
        "class C:\n"
        "    def m(self, used, unused, _spare, *rest, key=None, **extra):\n"
        "        return lambda ignored: used + key\n"
        "    def on_tick(self, ctx):\n"
        "        pass\n"
    )
    assert unread_params(params) == ["m:unused", "m:rest", "m:extra"]


def test_core_imports_nothing_from_the_package():
    assert package_imports(_tree("core.py")) == set()


def test_layer_imports_only_core_at_run_time():
    assert {m for m, at_run_time in package_imports(_tree("layer.py")) if at_run_time} == {"core"}


@pytest.mark.parametrize("module", ["kernel.py", "layer.py", "departure.py", "rules.py", "apps.py"])
def test_protocol_code_never_imports_the_oracle_or_the_suites(module):
    assert not {m for m, _ in package_imports(_tree(module))} & {"oracle", "suites"}


def in_set_rebinds(tree: ast.AST) -> list:
    """Line numbers of the statements and calls that assign an `in_set`
    attribute: `x.in_set = ...` (a target of a plain or annotated
    assignment, unpacking included), `setattr(x, "in_set", ...)`, and an
    `in_set=` keyword."""
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            named = isinstance(node.func, ast.Name) and node.func.id == "setattr"
            if named and len(node.args) > 1 and getattr(node.args[1], "value", None) == "in_set":
                found.append(node.lineno)
            found += [node.lineno for kw in node.keywords if kw.arg == "in_set"]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "in_set":
                    found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path", sorted(p.relative_to(ROOT).as_posix() for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
)
def test_nothing_rebinds_a_relays_in_set(path):
    assert in_set_rebinds(ast.parse((ROOT / path).read_text(), filename=path)) == []


def test_the_rebind_check_sees_every_form():
    source = (
        "r.in_set = set()\n"
        "a, b.in_set = 1, set()\n"
        "r.in_set: set = set()\n"
        "setattr(r, 'in_set', set())\n"
        "Relay(id, in_set=set())\n"
        "r.in_set -= stale\n"
        "r.in_set |= fresh\n"
        "r.in_set.add(e)\n"
        "in_set = r.in_set\n"
    )
    assert in_set_rebinds(ast.parse(source)) == [1, 2, 3, 4, 5]


def test_the_import_reader_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import json, relaysim.suites\n"
        "from . import oracle, rules\n"
        "from .core import Key\n"
        "from relaysim.apps import IdleApp\n"
        "if TYPE_CHECKING:\n"
        "    from .kernel import WorldState\n"
        "def f():\n"
        "    from .layer import RelayLayer\n"
    )
    assert package_imports(ast.parse(source)) == {
        ("suites", True), ("oracle", True), ("rules", True), ("core", True),
        ("apps", True), ("kernel", False), ("layer", True),
    }
