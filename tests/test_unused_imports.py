"""No module under ``src/`` imports a name it never uses (Pyflakes F401).

CI lints with ``ruff check .``; this is the same rule in the standard
library, so a plain ``pytest`` run catches an unused import too.  An
import counts as used when its bound name is loaded anywhere in the
scope that imported it (nested functions and classes included), appears
in a parsed string annotation, or is listed in the module's ``__all__``.
``from __future__`` imports and redundant aliases (``import x as x``,
the explicit re-export form) are exempt, as in Pyflakes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope: ast.AST):
    """(bound name, line) of each import made directly in ``scope``, not
    in a nested function."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    yield alias.name.split(".")[0], node.lineno
                elif alias.asname != alias.name:
                    yield alias.asname, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield alias.asname or alias.name, node.lineno
        stack.extend(ast.iter_child_nodes(node))


def _annotations(tree: ast.AST):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            yield annotation


def _loaded_names(scope: ast.AST) -> set[str]:
    """Every name ``scope`` loads, in code and in string annotations."""
    names = {
        node.id for node in ast.walk(scope) if isinstance(node, ast.Name)
        and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(scope):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of every ``__all__ =`` / ``+=`` in the module."""
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported |= {
                    e.value for e in node.value.elts if isinstance(e, ast.Constant)
                }
    return exported


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import in ``source`` its scope never uses."""
    tree = ast.parse(source)
    exported = _exported(tree)
    unused = []
    for scope in ast.walk(tree):
        if scope is not tree and not isinstance(scope, _FUNCTIONS):
            continue
        imports = list(_own_imports(scope))
        if not imports:
            continue
        used = _loaded_names(scope)
        if scope is tree:
            used |= exported
        unused.extend((line, name) for name, line in imports if name not in used)
    return sorted(unused)


def test_the_check_finds_what_pyflakes_finds():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "from x import kept as kept\n"
        "from y import listed, quoted, shadowed\n"
        "__all__ = ['listed']\n"
        "def f(v: 'quoted') -> None:\n"
        "    import json\n"
        "    a.b.c()\n"
        "    shadowed = 1\n"
        "    return sys\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "shadowed"), (8, "json")]


def test_no_module_under_src_has_an_unused_import():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports (F401):\n" + "\n".join(found)
