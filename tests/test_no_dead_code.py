"""Dead-code guard over the library, with the standard library's ``ast``.

Two rules, for every module of ``sheafmealy`` but the re-exports of
``__init__.py``:

* every name a module imports is used in that module;
* every module-level private function, class or constant is referenced
  somewhere in the library other than its own definition.
"""

import ast
from pathlib import Path

import sheafmealy

SRC = Path(sheafmealy.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _loaded(node: ast.AST) -> set[str]:
    """Names read in ``node``: loaded variables, attributes, and names
    imported from another module."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _private_definitions(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_import_is_used():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        used = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.module == "__future__":
                continue
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_every_private_module_name_is_referenced():
    statements = [stmt for tree in _trees().values() for stmt in tree.body]
    reads = [_loaded(stmt) for stmt in statements]
    unreferenced = [
        name
        for k, stmt in enumerate(statements)
        for name in _private_definitions(stmt)
        if not any(name in r for j, r in enumerate(reads) if j != k)
    ]
    assert not unreferenced, unreferenced
