"""Dead-code guard over the library, with the standard library's ``ast``.

Five rules, for every module of ``sheafmealy`` but the re-exports of
``__init__.py``:

* every name a module imports is used in that module;
* every module-level private function, class or constant is referenced
  somewhere in the library other than its own definition;
* every annotated field of a dataclass is read as an attribute somewhere
  in the library, its tests or its benchmark (matched by name);
* every public method or property of a class is read as an attribute
  somewhere in the library or its benchmark;
* every function that ``__init__.py`` exports is read somewhere in the
  library other than its own definition, or by the benchmark: named in
  ``TRACED`` of ``bench/tracing.py``, read as an attribute of a
  ``sheafmealy`` module or imported from one.  A name that the benchmark
  imports from its own ``oracles`` does not count.

There are no exceptions: a helper or method that only the tests call
belongs in ``tests/``.
"""

import ast
import inspect
from pathlib import Path

import sheafmealy

SRC = Path(sheafmealy.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _trees() -> dict[str, ast.Module]:
    return {p.name: _parse(p) for p in sorted(SRC.glob("*.py"))}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _read_attributes(*folders: Path) -> set[str]:
    return {sub.attr
            for folder in folders
            for path in sorted(folder.glob("*.py"))
            for sub in ast.walk(_parse(path))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # Tests count: a field is output; c06 reads TameCounterexample.assignments, src never does.
    read = _read_attributes(SRC, ROOT / "tests", BENCH)
    unread = [
        f"{name}: {cls.name}.{stmt.target.id}"
        for name, tree in _trees().items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]
    assert not unread, unread


def test_every_public_method_is_read():
    read = _read_attributes(SRC, BENCH)
    unread = [
        f"{name}: {cls.name}.{stmt.name}"
        for name, tree in _trees().items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_") and stmt.name not in read
    ]
    assert not unread, unread


def _root(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _benchmark_reads() -> set[str]:
    """Names the benchmark reads off the library: ``TRACED`` strings,
    attributes of a bound ``sheafmealy`` module, and names imported from
    one."""
    traced = next(stmt.value for stmt in _parse(BENCH / "tracing.py").body
                  if isinstance(stmt, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in stmt.targets))
    reads = {sub.value for sub in ast.walk(traced)
             if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    for path in sorted(BENCH.glob("*.py")):
        tree = _parse(path)
        modules = set()
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and (sub.module or "").split(".")[0] == "sheafmealy":
                reads.update(alias.name for alias in sub.names)
                modules.update(alias.asname or alias.name for alias in sub.names)
            elif isinstance(sub, ast.Import):
                modules.update(alias.asname or alias.name.split(".")[0] for alias in sub.names
                               if alias.name.split(".")[0] == "sheafmealy")
        reads.update(sub.attr for sub in ast.walk(tree)
                     if isinstance(sub, ast.Attribute) and _root(sub.value) in modules)
    return reads


def test_every_exported_function_is_reached():
    trees = _trees()
    exported = [alias.name
                for stmt in trees.pop("__init__.py").body if isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names
                if inspect.isfunction(getattr(sheafmealy, alias.asname or alias.name))]
    library = [(getattr(stmt, "name", None), _loaded(stmt))
               for tree in trees.values() for stmt in tree.body]
    reached = _benchmark_reads() | {
        name for defined, reads in library for name in reads if name != defined}
    unreached = sorted(set(exported) - reached)
    assert not unreached, unreached
