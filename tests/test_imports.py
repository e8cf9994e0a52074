"""Every name a module imports is used in that module, every private
module-level name is used somewhere in the package, and every method is
named somewhere in the package, its tests or its benchmark.

``__init__.py`` is left out of the import check: it imports names in order
to re-export them.
"""

import ast
from pathlib import Path

import pytest

import ysym

PACKAGE = sorted(Path(ysym.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def _private_definitions(tree: ast.Module):
    """(name, statement) for each module-level function, class or constant
    whose name starts with a single underscore."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _referenced_names(stmt: ast.stmt) -> set[str]:
    """Names read, attributes taken and names imported in one statement."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_private_name_is_used():
    # a private helper that nothing else in the package names is dead code
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE]
    references = [(stmt, _referenced_names(stmt)) for tree in trees for stmt in tree.body]
    unused = [
        f"{path.name}:{name}"
        for path, tree in zip(PACKAGE, trees)
        for name, definition in _private_definitions(tree)
        if not any(name in refs for stmt, refs in references if stmt is not definition)
    ]
    assert unused == []


ROOT = Path(__file__).resolve().parents[1]


def _foreign_modules(tree: ast.Module) -> set[str]:
    """Names a file binds by importing from outside ysym."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name for a in node.names if a.name.split(".")[0] != "ysym")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] not in ("ysym", "__future__"):
                names.update(a.asname or a.name for a in node.names)
    return names


def _method_references(tree: ast.Module) -> set[str]:
    """Attributes taken, except of modules from outside ysym (the benchmark's
    ``run.scaled`` is no method of a ysym class), and identifier strings,
    which name the methods that the benchmark hooks."""
    foreign = _foreign_modules(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_method_is_named():
    # a method that no code calls, hooks or tests is dead code
    named = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            named |= _method_references(ast.parse(path.read_text(), filename=str(path)))
    unnamed = [
        f"{path.name}:{cls.name}.{stmt.name}"
        for path in PACKAGE
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and stmt.name not in named
    ]
    assert unnamed == []


def _reduce_sites(tree: ast.Module):
    """The module-level definition around each use of functools.reduce."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found = any(a.name == "reduce" for a in node.names)
            else:
                found = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "reduce"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"
                )
            if found:
                yield getattr(stmt, "name", "<module>")


def test_one_factor_chain():
    # every product of a factor list goes through algebra._chain
    sites = [
        f"{path.name}:{name}"
        for path in PACKAGE
        for name in _reduce_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert sites == ["algebra.py:_chain"]
