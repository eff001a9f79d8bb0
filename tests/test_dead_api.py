"""Every name the package defines must be used by the program itself.

A name defined at module level in ``src/rglat`` counts as used when code in
``src/rglat`` or ``scripts`` loads it anywhere other than its own
definition, either in its own module or through a ``from ... import`` of
that module, or when ``rglat.__all__`` exports it.  A function defined in a
class body counts as used when that code loads its name as an attribute,
since methods are reached through attributes; a local variable of the same
name does not count.  The check goes by name alone, so it errs towards
keeping a method.  Uses from ``tests/`` do not count: API that only tests
call is dead weight.
"""

import ast
from pathlib import Path

import rglat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "rglat").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _methods(tree: ast.Module):
    """(class name, function name) for each function defined in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name


def _imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module stem, name) for each ``from ... import``."""
    origin = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            stem = node.module.rpartition(".")[2]
            for alias in node.names:
                origin[alias.asname or alias.name] = (stem, alias.name)
    return origin


def _loads(path: Path):
    """(module stem, name) for every name the file loads."""
    tree = _parse(path)
    origin = _imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield origin.get(node.id, (path.stem, node.id))


def _loaded_attributes(path: Path):
    """Every attribute name the file loads."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_top_level_name_is_used_outside_tests():
    exported = _imports(_parse(ROOT / "src" / "rglat" / "__init__.py"))
    used = {exported[name] for name in rglat.__all__}
    for path in PROGRAM:
        used.update(_loads(path))
    unused = [
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in _top_level_names(_parse(path))
        if (path.stem, name) not in used and not _is_dunder(name)
    ]
    assert unused == []


def test_every_method_is_used_outside_tests():
    used = set()
    for path in PROGRAM:
        used.update(_loaded_attributes(path))
    unused = [
        f"{path.stem}.{cls}.{name}"
        for path in PACKAGE
        for cls, name in _methods(_parse(path))
        if name not in used and not _is_dunder(name)
    ]
    assert unused == []
