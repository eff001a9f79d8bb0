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

A parameter default is an option, so it must have two values in use: some
call in ``src/rglat`` or ``scripts`` to a function of that name passes the
parameter, and another leaves it out.  A class is called by its own name, so
the defaults of its ``__init__`` and ``__new__`` are judged by the calls of
the class name.  A call with ``*args`` or ``**kwargs`` counts as passing
every parameter.

A parameter of a private function, or of a method of a private class, to
which every call by name passes the same literal is a constant in disguise.
A function with no such call, say one reached only through
``functools.partial``, is not judged.
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


_CONSTRUCTORS = ("__init__", "__new__")


def _defaults(tree: ast.Module):
    """(called name, parameter, positional index or None) per parameter default.

    The called name is the function's own, or the class's for a constructor.
    The index counts call arguments, so it skips ``self`` or ``cls`` on
    methods that are not static.
    """
    owner = {
        id(item): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = owner[id(node)] if node.name in _CONSTRUCTORS and id(node) in owner else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if id(node) in owner else 0
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield called, arg.arg, index - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield called, arg.arg, None


def _calls(tree: ast.Module):
    """(called name, call node) for every call by a plain or attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == param for k in call.keywords) or (index is not None and len(call.args) > index)


def _one_value_defaults(package: dict[str, ast.Module], program: list[ast.Module]) -> list[str]:
    """``module.name(parameter)`` per default in ``package`` not both passed and omitted by ``program``."""
    calls = [call for tree in program for call in _calls(tree)]
    one_value = []
    for stem, tree in package.items():
        for name, param, index in _defaults(tree):
            uses = {_passes(call, param, index) for called, call in calls if called == name}
            if uses != {True, False}:
                one_value.append(f"{stem}.{name}({param})")
    return one_value


def test_every_parameter_default_is_both_passed_and_omitted():
    package = {path.stem: _parse(path) for path in PACKAGE}
    assert _one_value_defaults(package, [_parse(path) for path in PROGRAM]) == []


CONSTRUCTOR_SOURCE = """
class Kept:
    def __init__(self, value, scale=1):
        self.value = value * scale

class Unused:
    def __new__(cls, value, *, exact=True):
        return super().__new__(cls)

def build(k, unused):
    return Kept(k), Kept(k, 2), Unused(k, exact=unused), Unused(k, exact=False)

def lone(value, scale=1):
    return Kept(value, scale=scale)
"""


def test_constructor_defaults_are_judged_by_calls_of_the_class_name():
    # Kept's scale is both passed and omitted; Unused's exact is always passed;
    # lone's scale is never called, so it has no second value either.
    tree = ast.parse(CONSTRUCTOR_SOURCE)
    flagged = sorted(_one_value_defaults({"synthetic": tree}, [tree]))
    assert flagged == ["synthetic.Unused(exact)", "synthetic.lone(scale)"]


def _private_parameters(tree: ast.Module):
    """(qualified name, function name, parameter, positional index or None) per parameter of a private function.

    Private functions are those at module level whose name starts with an
    underscore, and the methods of classes whose name does.  Dunder methods,
    ``self``/``cls`` and ``*args``/``**kwargs`` are skipped.
    """
    functions = [
        (node.name, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    functions.append((f"{node.name}.{item.name}", item, 0 if static else 1))
    for qualified, node, skip in functions:
        if _is_dunder(node.name):
            continue
        positional = node.args.posonlyargs + node.args.args
        for index, arg in enumerate(positional[skip:]):
            yield qualified, node.name, arg.arg, index
        for arg in node.args.kwonlyargs:
            yield qualified, node.name, arg.arg, None


def _passed(call: ast.Call, param: str, index: int | None):
    """The expression a call passes for the parameter, or None if it is left out or unpacked."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if index is None or index >= len(call.args) or any(isinstance(a, ast.Starred) for a in call.args[: index + 1]):
        return None
    return call.args[index]


def test_no_private_parameter_is_always_passed_one_literal():
    calls = [call for path in PROGRAM for call in _calls(_parse(path))]
    constant = []
    for path in PACKAGE:
        for qualified, name, param, index in _private_parameters(_parse(path)):
            passed = [_passed(call, param, index) for called, call in calls if called == name]
            if passed and all(isinstance(v, ast.Constant) for v in passed):
                if len({(type(v.value), v.value) for v in passed}) == 1:
                    constant.append(f"{path.stem}.{qualified}({param})")
    assert constant == []
