"""Every public name defined in `src/commcycles` is read outside its own
definition: by package code, by a python block of the README or by
`perfbench/`.  A name that only the tests reach is dead weight.

The scan is by `ast`.  A name counts as read where it appears as a `Name`
in `Load` context or as the attribute of an `Attribute` node.  An import
binds a name without reading it, so a re-export in `__init__.py` does not
count, nor does a string in `__all__` or one passed to `getattr`.  The
scan matches names, not objects: a method that shares its name with
something else that is read (numpy's `.mean()`, a local variable
`identity`) looks used even when it is not, so such a name can hide an
unused method.

Likewise every default of a parameter is overridden by some call outside
the tests, and left in place by another.  A default that no caller changes
is an option that only tests reach; one that every caller overrides is a
default that only tests rely on.  Calls are matched by the name called, so
they too can hide one either way.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "commcycles").glob("*.py"))


def _readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def _trees() -> list[ast.AST]:
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))]
    return [ast.parse(s) for s in sources + _readme_blocks()]


def _definitions() -> dict[str, list[str]]:
    """Public module-level functions, classes and constants, and public
    methods, of every package module: name -> where it is defined."""
    found: dict[str, list[str]] = {}

    def add(name, where):
        if not name.startswith("_"):
            found.setdefault(name, []).append(where)

    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                add(node.name, f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        add(item.name, f"{path.stem}.{node.name}.{item.name}")
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        add(target.id, f"{path.stem}.{target.id}")
    return found


def _reads() -> set[str]:
    out = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_public_name_is_read_outside_the_tests():
    reads = _reads()
    unused = sorted(where for name, places in _definitions().items() if name not in reads for where in places)
    assert not unused, f"defined in src/ but read only from tests, if at all: {unused}"


def test_the_scan_sees_the_package():
    definitions = _definitions()
    assert {"CyclePGF", "coefficient", "RationalPoly", "main", "CHARACTER_MAX_M"} <= definitions.keys()
    assert {"_poly", "__call__", "__all__"}.isdisjoint(definitions)
    assert {"one_cycle_pgf", "coeffs", "hultman_row"} <= _reads()


def _defaulted_parameters() -> list[tuple[str, int | None, str]]:
    """(function, positional index or None if keyword-only, parameter) for every
    parameter with a default of every non-dunder function or method in the
    package, nested ones included.  A method's index does not count `self`."""
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            shift = 1 if id(node) in methods and not static else 0
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            found += [(node.name, i - shift, a.arg) for i, a in enumerate(positional) if i >= first]
            found += [(node.name, None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
    return found


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call may set the parameter: by position, by keyword, or through * or **."""
    keywords = {k.arg for k in call.keywords}
    if name in keywords or None in keywords:
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return index is not None and (starred or len(call.args) > index)


def _calls() -> dict[str, list[ast.Call]]:
    """Every call outside the tests, keyed by the name called."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def test_every_default_is_overridden_outside_the_tests():
    calls = _calls()
    never = sorted(
        f"{fn}({param})"
        for fn, index, param in _defaulted_parameters()
        if not any(_passes(call, index, param) for call in calls.get(fn, ()))
    )
    assert not never, f"defaults that no call in src/, perfbench/ or the README overrides: {never}"


def test_every_default_is_relied_on_outside_the_tests():
    calls = _calls()
    always = sorted(
        f"{fn}({param})"
        for fn, index, param in _defaulted_parameters()
        if all(_passes(call, index, param) for call in calls.get(fn, ()))
    )
    assert not always, f"defaults that every call in src/, perfbench/ and the README overrides: {always}"


def test_the_parameter_scan_sees_defaults():
    params = {(fn, param) for fn, _, param in _defaulted_parameters()}
    assert {("exact_commutator_distribution", "cap"), ("_emit", "csv_rows"), ("_estimate", "dtype")} <= params
    assert ("__init__", "mapping") not in params and ("_estimate", "identity") not in params
