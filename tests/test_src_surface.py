"""The package ships only what a run executes.

Every function and method defined under ``src/icnsim`` must be named
somewhere a run or the benchmark reaches it: elsewhere in the package, in
``perfbench/`` (which wraps program attributes by their string names) or
as an entry point in ``pyproject.toml``. A re-export in ``__init__.py``
is an import, not a use, so it does not count. Helpers that only tests
call belong under ``tests/``. Names are matched bare, as an identifier, an
attribute or a whole string constant, so a definition passes when another
one shares its name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icnsim"

# Qualified name -> why it stays although no run names it.
ALLOWED = {
    "Network.remove_link": "a fixture of the FIFO property model in test_simnet.py: "
                           "traffic in flight on a removed link",
}


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, bare name) of every function and method, nested
    ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _references(tree: ast.AST, bare: bool = True) -> set[str]:
    """Attributes, whole string constants and, with ``bare``, identifiers.
    Names imported from ``icnsim`` count in every file."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and bare:
            out.add(node.id)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("icnsim"):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced(allowed=ALLOWED) -> list[str]:
    """``module.py:qualname`` of every definition nothing names, apart
    from those in ``allowed``."""
    trees = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    named = set()
    for tree in trees.values():
        named |= _references(tree)
    # A bare identifier in the benchmark is its own code, such as its
    # ``child`` function, not the program's.
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        named |= _references(_parse(path), bare=False)
    named |= set(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    out = []
    for path, tree in trees.items():
        for qualname, name in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in named and qualname not in allowed:
                out.append("%s:%s" % (path.name, qualname))
    return out


def test_every_package_function_is_named_by_a_run_or_the_benchmark():
    assert unreferenced() == []


def test_allow_list_holds_only_definitions_nothing_names():
    assert sorted(q.split(":")[1] for q in unreferenced({})) == sorted(ALLOWED)
