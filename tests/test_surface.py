"""Every library name serves a command, a row or a benchmark.

The walk reads the top-level functions, classes and constants of each
``gderive`` module with ``ast``, and the functions defined in the body of
each top-level class, public and ``_private`` alike; dunders such as
``__version__`` or ``__eq__`` are exempt. A name passes when code (a name
read, an attribute or an import alias, never a string) uses it in another
``gderive`` module, elsewhere in its own module, or in ``perfbench/*.py``.
Tests do not count as users: a name that only tests reach belongs on the
allowlist below, with the reason the tests keep it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gderive"

# Reference code that tests compare against or build fixtures with.
KEPT_FOR_TESTS = {
    "derivations.is_derivation_pair":
        "checks the defining identity apart from the assembler",
    "algebra.ad": "builds the inner automorphisms of the hypothesis strategies",
    "algebra.algebra_to_json_dict": "writes the algebra files of the CLI tests",
    "linalg.rref": "the row reduction the acceptance tests compare spans with",
    "linalg.solve": "solves the dense reference grid of the quasiderivation test",
    "sl2.Component.evaluate":
        "specialises p2 at sample points in the acceptance tests' reference code",
    "polynomials.MultiPoly.leading_term":
        "drives the acceptance tests' reference S-polynomial and division",
}

# Names that a user reads from code held in a string, which the walk
# cannot see.
READ_FROM_STRINGS = {
    "_kernels.BACKEND":
        "perfbench/run.py prints it from the environment probe it runs",
}


def _used_names(nodes) -> set:
    names = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
    return names


def _defined_names(node) -> list:
    """The names a top-level statement defines: a function, a class, or
    the plain targets of a module constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    ]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(node: ast.ClassDef) -> list:
    """The functions defined in a class body, dunders left out."""
    return [
        member for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _is_dunder(member.name)
    ]


def _module_name(path: Path) -> str:
    relative = path.relative_to(PACKAGE).with_suffix("")
    parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
    return ".".join(parts) or "gderive"


def unreached_names() -> list:
    modules = {
        _module_name(path): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    perfbench = _used_names(
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    others = {
        name: _used_names(tree for other, tree in modules.items() if other != name)
        for name in modules
    }
    unreached = []
    for name, tree in modules.items():
        for node in tree.body:
            defined = [n for n in _defined_names(node) if not _is_dunder(n)]
            if not defined:
                continue
            own = _used_names(other for other in tree.body if other is not node)
            users = own | others[name] | perfbench
            unreached += [f"{name}.{n}" for n in defined if n not in users]
            if isinstance(node, ast.ClassDef):
                for member in _methods(node):
                    inside = _used_names(m for m in node.body if m is not member)
                    if member.name not in users | inside:
                        unreached.append(f"{name}.{node.name}.{member.name}")
    return unreached


def test_every_public_name_is_reached_or_kept_for_tests():
    assert sorted(unreached_names()) == sorted(
        KEPT_FOR_TESTS.keys() | READ_FROM_STRINGS.keys()
    )


def test_walk_covers_private_names_and_constants():
    names = {
        node_name
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for node_name in _defined_names(node)
    }
    assert {"X_VARS", "_VANISHING_PARAMS", "_raw_ideal", "Sl2Family"} <= names
    assert "__version__" in names
