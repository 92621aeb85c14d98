"""Every library name serves a command, a row or a benchmark.

The walk reads the top-level functions, classes and constants of each
``gderive`` module with ``ast``, and the functions defined in the body of
each top-level class, public and ``_private`` alike; dunders such as
``__version__`` or ``__eq__`` are exempt, because the interpreter and the
operators reach them with no name to read. A top-level name passes when
code uses it (a name read, an attribute or an import alias, never a
string) in another ``gderive`` module, elsewhere in its own module, or in
``perfbench/*.py``. A method passes only through an attribute read
(``x.name``): a local variable that shares its name does not reach it.

Only reads in live code count. The walk repeats until nothing changes,
and each round drops the definitions that the previous round found
unreached, so a read inside dead code keeps nothing alive. Tests do not
count as users: a name that only tests reach belongs on the allowlist
below, with the reason the tests keep it, and reads inside it count for
nothing either.

An attribute read cannot tell apart two classes' methods of one name, so
every method name defined in more than one class is listed in
``SHARED_METHOD_NAMES``, with a line of live library code that reaches
each class's method.
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
    "sl2.Component.evaluate":
        "specialises p2 at sample points in the acceptance tests' reference code",
    "sl2._constant_value":
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

# For each method name defined in two or more classes: per class, a line
# of library code ("module: stripped line") that calls that class's method.
SHARED_METHOD_NAMES = {
    "_combine": {
        "linalg.Matrix": "linalg: return self._combine(other, add)",
        "polynomials.MultiPoly": "polynomials: return self._combine(other, 1)",
    },
    "dim": {
        "derivations.DerivationSpace":
            "hilbert: return derivation_space(g, power, kind=kind).dim",
        "linalg.Subspace":
            "sl2: return FixedDimensionReport(f.tag, fixed.values, space.dim, basis, 4)",
    },
    "identity": {
        "linalg.Matrix": "hilbert: dims = {0: dim(Matrix.identity(sigma.matrix.rows))}",
        "algebra.Automorphism":
            "reproduce: space = derivation_space(g, Automorphism.identity(g))",
    },
    "is_zero": {
        "linalg.Matrix": "sl2: nilpotent = d3.is_zero()",
        "polynomials.MultiPoly":
            "polynomials: return remainder(p, groebner(ideal, guard)).is_zero",
    },
    "zero": {
        "linalg.Matrix":
            "linalg: return Matrix.from_rows(entries) if rows else Matrix.zero(0, cols)",
        "polynomials.MultiPoly": "polynomials: return MultiPoly.zero(self.variables)",
    },
}


class Piece:
    """A stretch of code and what it reads. ``labels`` are the names it
    defines (none for code that always runs, such as imports); ``owner``
    is its top-level statement; ``method`` is set for a class's function."""

    def __init__(self, module, nodes, labels=(), owner=None, method=None):
        self.module = module
        self.labels = list(labels)
        self.owner = owner
        self.method = method
        self.names = set()
        self.attrs = {}  # attribute name -> line numbers of its reads
        for tree in nodes:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    self.names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    self.attrs.setdefault(node.attr, set()).add(node.lineno)
                elif isinstance(node, ast.alias):
                    self.names.add(node.name.rpartition(".")[2])
                    if node.asname:
                        self.names.add(node.asname)

    def reads(self, name: str) -> bool:
        """Whether this piece reads the name, as a top-level name may be."""
        return name in self.names or name in self.attrs


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


def _is_method(member) -> bool:
    """A function in a class body that only an attribute read reaches:
    any but a dunder."""
    return isinstance(
        member, (ast.FunctionDef, ast.AsyncFunctionDef)
    ) and not _is_dunder(member.name)


def _module_name(path: Path) -> str:
    relative = path.relative_to(PACKAGE).with_suffix("")
    parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
    return ".".join(parts) or "gderive"


def _sources() -> dict:
    return {
        _module_name(path): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _modules() -> dict:
    return {name: ast.parse(source) for name, source in _sources().items()}


def _pieces(modules: dict) -> list:
    pieces = [
        Piece("perfbench", [ast.parse(path.read_text(encoding="utf-8"))])
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    ]
    for name, tree in modules.items():
        for node in tree.body:
            defined = [n for n in _defined_names(node) if not _is_dunder(n)]
            if not isinstance(node, ast.ClassDef):
                labels = [f"{name}.{n}" for n in defined]
                pieces.append(Piece(name, [node], labels, node))
                continue
            methods = [m for m in node.body if _is_method(m)]
            rest = node.bases + node.keywords + node.decorator_list + [
                m for m in node.body if not _is_method(m)
            ]
            pieces.append(Piece(name, rest, [f"{name}.{node.name}"], node))
            pieces += [
                Piece(name, [m], [f"{name}.{node.name}.{m.name}"], node, m.name)
                for m in methods
            ]
    return pieces


def _unreached(piece: Piece, live: list) -> list:
    """The labels of the piece that no other live piece reads."""
    if piece.method is not None:
        reached = any(
            piece.method in other.attrs for other in live if other is not piece
        )
        return [] if reached else piece.labels
    others = [other for other in live if other.owner is not piece.owner]
    return [
        label for label in piece.labels
        if not any(other.reads(label.rpartition(".")[2]) for other in others)
    ]


def _walk():
    """(unreached labels, live pieces) once no round drops anything more."""
    live = _pieces(_modules())
    dropped = []
    while True:
        unreached = {id(p): _unreached(p, live) for p in live}
        dead = [p for p in live if p.labels and unreached[id(p)] == p.labels]
        if not dead:
            found = dropped + [label for labels in unreached.values() for label in labels]
            return sorted(found), live
        dropped += [label for p in dead for label in p.labels]
        live = [p for p in live if p not in dead]


def test_every_public_name_is_reached_or_kept_for_tests():
    assert _walk()[0] == sorted(
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


def test_shared_method_names_each_name_a_live_caller():
    modules = _modules()
    owners = {}
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for member in filter(_is_method, node.body):
                    owners.setdefault(member.name, set()).add(f"{name}.{node.name}")
    shared = {method: classes for method, classes in owners.items() if len(classes) > 1}
    assert {m: set(c) for m, c in SHARED_METHOD_NAMES.items()} == shared
    _, live = _walk()
    sources = _sources()
    for method, callers in SHARED_METHOD_NAMES.items():
        for cls, caller in callers.items():
            module, _, text = caller.partition(": ")
            lines = [
                number
                for number, line in enumerate(sources[module].splitlines(), 1)
                if line.strip() == text
            ]
            assert lines, f"{cls}.{method}: no line {text!r} in {module}"
            assert any(
                number in piece.attrs.get(method, ())
                for piece in live if piece.module == module
                for number in lines
            ), f"{cls}.{method}: {text!r} reads no .{method} in live code"


def test_perfbench_extra_names_exist():
    """The functions that perfbench/harness.py wraps by name (``EXTRA``)
    must exist, or its self-test reports them as not traced."""
    harness = ast.parse((ROOT / "perfbench" / "harness.py").read_text(encoding="utf-8"))
    extra = next(
        node.value for node in harness.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "EXTRA" for t in node.targets)
    )
    paths = [tuple(ast.literal_eval(item)) for item in extra.elts]
    assert paths
    modules = _modules()
    for layer, path in paths:
        scope = modules[layer].body
        for part in path.split("."):
            found = [
                node for node in scope
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
            ]
            assert found, f"perfbench EXTRA names {layer}.{path}, which is gone"
            scope = found[0].body
