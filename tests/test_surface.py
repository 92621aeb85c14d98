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
So does a field of a ``Record`` subclass (an annotated name in its class
body): a field that only its constructor sets has no reader, and neither
has one whose every read is an argument of its own class's constructor,
which only copies it into the next instance. A read of the parsed
command line, ``args.name`` in a ``cmd_*`` handler, reaches no field or
method of that name.

Only reads in live code count. The walk repeats until nothing changes,
and each round drops the definitions that the previous round found
unreached, so a read inside dead code keeps nothing alive. Tests do not
count as users: a name that only tests reach belongs on the allowlist
below, with the reason the tests keep it, and reads inside it count for
nothing either.

An attribute read cannot tell apart two classes' members of one name, so
every method or field name defined in more than one class is listed in
``SHARED_METHOD_NAMES``, with a line of live library code that reaches
each class's member.

The operators reach a dunder such as ``__add__`` with no attribute to
read, so ``OPERATOR_CALLERS`` names, for each arithmetic operator a
library class defines, a line of live library code that applies it.
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
    "polynomials.MultiPoly.leading_term":
        "drives the acceptance tests' reference S-polynomial and division",
}

# Names that a user reads from code held in a string, which the walk
# cannot see.
READ_FROM_STRINGS = {
    "_kernels.BACKEND":
        "perfbench/run.py prints it from the environment probe it runs",
}

# For each method or field name defined in two or more classes: per
# class, a line of library code ("module: stripped line") that reads that
# class's member.
SHARED_METHOD_NAMES = {
    "_combine": {
        "linalg.Matrix": "linalg: return self._combine(other, add)",
        "polynomials.MultiPoly": "polynomials: return self._combine(other, 1)",
    },
    "basis": {
        "derivations.DerivationSpace": "reproduce: for m in space.basis:",
        "linalg.Subspace":
            'cli: "basis": [_vector_list(v) for v in report.intersection.basis],',
        "sl2.FixedDimensionReport": 'cli: "basis": _basis_dicts(fixed.basis),',
    },
    "dim": {
        "algebra.LieAlgebra": "derivations: n = g.dim",
        "derivations.DerivationSpace":
            "hilbert: return _solve(g, m, ident, kind, ()).dim",
        "linalg.Subspace":
            "sl2: return FixedDimensionReport(space.dim, square_maps(space.rows, 3), claim)",
    },
    "den": {
        "linalg.Matrix": "linalg: den = self.rows.den",
        "polynomials.MultiPoly": "polynomials: if lead == self.den:",
    },
    "dimension": {
        "derivations.IntersectionReport": 'cli: "dimension": report.dimension,',
        "sl2.ComponentVerdict": 'cli: "dimension": verdict.dimension,',
        "sl2.FixedDimensionReport": 'cli: "dimension": fixed.dimension,',
    },
    "finite_order": {
        "hilbert.GradedDims": "hilbert: if gd.finite_order is not None:",
        "hilbert.RationalSeries": "hilbert: if self.finite_order is not None:",
    },
    "is_zero": {
        "linalg.Matrix": "sl2: nilpotent = d3.is_zero()",
        "polynomials.MultiPoly":
            "polynomials: return remainder(p, basis.generators).is_zero",
    },
    "kind": {
        "derivations.DerivationSpace": 'cli: "kind": space.kind,',
        "hilbert.GradedDims": 'cli: "kind": gd.kind,',
    },
    "name": {
        "algebra.LieAlgebra": 'cli: "name": g.name,',
        "sl2.Component": 'cli: "name": component.name,',
    },
    "num": {
        "linalg.Matrix": "linalg: return not any(map(any, self.num))",
        "polynomials.MultiPoly": "polynomials: return not self.num",
    },
    "ok": {
        "algebra.ValidationReport": 'cli: "valid": report.ok,',
        "reproduce.Row": 'cli: "ok": row.ok,',
    },
    "raw": {
        "sl2.DecompositionReport":
            'cli: out["raw_generator_count"] = len(report.raw.generators)',
        "sl2.DerivationIdealReport": "sl2: contains(basis, report.raw),",
    },
    "rows": {
        "linalg.Matrix": "algebra: if m.rows != n or m.cols != n:",
        "linalg.Subspace": "derivations: images = h.rows @ d.transpose()",
    },
    "scale": {
        "algebra.LieAlgebra": "algebra: table, scale = g.table, g.scale",
        "polynomials.MultiPoly": "sl2: residual[r] += x[m][r].scale(c)",
    },
    "simplified": {
        "sl2.DecompositionReport":
            'cli: out["ideal_generators"] = [str(p) for p in report.simplified.generators]',
        "sl2.DerivationIdealReport":
            "sl2: product_in = contains(report.simplified, product)",
    },
    "variables": {
        "polynomials.Ideal":
            "polynomials: return Ideal(ideal.variables, tuple(result))",
        "polynomials.MultiPoly":
            "sl2: ring = tuple(v for v in polys[0].variables if v not in assignment)",
    },
    "zero": {
        "linalg.Matrix":
            "linalg: return Matrix.from_rows(entries) if rows else Matrix.zero(0, cols)",
        "polynomials.MultiPoly": "polynomials: return MultiPoly.zero(self.variables)",
    },
}


# The arithmetic operators and the dunder each applies.
OPERATORS = {
    ast.Add: "__add__",
    ast.Sub: "__sub__",
    ast.Mult: "__mul__",
    ast.MatMult: "__matmul__",
    ast.Pow: "__pow__",
    ast.USub: "__neg__",
}

# For each operator dunder a library class defines: a line of library
# code ("module: stripped line") that applies it to that class.
OPERATOR_CALLERS = {
    "linalg.Matrix.__add__":
        "reproduce: sigma_bracket(a, sigma_bracket(b, c, inv), inv)",
    "linalg.Matrix.__matmul__":
        "reproduce: twisted = [tau_inv @ d for d in left.basis]",
    "linalg.Matrix.__sub__":
        "derivations: return d @ sigma_inv @ t - t @ sigma_inv @ d",
    "polynomials.MultiPoly.__add__": "sl2: residual[r] += x[m][r].scale(c)",
    "polynomials.MultiPoly.__mul__": "sl2: term = x[i][p] * sigma[q][j]",
    "polynomials.MultiPoly.__sub__": "sl2: residual[r] -= x[j][q].scale(c)",
}


class Piece:
    """A stretch of code and what it reads. ``labels`` are the names it
    defines (none for code that always runs, such as imports); ``owner``
    is its top-level statement; ``method`` is set for a class's function."""

    def __init__(
        self, module, nodes, labels=(), owner=None, method=None, field=False
    ):
        self.module = module
        self.labels = list(labels)
        self.owner = owner
        self.method = method
        self.field = field
        self.names = set()
        self.attrs = {}  # attribute name -> line numbers of its reads
        # attribute name -> for each read, the name of the call it is an
        # argument of, or None
        self.passed_to = {}
        self.operators = {}  # operator dunder -> line numbers applying it
        options = _option_reads(nodes)
        calls = _call_arguments(nodes)
        for tree in nodes:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    self.names.add(node.id)
                elif isinstance(node, ast.Attribute) and id(node) not in options:
                    self.attrs.setdefault(node.attr, set()).add(node.lineno)
                    self.passed_to.setdefault(node.attr, set()).add(
                        calls.get(id(node))
                    )
                elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
                    dunder = OPERATORS.get(type(node.op))
                    if dunder:
                        self.operators.setdefault(dunder, set()).add(node.lineno)
                elif isinstance(node, ast.alias):
                    self.names.add(node.name.rpartition(".")[2])
                    if node.asname:
                        self.names.add(node.asname)

    def reads(self, name: str) -> bool:
        """Whether this piece reads the name, as a top-level name may be."""
        return name in self.names or name in self.attrs


def _option_reads(nodes) -> set:
    """The ids of the attribute reads ``args.x`` in a ``cmd_*`` handler
    whose one parameter is ``args``: they read the parsed command line,
    not a record field or a method."""
    return {
        id(node)
        for tree in nodes
        for handler in ast.walk(tree)
        if isinstance(handler, ast.FunctionDef) and handler.name.startswith("cmd_")
        and [a.arg for a in handler.args.args] == ["args"]
        for node in ast.walk(handler)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "args"
    }


def _call_arguments(nodes) -> dict:
    """For each attribute read that is an argument of a call, positional
    or keyword: its id and the name of the called function or class."""
    found = {}
    for tree in nodes:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            for arg in call.args + [k.value for k in call.keywords]:
                if isinstance(arg, ast.Attribute):
                    found[id(arg)] = name
    return found


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


def _member_name(member, record: bool):
    """The name of a class-body statement that only an attribute read
    reaches: a function other than a dunder, or in a Record subclass an
    annotated field. None for any other statement."""
    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None if _is_dunder(member.name) else member.name
    if record and isinstance(member, ast.AnnAssign):
        return member.target.id
    return None


def _members(node: ast.ClassDef) -> list:
    """(name, statement) for each method and, in a Record subclass, each
    field of the class."""
    record = any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)
    return [
        (name, member) for member in node.body
        if (name := _member_name(member, record)) is not None
    ]


def _operators(modules: dict) -> list:
    """The labels of the arithmetic operator dunders library classes define."""
    return sorted(
        f"{name}.{node.name}.{member.name}"
        for name, tree in modules.items()
        for node in tree.body if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, ast.FunctionDef)
        and member.name in OPERATORS.values()
    )


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
            members = _members(node)
            kept = {id(m) for _, m in members}
            rest = node.bases + node.keywords + node.decorator_list + [
                m for m in node.body if id(m) not in kept
            ]
            pieces.append(Piece(name, rest, [f"{name}.{node.name}"], node))
            pieces += [
                Piece(
                    name, [m], [f"{name}.{node.name}.{member}"], node, member,
                    isinstance(m, ast.AnnAssign),
                )
                for member, m in members
            ]
    return pieces


def _unreached(piece: Piece, live: list) -> list:
    """The labels of the piece that no other live piece reads. A read of a
    field that is an argument of its own class's constructor is no read."""
    if piece.method is not None:
        copies = {piece.owner.name} if piece.field else set()
        reached = any(
            other.passed_to.get(piece.method, set()) - copies
            for other in live if other is not piece
        )
        return [] if reached else piece.labels
    others = [other for other in live if other.owner is not piece.owner]
    return [
        label for label in piece.labels
        if not any(other.reads(label.rpartition(".")[2]) for other in others)
    ]


def _walk(modules=None):
    """(unreached labels, live pieces) once no round drops anything more."""
    live = _pieces(modules or _modules())
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
    assert {"X_VARS", "_ABELIAN_RE", "_raw_ideal", "Sl2Family"} <= names
    assert "__version__" in names


def test_walk_reports_a_record_field_with_no_reader():
    modules = _modules()
    source = _sources()["sl2"].replace(
        "class DerivationClassification(Record):\n",
        "class DerivationClassification(Record):\n    case: str\n",
    )
    modules["sl2"] = ast.parse(source)
    assert "sl2.DerivationClassification.case" in _walk(modules)[0]


def test_walk_reports_a_field_that_only_its_constructor_copies():
    modules = _modules()
    hilbert = _sources()["hilbert"]
    source = hilbert.replace(
        "    dims: dict\n    finite_order: int\n",
        "    dims: dict\n    finite_order: int\n    algebra: LieAlgebra\n",
    )
    copied = source.replace(
        "    found = detect_period(gd)\n",
        "    gd = GradedDims(gd.kind, gd.window, gd.dims, gd.finite_order, gd.algebra)\n"
        "    found = detect_period(gd)\n",
    )
    assert source != hilbert and copied != source
    modules["hilbert"] = ast.parse(copied)
    assert "hilbert.GradedDims.algebra" in _walk(modules)[0]
    # Passed to another function, the field is read.
    modules["hilbert"] = ast.parse(copied.replace(
        "    found = detect_period(gd)\n",
        "    graded_dims(gd.algebra, gd.dims[1])\n    found = detect_period(gd)\n",
    ))
    assert "hilbert.GradedDims.algebra" not in _walk(modules)[0]


def test_walk_reports_a_field_that_only_a_command_line_option_reads():
    modules = _modules()
    source = _sources()["sl2"].replace(
        "class FixedDimensionReport(Record):\n",
        "class FixedDimensionReport(Record):\n    family: str\n",
    )
    assert source != _sources()["sl2"]
    modules["sl2"] = ast.parse(source)
    assert "sl2.FixedDimensionReport.family" in _walk(modules)[0]


def test_shared_method_names_each_name_a_live_caller():
    modules = _modules()
    owners = {}
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for member, _ in _members(node):
                    owners.setdefault(member, set()).add(f"{name}.{node.name}")
    shared = {method: classes for method, classes in owners.items() if len(classes) > 1}
    assert {m: set(c) for m, c in SHARED_METHOD_NAMES.items()} == shared
    _, live = _walk()
    sources = _sources()
    for method, callers in SHARED_METHOD_NAMES.items():
        for cls, caller in callers.items():
            _assert_live_line(
                f"{cls}.{method}", caller, live, sources,
                lambda piece: piece.attrs.get(method, ()),
            )


def _assert_live_line(label, caller, live, sources, lines_of):
    """The "module: stripped line" caller is a line of the module at
    which a live piece's ``lines_of(piece)`` holds its number."""
    module, _, text = caller.partition(": ")
    lines = [
        number
        for number, line in enumerate(sources[module].splitlines(), 1)
        if line.strip() == text
    ]
    assert lines, f"{label}: no line {text!r} in {module}"
    assert any(
        number in lines_of(piece)
        for piece in live if piece.module == module
        for number in lines
    ), f"{label}: {text!r} in {module} is not live code that reaches it"


def test_operator_callers_each_apply_their_operator():
    modules = _modules()
    defined = [label for label in _operators(modules) if label not in KEPT_FOR_TESTS]
    assert sorted(OPERATOR_CALLERS) == defined
    _, live = _walk()
    sources = _sources()
    for label, caller in OPERATOR_CALLERS.items():
        dunder = label.rpartition(".")[2]
        _assert_live_line(
            label, caller, live, sources,
            lambda piece: piece.operators.get(dunder, ()),
        )


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
