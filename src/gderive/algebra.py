"""Structure-constant Lie algebras over the rationals.

An algebra is its dimension plus the bracket table on basis pairs i < j;
the other half of the table is implied by antisymmetry. All indices are
0-based internally and 1-based in files and reports.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import lcm

from gderive.errors import (
    DimensionMismatch,
    InputError,
    UnknownName,
    UnvalidatedAutomorphism,
)
from gderive.limits import MAX_DIM
from gderive.linalg import (
    Matrix,
    format_rational,
    integer_columns,
    inverse,
    parse_rational,
    rank,
)
from gderive.record import Record, replace

_ABELIAN_RE = re.compile(r"^abelian\(0*([0-9]+)\)$")


class LieAlgebra(Record):
    """Bilinear antisymmetric product given by structure constants."""

    name: str
    dim: int
    structure: dict
    lie_validated: bool = False

    @cached_property
    def integer_table(self):
        """(table, scale) of :func:`structure_table`, built on first use."""
        scale = lcm(*(
            a.denominator for vec in self.structure.values() for a in vec
        ))
        table = [{} for _ in range(self.dim)]
        for (i, j), cij in self.structure.items():
            for k, a in enumerate(cij):
                if a:
                    a = a.numerator * (scale // a.denominator)
                    table[i].setdefault(j, {})[k] = a
                    table[j].setdefault(i, {})[k] = -a
        return table, scale


def bracket(g: LieAlgebra, x, y):
    """Bilinear extension of the structure constants."""
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionMismatch("vectors must have the algebra dimension")
    x = [Fraction(a) if isinstance(a, int) else a for a in x]
    y = [Fraction(a) if isinstance(a, int) else a for a in y]
    out = [Fraction(0)] * g.dim
    for (i, j), cij in g.structure.items():
        coeff = x[i] * y[j] - x[j] * y[i]
        if coeff:
            for k, a in enumerate(cij):
                out[k] += coeff * a
    return tuple(out)


def ad(g: LieAlgebra, x) -> Matrix:
    """Adjoint matrix of x: column j holds [x, e_j]."""
    basis = Matrix.identity(g.dim).entries
    columns = [bracket(g, x, e) for e in basis]
    return Matrix.from_rows(zip(*columns))


def structure_table(g: LieAlgebra):
    """The nonzero structure constants as a sparse integer table.

    Returns (table, scale): table[i] is {j: {k: scale * c_ij^k}} over the
    pairs with a nonzero bracket, in both orders (i, j) and (j, i), and
    scale is the lcm of the constants' denominators. The table is built
    once per algebra and shared by every caller, which must not modify it.
    """
    return g.integer_table


def bracket_images(table, columns, coeff):
    """coeff * [e_m, x_c] as sparse {r: value}, indexed [c][m].

    ``columns`` holds the vectors x_c as sparse {p: value} dicts and
    ``table`` comes from :func:`structure_table`, whose scale carries over.
    """
    out = []
    for column in columns:
        images = [{} for _ in table]
        if coeff:
            for p, a in column.items():
                s = coeff * a
                # [e_m, e_p] = -[e_p, e_m]
                for m, cpm in table[p].items():
                    image = images[m]
                    for r, c in cpm.items():
                        image[r] = image.get(r, 0) - s * c
        out.append(images)
    return out


class ValidationReport(Record):
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_lie(g: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on every basis triple.

    Violations are (i, j, k, residual) entries with 1-based indices, sorted
    by (i, j, k); antisymmetry holds by construction and is not rechecked.
    Only nonzero pairs contribute: [[e_a, e_b], e_k] enters the residual of
    the sorted triple of {a, b, k}, with a minus sign when k lies between a
    and b, where the triple's term is [[e_b, e_a], e_k].
    """
    table, scale = structure_table(g)
    residuals = {}
    for a, row in enumerate(table):
        for b, cab in row.items():
            if b < a:
                continue
            for m, x in cab.items():
                for k, cmk in table[m].items():
                    if k < a:
                        triple, sign = (k, a, b), 1
                    elif a < k < b:
                        triple, sign = (a, k, b), -1
                    elif k > b:
                        triple, sign = (a, b, k), 1
                    else:
                        continue
                    residual = residuals.setdefault(triple, {})
                    for r, y in cmk.items():
                        residual[r] = residual.get(r, 0) + sign * x * y
    n = g.dim
    violations = []
    for triple in sorted(residuals):
        residual = residuals[triple]
        if any(residual.values()):
            i, j, k = triple
            violations.append((i + 1, j + 1, k + 1, tuple(
                Fraction(residual.get(r, 0), scale * scale) for r in range(n)
            )))
    return ValidationReport(tuple(violations))


def with_validation(g: LieAlgebra) -> LieAlgebra:
    """Return g flagged lie_validated when the Jacobi report is clean."""
    if validate_lie(g).ok:
        return replace(g, lie_validated=True)
    return g


def is_automorphism(g: LieAlgebra, m: Matrix) -> bool:
    """Invertible and multiplicative on all basis pairs i < j."""
    n = g.dim
    if m.rows != n or m.cols != n:
        return False
    if rank(m) < n:
        return False
    columns, scale = integer_columns(m)
    table, _ = structure_table(g)
    # images[j][p] is [e_p, m e_j], so [m e_i, m e_j] = sum_p m_pi images[j][p].
    images = bracket_images(table, columns, 1)
    for i in range(n):
        for j in range(i + 1, n):
            # Both sides carry the table's scale times scale^2.
            lhs = {}
            for k, x in table[i].get(j, {}).items():
                for r, y in columns[k].items():
                    lhs[r] = lhs.get(r, 0) + scale * x * y
            rhs = {}
            for p, x in columns[i].items():
                for r, y in images[j][p].items():
                    rhs[r] = rhs.get(r, 0) + x * y
            if {r: a for r, a in lhs.items() if a} != {
                r: a for r, a in rhs.items() if a
            }:
                return False
    return True


class Automorphism(Record):
    algebra: LieAlgebra
    matrix: Matrix
    validated: bool = False

    @staticmethod
    def identity(g: LieAlgebra) -> "Automorphism":
        return Automorphism(g, Matrix.identity(g.dim), True)

    @cached_property
    def inverse_matrix(self) -> Matrix:
        """The inverse of the matrix, computed once per automorphism."""
        return inverse(self.matrix)


def require_acts_on(g: LieAlgebra, m: Matrix) -> None:
    """Raise DimensionMismatch, naming both sizes, unless m is dim x dim."""
    if m.rows != g.dim or m.cols != g.dim:
        raise DimensionMismatch(
            f"matrix does not act on the algebra: a {m.rows}x{m.cols} "
            f"matrix on an algebra of dimension {g.dim}"
        )


def make_automorphism(g: LieAlgebra, m: Matrix) -> Automorphism:
    require_acts_on(g, m)
    if not is_automorphism(g, m):
        raise UnvalidatedAutomorphism(
            "matrix is not an automorphism of the algebra"
        )
    return Automorphism(g, m, True)


def require_validated(sigma: Automorphism) -> Automorphism:
    if not sigma.validated:
        raise UnvalidatedAutomorphism("automorphism was not validated")
    return sigma


def _relations(pairs) -> dict:
    return {
        (i, j): tuple(Fraction(a) for a in vec) for (i, j), vec in pairs.items()
    }


def builtin(name: str) -> LieAlgebra:
    """Catalog of the worked example algebras, pre-validated."""
    if name == "sl2":
        structure = _relations({
            (0, 1): (-1, 0, 0),
            (0, 2): (0, 2, 0),
            (1, 2): (0, 0, -1),
        })
        return with_validation(LieAlgebra("sl2", 3, structure))
    if name == "heisenberg":
        structure = _relations({(0, 1): (0, 0, 1)})
        return with_validation(LieAlgebra("heisenberg", 3, structure))
    if name == "example_4_6":
        structure = _relations({(0, 1): (0, 1, 0), (0, 2): (0, 0, 2)})
        return with_validation(LieAlgebra("example_4_6", 3, structure))
    match = _ABELIAN_RE.match(name)
    if match:
        digits = match.group(1)
        # The length test keeps int() away from huge digit strings.
        if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
            raise InputError(
                f"{name} is too large: abelian(n) needs n <= {MAX_DIM}"
            )
        n = int(digits)
        return with_validation(LieAlgebra(name, n, {}))
    raise UnknownName(f"no built-in algebra named {name!r}")


def algebra_from_json_dict(data: dict) -> LieAlgebra:
    """Load {"name", "dim", "brackets": [{"left","right","result"}]} (1-based)."""
    try:
        name = data["name"]
        dim = data["dim"]
        entries = data["brackets"]
    except (TypeError, KeyError) as exc:
        raise InputError("algebra object needs name, dim, brackets") from exc
    if not isinstance(name, str):
        raise InputError("name must be a string")
    # type() rather than isinstance: a JSON true is a bool, and bool is an
    # int subclass that would otherwise count as 1.
    if type(dim) is not int or dim < 0:
        raise InputError("dim must be a nonnegative integer")
    if dim > MAX_DIM:
        raise InputError(f"dim is too large: an algebra needs dim <= {MAX_DIM}")
    if not isinstance(entries, list):
        raise InputError("brackets must be a list")
    structure = {}
    for item in entries:
        try:
            i, j, result = item["left"], item["right"], item["result"]
        except (TypeError, KeyError) as exc:
            raise InputError("bracket entries need left, right, result") from exc
        if not (type(i) is int and type(j) is int and 1 <= i < j <= dim):
            raise InputError(f"bracket pair ({i},{j}) must satisfy 1 <= i < j <= dim")
        if (i - 1, j - 1) in structure:
            raise InputError(f"bracket pair ({i},{j}) is listed twice")
        if not isinstance(result, list) or not all(
            isinstance(term, list) and len(term) == 2 for term in result
        ):
            raise InputError(
                "bracket result must be a list of [coefficient, index] pairs"
            )
        vec = [Fraction(0)] * dim
        for coeff, k in result:
            if not (type(k) is int and 1 <= k <= dim):
                raise InputError(f"component index {k} out of range")
            vec[k - 1] += parse_rational(coeff)
        structure[(i - 1, j - 1)] = tuple(vec)
    return LieAlgebra(name, dim, structure)


def algebra_to_json_dict(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.structure):
        vec = g.structure[(i, j)]
        result = [
            [format_rational(a), k + 1] for k, a in enumerate(vec) if a
        ]
        if result:
            brackets.append({"left": i + 1, "right": j + 1, "result": result})
    return {"name": g.name, "dim": g.dim, "brackets": brackets}
