"""Structure-constant Lie algebras over the rationals.

An algebra is its dimension plus its nonzero structure constants, held
as one sparse integer table over one scale: ``table[i]`` is
{j: {k: scale * c_ij^k}}, in both orders (i, j) and (j, i), and scale is
the lcm of the constants' denominators. ``make_algebra`` builds it from
the exact constants on the pairs i < j. All indices are 0-based
internally and 1-based in files and reports.

An automorphism is a plain ``Matrix``; ``require_automorphism`` checks
one against the algebra a solver meets it on.
"""

from __future__ import annotations

import re
from fractions import Fraction
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
    parse_rational,
    rank,
)
from gderive.record import Record

_ABELIAN_RE = re.compile(r"^abelian\(0*([0-9]+)\)$")


class LieAlgebra(Record):
    """Bilinear antisymmetric product given by structure constants, held
    as the sparse integer ``table`` over ``scale`` of the module
    docstring. Callers share both and must not modify them."""

    name: str
    dim: int
    table: list
    scale: int


def make_algebra(name: str, dim: int, constants: dict) -> LieAlgebra:
    """The algebra with [e_i, e_j] = sum_k c_ij^k e_k.

    ``constants`` maps pairs i < j to their sparse exact constants
    {k: c}; a pair left out brackets to zero. The table keeps the pairs
    in the given order and each pair's k ascending. It drops zero
    constants, and so a pair whose constants are all zero.
    """
    scale = lcm(*(c.denominator for ck in constants.values() for c in ck.values()))
    table = [{} for _ in range(dim)]
    for (i, j), ck in constants.items():
        cij = {
            k: c.numerator * (scale // c.denominator)
            for k, c in sorted(ck.items()) if c
        }
        if cij:
            table[i][j] = cij
            table[j][i] = {k: -a for k, a in cij.items()}
    return LieAlgebra(name, dim, table, scale)


def bracket(g: LieAlgebra, x, y):
    """Bilinear extension of the structure constants."""
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionMismatch("vectors must have the algebra dimension")
    out = [0] * g.dim
    for i, row in enumerate(g.table):
        if x[i]:
            for j, cij in row.items():
                coeff = x[i] * y[j]
                if coeff:
                    for k, a in cij.items():
                        out[k] += coeff * a
    return tuple(Fraction(a) / g.scale for a in out)


def ad(g: LieAlgebra, x) -> Matrix:
    """Adjoint matrix of x: column j holds [x, e_j]."""
    basis = Matrix.identity(g.dim).entries
    columns = [bracket(g, x, e) for e in basis]
    return Matrix.from_rows(zip(*columns))


def bracket_images(table, columns, coeff):
    """coeff * [e_m, x_c] as sparse {r: value}, indexed [c][m].

    ``columns`` holds the vectors x_c as sparse {p: value} dicts and
    ``table`` is an algebra's table, whose scale carries over.
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


def validate_lie(g: LieAlgebra) -> tuple:
    """The violations of the Jacobi identity on basis triples, empty when
    g is a Lie algebra.

    Violations are (i, j, k, residual) entries with 1-based indices, sorted
    by (i, j, k); antisymmetry holds by construction and is not rechecked.
    Only nonzero pairs contribute: [[e_a, e_b], e_k] enters the residual of
    the sorted triple of {a, b, k}, with a minus sign when k lies between a
    and b, where the triple's term is [[e_b, e_a], e_k].
    """
    table, scale = g.table, g.scale
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
    return tuple(violations)


def is_automorphism(g: LieAlgebra, m: Matrix) -> bool:
    """Invertible and multiplicative on all basis pairs i < j."""
    n = g.dim
    if m.rows != n or m.cols != n:
        return False
    if rank(m) < n:
        return False
    columns, scale = integer_columns(m)
    table = g.table
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


def require_acts_on(g: LieAlgebra, m: Matrix) -> None:
    """Raise DimensionMismatch, naming both sizes, unless m is dim x dim."""
    if m.rows != g.dim or m.cols != g.dim:
        raise DimensionMismatch(
            f"matrix does not act on the algebra: a {m.rows}x{m.cols} "
            f"matrix on an algebra of dimension {g.dim}"
        )


def require_automorphism(g: LieAlgebra, m: Matrix) -> None:
    """Raise unless m is an automorphism of g: DimensionMismatch for a
    matrix of the wrong size, UnvalidatedAutomorphism for any other."""
    require_acts_on(g, m)
    if not is_automorphism(g, m):
        raise UnvalidatedAutomorphism(
            "matrix is not an automorphism of the algebra"
        )


def builtin(name: str) -> LieAlgebra:
    """Catalog of the worked example algebras, each a Lie algebra."""
    if name == "sl2":
        return make_algebra(
            "sl2", 3, {(0, 1): {0: -1}, (0, 2): {1: 2}, (1, 2): {2: -1}}
        )
    if name == "heisenberg":
        return make_algebra("heisenberg", 3, {(0, 1): {2: 1}})
    if name == "example_4_6":
        return make_algebra("example_4_6", 3, {(0, 1): {1: 1}, (0, 2): {2: 2}})
    match = _ABELIAN_RE.match(name)
    if match:
        digits = match.group(1)
        # The length test keeps int() away from huge digit strings.
        if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
            raise InputError(
                f"{name} is too large: abelian(n) needs n <= {MAX_DIM}"
            )
        return make_algebra(name, int(digits), {})
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
    constants = {}
    for item in entries:
        try:
            i, j, result = item["left"], item["right"], item["result"]
        except (TypeError, KeyError) as exc:
            raise InputError("bracket entries need left, right, result") from exc
        if not (type(i) is int and type(j) is int and 1 <= i < j <= dim):
            raise InputError(f"bracket pair ({i},{j}) must satisfy 1 <= i < j <= dim")
        if (i - 1, j - 1) in constants:
            raise InputError(f"bracket pair ({i},{j}) is listed twice")
        if not isinstance(result, list) or not all(
            isinstance(term, list) and len(term) == 2 for term in result
        ):
            raise InputError(
                "bracket result must be a list of [coefficient, index] pairs"
            )
        terms = constants[(i - 1, j - 1)] = {}
        for coeff, k in result:
            if not (type(k) is int and 1 <= k <= dim):
                raise InputError(f"component index {k} out of range")
            terms[k - 1] = terms.get(k - 1, 0) + parse_rational(coeff)
    return make_algebra(name, dim, constants)


def algebra_to_json_dict(g: LieAlgebra) -> dict:
    brackets = []
    for i, row in enumerate(g.table):
        for j in sorted(row):
            if i < j:
                result = [
                    [format_rational(Fraction(a, g.scale)), k + 1]
                    for k, a in row[j].items()
                ]
                brackets.append({"left": i + 1, "right": j + 1, "result": result})
    return {"name": g.name, "dim": g.dim, "brackets": brackets}
