"""Exact rational linear algebra.

Scalars are :class:`fractions.Fraction`; matrices use the column-as-image
convention (column j holds the coordinates of the image of basis vector
e_j). Row reduction delegates to the sparse integer kernel in
:mod:`gderive._kernels`, so every result is exact and canonical. A
``Matrix`` is converted at the boundary: each row of Fractions becomes a
sparse integer row, scaled by the lcm of its denominators. The systems
that the derivation solvers assemble are sparse integer rows already and
go to :func:`kernel_of_rows` and :func:`solve_rows` as they are.

Dense products (``@``, ``power``, ``exp_nilpotent``) are formed the same
way: each factor is scaled to integers by the lcm of its denominators,
the dot products run over ints, and each output entry becomes one
Fraction over the common denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from gderive._kernels import rref_int
from gderive.errors import DimensionMismatch, InputError, NotNilpotent, SingularMatrix

_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational string: optional '-', digits, optional '/digits'."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise InputError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise InputError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"not an exact scalar: {value!r}")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, row-major.

    Products are formed over a common integer denominator and always
    return Fraction entries, even for factors built with int entries.
    """

    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(rows) -> "Matrix":
        grid = tuple(tuple(_coerce(v) for v in row) for row in rows)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        for row in grid:
            if len(row) != ncols:
                raise DimensionMismatch("ragged matrix rows")
        return Matrix(nrows, ncols, grid)

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix(n, n, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        z = Fraction(0)
        return Matrix(rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    def __getitem__(self, pair):
        i, j = pair
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def col(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, k) -> "Matrix":
        k = _coerce(k)
        return Matrix(self.rows, self.cols, tuple(
            tuple(k * a for a in row) for row in self.entries
        ))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        a, a_scale = _integer_rows(self.entries)
        b, b_scale = _integer_rows(other.entries)
        product = _int_product(a, b, other.cols)
        return _over(product, a_scale * b_scale, other.cols)

    def apply(self, vector):
        """Image of a coordinate vector (matrix times column vector)."""
        if len(vector) != self.cols:
            raise DimensionMismatch("vector length differs from cols")
        vec = tuple(_coerce(v) for v in vector)
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def power(self, k: int) -> "Matrix":
        """self^k for k >= 0, by k - 1 products starting from self."""
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            raise InputError(f"negative matrix power {k}; invert first")
        if k == 0:
            return Matrix.identity(self.rows)
        result = self
        for _ in range(k - 1):
            result = result @ self
        return result

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(
            self.col(j) for j in range(self.cols)
        ))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            a == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, a in enumerate(row)
        )

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_rational(a) for a in row] for row in self.entries],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Matrix":
        try:
            rows = data["rows"]
            cols = data["cols"]
            entries = data["entries"]
        except (TypeError, KeyError) as exc:
            raise InputError("matrix object needs rows, cols, entries") from exc
        # A JSON true is a bool, an int subclass; it must not count as 1.
        if type(rows) is not int or type(cols) is not int:
            raise InputError("rows and cols must be integers")
        if rows < 0 or cols < 0:
            raise DimensionMismatch("rows and cols must be nonnegative integers")
        if not isinstance(entries, list) or not all(
            isinstance(r, list) for r in entries
        ):
            raise InputError("entries must be a list of rows")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch("entries grid is not rows x cols")
        if any(isinstance(v, bool) for row in entries for v in row):
            raise InputError("matrix entries must be rationals, not booleans")
        return Matrix(rows, cols, tuple(
            tuple(_coerce(v) for v in row) for row in entries
        ))


def _integer_rows(rows):
    """(int rows, scale): every entry times scale, the lcm of all the
    entries' denominators. Ints count as denominator 1."""
    scale = lcm(*(a.denominator for row in rows for a in row))
    ints = [[a.numerator * (scale // a.denominator) for a in row] for row in rows]
    return ints, scale


def _int_product(a, b, ncols: int):
    """Int rows of a @ b, for int rows a (r x n) and b (n x ncols)."""
    cols = list(zip(*b)) if b else [()] * ncols
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _over(int_rows, den: int, ncols: int) -> Matrix:
    """The matrix int_rows / den, one Fraction per entry."""
    return Matrix(len(int_rows), ncols, tuple(
        tuple(Fraction(p, den) for p in row) for row in int_rows
    ))


def _rows_to_int(entries):
    """Sparse integer rows {column: int} of a grid of exact scalars: each
    row is scaled by the lcm of its denominators, zeros left out."""
    out = []
    for row in entries:
        scale = lcm(*(a.denominator for a in row))
        out.append({
            c: a.numerator * (scale // a.denominator)
            for c, a in enumerate(row) if a
        })
    return out


def integer_columns(m: Matrix):
    """The columns of m as sparse integer vectors.

    Returns (columns, scale): columns[j] is {i: scale * m[i, j]} over the
    nonzero entries, and scale is the lcm of the entries' denominators.
    """
    columns, scale = _integer_rows(m.transpose().entries)
    return [{i: a for i, a in enumerate(col) if a} for col in columns], scale


def _reduced_rows(entries):
    """Leading-1 reduced rows (and pivot columns) of a grid of Fractions."""
    pivot_rows, pivot_cols = rref_int(_rows_to_int(entries))
    reduced = []
    for row, c in zip(pivot_rows, pivot_cols):
        dense = [Fraction(0)] * len(entries[0])
        for j, a in row.items():
            dense[j] = Fraction(a, row[c])
        reduced.append(tuple(dense))
    return reduced, pivot_cols


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns:
        (reduced matrix of the same shape, pivot column tuple, rank).
    """
    reduced, pivot_cols = _reduced_rows(m.entries)
    rank = len(reduced)
    zero_row = tuple(Fraction(0) for _ in range(m.cols))
    grid = tuple(reduced) + tuple(zero_row for _ in range(m.rows - rank))
    return Matrix(m.rows, m.cols, grid), tuple(pivot_cols), rank


def kernel_of_rows(rows, ncols: int) -> "Subspace":
    """Canonical basis of {v in Q^ncols : row . v = 0 for every row}.

    ``rows`` are sparse integer rows {column: int}, as ``rref_int`` takes
    them, reduced here with the columns in reverse order. A pivot row then
    ends at its pivot p, so e_f - sum_p (row_p[f] / row_p[p]) e_p for a
    free column f leads at f and vanishes at the other free columns: these
    vectors are the canonical basis with no second reduction.
    """
    last = ncols - 1
    pivot_rows, pivot_cols = rref_int(
        {last - c: a for c, a in row.items()} for row in rows
    )
    pivots = {last - p for p in pivot_cols}
    basis = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in pivots}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for row, p in zip(pivot_rows, pivot_cols):
        for j, a in row.items():
            if j != p:
                basis[last - j][last - p] = Fraction(-a, row[p])
    return Subspace(ncols, tuple(tuple(v) for v in basis.values()))


def kernel_basis(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {v : m v = 0}."""
    return kernel_of_rows(_rows_to_int(m.entries), m.cols)


def solve_rows(rows, ncols: int):
    """One solution x in Q^ncols of the sparse integer system whose
    right-hand side sits in column ncols, or None when inconsistent."""
    pivot_rows, pivot_cols = rref_int(rows)
    x = [Fraction(0)] * ncols
    for row, p in zip(pivot_rows, pivot_cols):
        if p == ncols:
            return None
        x[p] = Fraction(row.get(ncols, 0), row[p])
    return tuple(x)


def solve(m: Matrix, rhs):
    """One solution of m x = rhs, or None when inconsistent."""
    if len(rhs) != m.rows:
        raise DimensionMismatch("right-hand side length differs from rows")
    augmented = [(*row, _coerce(b)) for row, b in zip(m.entries, rhs)]
    return solve_rows(_rows_to_int(augmented), m.cols)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    augmented = tuple(
        row + ident.entries[i] for i, row in enumerate(m.entries)
    )
    reduced, pivot_cols = _reduced_rows(augmented)
    if list(pivot_cols[:n]) != list(range(n)) or len(pivot_cols) < n:
        raise SingularMatrix("matrix is singular")
    return Matrix(n, n, tuple(row[n:] for row in reduced))


def exp_nilpotent(m: Matrix) -> Matrix:
    """Finite exponential sum for nilpotent m: sum of m^k / k! for k < n.

    With m = A / d for an int matrix A, the sum is
    sum_k A^k (n-1)!/k! d^(n-1-k) over the one denominator (n-1)! d^(n-1).
    """
    if m.rows != m.cols:
        raise DimensionMismatch("exp of a non-square matrix")
    n = m.rows
    if n == 0:
        return Matrix.identity(0)
    a, d = _integer_rows(m.entries)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], a]
    for _ in range(n - 1):
        powers.append(_int_product(powers[-1], a, n))
    if any(any(row) for row in powers[n]):
        raise NotNilpotent("matrix is not nilpotent")
    total = [[0] * n for _ in range(n)]
    weight = 1  # (n-1)!/k! d^(n-1-k), from k = n-1 down to (n-1)! d^(n-1)
    for k in range(n - 1, -1, -1):
        for out, row in zip(total, powers[k]):
            for j, p in enumerate(row):
                out[j] += weight * p
        if k:
            weight *= k * d
    return _over(total, weight, n)


def matrix_order(m: Matrix, max_m: int):
    """Least 1 <= k <= max_m with m^k = identity, or None."""
    if m.rows != m.cols:
        raise DimensionMismatch("order of a non-square matrix")
    power = m
    for k in range(1, max_m + 1):
        if power.is_identity():
            return k
        power = power @ m
    return None


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n held in canonical form.

    The stacked basis is in reduced row echelon form, so two subspaces are
    equal as sets exactly when their Subspace values compare equal.
    """

    ambient_dim: int
    basis: tuple

    @staticmethod
    def span(ambient_dim: int, vectors) -> "Subspace":
        grid = []
        for v in vectors:
            row = tuple(_coerce(a) for a in v)
            if len(row) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dim")
            grid.append(row)
        reduced, _ = _reduced_rows(grid)
        return Subspace(ambient_dim, tuple(reduced))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span(ambient_dim, Matrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        vec = [_coerce(a) for a in vector]
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dim")
        for row in self.basis:
            pivot = next(i for i, a in enumerate(row) if a == 1)
            coeff = vec[pivot]
            if coeff:
                for i, a in enumerate(row):
                    vec[i] -= coeff * a
        return all(a == 0 for a in vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(v) for v in other.basis)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.span(a.ambient_dim, list(a.basis) + list(b.basis))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not a.basis or not b.basis:
        return Subspace.zero(a.ambient_dim)
    # Columns are the two bases; kernel vectors (x, y) satisfy A x = -B y,
    # so A x runs over the intersection.
    columns = list(a.basis) + [tuple(-c for c in v) for v in b.basis]
    stacked = Matrix.from_rows(columns).transpose()
    vectors = []
    for w in kernel_basis(stacked).basis:
        coeffs = w[: len(a.basis)]
        vec = [Fraction(0)] * a.ambient_dim
        for coeff, basis_vec in zip(coeffs, a.basis):
            for i, entry in enumerate(basis_vec):
                vec[i] += coeff * entry
        vectors.append(vec)
    return Subspace.span(a.ambient_dim, vectors)


def matrix_to_vec(m: Matrix):
    """Flatten by stacking images: components of m(e_1), then m(e_2), ..."""
    out = []
    for j in range(m.cols):
        out.extend(m.col(j))
    return tuple(out)


def vec_to_matrix(vec, rows: int, cols: int) -> Matrix:
    if len(vec) != rows * cols:
        raise DimensionMismatch("vector length differs from rows x cols")
    vals = [_coerce(v) for v in vec]
    return Matrix(rows, cols, tuple(
        tuple(vals[j * rows + i] for j in range(cols)) for i in range(rows)
    ))
