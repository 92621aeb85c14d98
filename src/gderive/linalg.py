"""Exact rational linear algebra.

Scalars are :class:`fractions.Fraction`; matrices use the column-as-image
convention (column j holds the coordinates of the image of basis vector
e_j). A ``Matrix`` is a :class:`~gderive.record.Record` of its shape
and one integer grid ``num`` over one positive denominator ``den``, in
canonical form: the gcd of ``den`` and every entry of ``num`` is 1, so
``den`` is the lcm of the entries' denominators and equal matrices have
equal records. ``Matrix.from_rows`` is the one constructor from a grid
of scalars. Products, sums, the nilpotent exponential, ``rank`` and
``inverse`` run on the integers; Fractions are made only where a caller
reads ``entries``, built once and cached.

Row reduction delegates to the sparse integer kernel in
:mod:`gderive._kernels`, so every result is exact and canonical. Linear
systems enter as sparse integer rows {column: int}, the form the
derivation solvers assemble, through :func:`kernel_of_rows` and
:func:`solve_rows`. A :class:`Subspace` keeps its reduced row echelon
basis as one canonical integer ``Matrix``; kernels, spans,
intersections, membership and the n x n basis maps of ``square_maps``
run on those integers too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from gderive._kernels import rref_int
from gderive.errors import DimensionMismatch, InputError, NotNilpotent, SingularMatrix
from gderive.record import Record

_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational string: optional '-', digits, optional '/digits'."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise InputError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        # Past Python's int/str digit limit.
        raise InputError(f"rational literal too long: {len(text)} characters") from exc
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _integer_vector(vector):
    """(ints, scale): the exact scalars of vector times scale, the lcm of
    their denominators; ints and Fractions are read, not converted."""
    vec = [v if isinstance(v, (int, Fraction)) else _coerce(v) for v in vector]
    scale = lcm(*(v.denominator for v in vec))
    return [v.numerator * (scale // v.denominator) for v in vec], scale


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"not an exact scalar: {value!r}")


class Matrix(Record):
    """Immutable dense rational matrix, row-major: the integer grid ``num``
    over the positive denominator ``den``, in canonical form.

    Only ``from_rows`` (a grid of exact scalars: ints, Fractions,
    rational strings), ``identity``, ``zero`` and ``_make`` build one,
    since they bring the grid to canonical form. ``entries``, the grid of
    Fractions, is built on first read and cached.
    """

    rows: int
    cols: int
    num: tuple
    den: int

    # Products and kernels build matrices in bulk, so the record's
    # constructor is written out for the four fields.
    def __init__(self, rows: int, cols: int, num: tuple, den: int, /):
        d = self.__dict__
        d["rows"] = rows
        d["cols"] = cols
        d["num"] = num
        d["den"] = den

    @cached_property
    def entries(self) -> tuple:
        """The grid of Fractions num / den."""
        den = self.den
        if den == 1:
            return tuple(tuple(map(Fraction, row)) for row in self.num)
        return tuple(tuple(Fraction(a, den) for a in row) for row in self.num)

    @staticmethod
    def from_rows(rows) -> "Matrix":
        grid = tuple(tuple(map(_coerce, row)) for row in rows)
        ncols = len(grid[0]) if grid else 0
        for row in grid:
            if len(row) != ncols:
                raise DimensionMismatch("ragged matrix rows")
        den = lcm(*[a.denominator for row in grid for a in row])
        # With den the lcm of the denominators the grid is already canonical.
        if den == 1:
            num = tuple(tuple([a.numerator for a in row]) for row in grid)
        else:
            num = tuple(
                tuple([a.numerator * (den // a.denominator) for a in row])
                for row in grid
            )
        m = Matrix(len(grid), ncols, num, den)
        m.__dict__["entries"] = grid
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _make(n, n, tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        ), 1)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _make(rows, cols, ((0,) * cols,) * rows, 1)

    def __getitem__(self, pair):
        i, j = pair
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def col(self, j: int):
        return tuple(row[j] for row in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """self op other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        den = lcm(self.den, other.den)
        a, b = self.num, other.num
        if self.den != den:
            a = _scaled(a, den // self.den)
        if other.den != den:
            b = _scaled(b, den // other.den)
        return _make(self.rows, self.cols, tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(a, b)
        ), den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        product = _int_product(self.num, other.num, other.cols)
        return _make(self.rows, other.cols, product, self.den * other.den)

    def apply(self, vector):
        """Image of a coordinate vector (matrix times column vector)."""
        if len(vector) != self.cols:
            raise DimensionMismatch("vector length differs from cols")
        ints, scale = _integer_vector(vector)
        den = self.den * scale
        return tuple(Fraction(sum(map(mul, row, ints)), den) for row in self.num)

    def transpose(self) -> "Matrix":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return _make(self.cols, self.rows, num, self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.den == 1 and all(
            a == (i == j)
            for i, row in enumerate(self.num)
            for j, a in enumerate(row)
        )

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
        return Matrix.from_rows(entries) if rows else Matrix.zero(0, cols)


def _make(rows: int, cols: int, num, den: int) -> Matrix:
    """The matrix num / den, for a tuple of int rows and den > 0, brought
    to canonical form."""
    g = gcd(den, *chain.from_iterable(num))
    if g > 1:
        num = tuple(tuple(a // g for a in row) for row in num)
        den //= g
    return Matrix(rows, cols, num, den)


def _scaled(num, k: int):
    return tuple(tuple(k * a for a in row) for row in num)


def _int_product(a, b, ncols: int):
    """Int rows of a @ b, for int rows a (r x n) and b (n x ncols)."""
    cols = tuple(zip(*b)) if b else ((),) * ncols
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _sparse(row) -> dict:
    """The nonzero entries {column: value} of a dense row."""
    return {c: a for c, a in enumerate(row) if a}


def _from_pivots(nrows: int, ncols: int, pivot_rows, pivot_cols, offset=0):
    """The leading-1 rows row / row[c] of ``rref_int`` output, columns
    ``offset`` onward, padded with zero rows to ``nrows``: a canonical
    Matrix over the lcm of the pivot entries."""
    den = lcm(*(row[c] for row, c in zip(pivot_rows, pivot_cols)))
    num = [
        tuple(row.get(j, 0) * (den // row[c]) for j in range(offset, ncols))
        for row, c in zip(pivot_rows, pivot_cols)
    ]
    num.extend([(0,) * (ncols - offset)] * (nrows - len(num)))
    return _make(nrows, ncols - offset, tuple(num), den)


def integer_columns(m: Matrix):
    """The columns of m as sparse integer vectors.

    Returns (columns, scale): columns[j] is {i: scale * m[i, j]} over the
    nonzero entries, and scale is the lcm of the entries' denominators.
    """
    return [_sparse(col) for col in m.transpose().num], m.den


def rank(m: Matrix) -> int:
    """The rank of m: the pivot count of its integer row reduction, with
    no reduced matrix built."""
    return len(rref_int([_sparse(row) for row in m.num])[1])


def kernel_of_rows(rows, ncols: int) -> "Subspace":
    """Canonical basis of {v in Q^ncols : row . v = 0 for every row}.

    ``rows`` are sparse integer rows {column: int}, as ``rref_int`` takes
    them, reduced here with the columns in reverse order. A pivot row then
    ends at its pivot p, so e_f - sum_p (row_p[f] / row_p[p]) e_p for a
    free column f leads at f and vanishes at the other free columns: these
    vectors, over the lcm of the pivot entries, are the canonical basis
    with no second reduction.
    """
    last = ncols - 1
    pivot_rows, pivot_cols = rref_int(
        {last - c: a for c, a in row.items()} for row in rows
    )
    den = lcm(*(row[p] for row, p in zip(pivot_rows, pivot_cols)))
    pivots = {last - p for p in pivot_cols}
    basis = {
        f: [0] * f + [den] + [0] * (last - f) for f in range(ncols) if f not in pivots
    }
    for row, p in zip(pivot_rows, pivot_cols):
        scale = den // row[p]
        for j, a in row.items():
            if j != p:
                basis[last - j][last - p] = -a * scale
    num = tuple(map(tuple, basis.values()))
    return Subspace(_make(len(num), ncols, num, den))


def solve_rows(rows, ncols: int):
    """One solution of the sparse integer system whose right-hand side
    sits in column ncols, as a 1 x ncols Matrix, or None when
    inconsistent."""
    pivot_rows, pivot_cols = rref_int(rows)
    if pivot_cols and pivot_cols[-1] == ncols:
        return None
    den = lcm(*(row[p] for row, p in zip(pivot_rows, pivot_cols)))
    x = [0] * ncols
    for row, p in zip(pivot_rows, pivot_cols):
        x[p] = row.get(ncols, 0) * (den // row[p])
    return _make(1, ncols, (tuple(x),), den)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    # [num | den I] reduces to [I | den num^-1], the inverse of num / den.
    augmented = []
    for i, row in enumerate(m.num):
        sparse = _sparse(row)
        sparse[n + i] = m.den
        augmented.append(sparse)
    pivot_rows, pivot_cols = rref_int(augmented)
    if pivot_cols[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return _from_pivots(n, 2 * n, pivot_rows, pivot_cols, offset=n)


def exp_nilpotent(m: Matrix) -> Matrix:
    """Finite exponential sum for nilpotent m: sum of m^k / k! for k < n.

    With m = A / d for the int grid A, the sum is
    sum_k A^k (n-1)!/k! d^(n-1-k) over the one denominator (n-1)! d^(n-1).
    """
    if m.rows != m.cols:
        raise DimensionMismatch("exp of a non-square matrix")
    n = m.rows
    if n == 0:
        return Matrix.identity(0)
    a, d = m.num, m.den
    powers = [Matrix.identity(n).num, a]
    for _ in range(n - 1):
        powers.append(_int_product(powers[-1], a, n))
    if any(map(any, powers[n])):
        raise NotNilpotent("matrix is not nilpotent")
    total = [[0] * n for _ in range(n)]
    weight = 1  # (n-1)!/k! d^(n-1-k), from k = n-1 down to (n-1)! d^(n-1)
    for k in range(n - 1, -1, -1):
        for out, row in zip(total, powers[k]):
            for j, p in enumerate(row):
                out[j] += weight * p
        if k:
            weight *= k * d
    return _make(n, n, tuple(map(tuple, total)), weight)


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


class Subspace(Record):
    """Subspace of Q^n held in canonical form.

    ``rows`` is the basis in reduced row echelon form as one canonical
    integer Matrix (k x n): each row holds ``rows.den`` at its pivot and 0
    at every other pivot column. Two subspaces are equal as sets exactly
    when their Subspace values compare equal, and they hash alike.
    """

    rows: Matrix

    @staticmethod
    def span(ambient_dim: int, vectors) -> "Subspace":
        rows = []
        for v in vectors:
            ints = _integer_vector(v)[0]
            if len(ints) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dim")
            rows.append(_sparse(ints))
        pivot_rows, pivot_cols = rref_int(rows)
        return Subspace(_from_pivots(
            len(pivot_cols), ambient_dim, pivot_rows, pivot_cols
        ))

    @property
    def ambient_dim(self) -> int:
        return self.rows.cols

    @property
    def basis(self) -> tuple:
        """The basis rows as Fraction vectors, built on first read."""
        return self.rows.entries

    @property
    def dim(self) -> int:
        return self.rows.rows

    @property
    def pivots(self) -> list:
        """The pivot column of each basis row."""
        return [next(j for j, a in enumerate(row) if a) for row in self.rows.num]

    def contains(self, vector) -> bool:
        """Whether the vector lies in the span: den times it must equal
        the sum of its entries at the pivots times the basis rows."""
        ints = _integer_vector(vector)[0]
        if len(ints) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dim")
        den = self.rows.den
        rest = [den * a for a in ints]
        for p, row in zip(self.pivots, self.rows.num):
            c = ints[p]
            if c:
                rest = [a - c * b for a, b in zip(rest, row)]
        return not any(rest)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a meet b: the vectors orthogonal to the orthogonal complements of
    both, each complement the kernel of that subspace's integer rows."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = a.ambient_dim
    return kernel_of_rows([
        _sparse(row)
        for s in (a, b)
        for row in kernel_of_rows(map(_sparse, s.rows.num), n).rows.num
    ], n)


def matrix_to_vec(m: Matrix):
    """Flatten by stacking images: components of m(e_1), then m(e_2), ..."""
    return tuple(chain.from_iterable(map(m.col, range(m.cols))))


def square_maps(m: Matrix, n: int) -> tuple:
    """The rows of m, each n^2 long, as n x n maps, undoing
    ``matrix_to_vec``: row entry j*n + i is entry (i, j) of its map."""
    if m.cols != n * n:
        raise DimensionMismatch("row length differs from n x n")
    return tuple(
        _make(n, n, tuple(row[i::n] for i in range(n)), m.den) for row in m.num
    )
