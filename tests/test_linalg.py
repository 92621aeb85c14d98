from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gderive import _kernels, linalg
from gderive._kernels import rref_int
from gderive.algebra import make_algebra
from gderive.derivations import derivation_space
from gderive.errors import DimensionMismatch, InputError, NotNilpotent, SingularMatrix
from gderive.linalg import (
    Matrix,
    Subspace,
    exp_nilpotent,
    format_rational,
    inverse,
    kernel_of_rows,
    matrix_order,
    matrix_to_vec,
    parse_rational,
    rank,
    solve_rows,
    square_maps,
    subspace_intersect,
)

# Coefficient rows, over unknowns (x11,x12,x13,x21,x22,x23,x31,x32,x33), of
# the sixteen linear conditions cutting out the twisted-derivation space of
# the three-dimensional simple algebra at twist parameter 1.
SIXTEEN_AT_1 = [
    {3: 2, 4: -1, 6: 2},
    {1: 1, 2: 2, 5: 2},
    {3: 2, 5: 2, 7: 1},
    {2: 1},
    {3: 2, 7: 1},
    {1: 1, 4: -1},
    {1: 1, 5: 2},
    {0: 2, 1: -1, 3: -2, 7: -1},
    {0: -1, 4: 1, 8: -1},
    {1: 1, 5: 2},
    {1: 1, 2: -2, 5: 2},
    {0: 1, 2: 1, 4: -1, 8: 1},
    {4: 1, 5: 2},
    {4: 1},
    {6: -2, 7: 1},
    {3: 2, 7: 1, 8: 2},
]


def dense(rows, ncols=9):
    return [[row.get(i, 0) for i in range(ncols)] for row in rows]


def naive_rank(rows):
    """Independent rank oracle: plain fraction elimination, no shared code."""
    rows = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [a * inv for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ).map(Matrix.from_rows)


class TestRational:
    def test_round_trip(self):
        for text in ["0", "-1", "7", "3/4", "-22/7"]:
            assert format_rational(parse_rational(text)) == text

    def test_canonical_output(self):
        assert format_rational(Fraction(4, 8)) == "1/2"
        assert format_rational(Fraction(-4, 2)) == "-2"

    @pytest.mark.parametrize("bad", ["+3", "3.5", "1/0", "a", "", " 3", "1/-2", "2/"])
    def test_rejects_noncanonical(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)


class TestRref:
    def test_proportional_rows(self):
        reduced = Subspace.span(2, [[1, 2], [2, 4]])
        assert reduced.dim == 1
        assert reduced.pivots == [0]
        assert reduced.rows == Matrix.from_rows([[1, 2]])

    def test_identity_fixed_point(self):
        ident = Matrix.identity(3)
        reduced = Subspace.span(3, ident.entries)
        assert reduced.rows == ident and reduced.dim == 3
        assert reduced.pivots == [0, 1, 2]

    def test_sixteen_equation_system_rank(self):
        rows = dense(SIXTEEN_AT_1)
        assert naive_rank(rows) == 8
        assert rank(Matrix.from_rows(rows)) == 8

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity_and_idempotence(self, m):
        reduced = Subspace.span(m.cols, m.entries)
        assert rank(m) == reduced.dim
        assert reduced.dim + kernel_of_rows(sparse_rows(m.num), m.cols).dim == m.cols
        again = Subspace.span(m.cols, reduced.basis)
        assert again == reduced


def reference_rref(rows):
    """Leading-1 reduced rows and pivot columns by plain Fraction
    Gauss-Jordan elimination, sharing no code with the kernel."""
    work = [[Fraction(a) for a in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(work)) if work[i][c]), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        lead = work[r][c]
        work[r] = [a / lead for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work[: len(pivots)], pivots


@st.composite
def integer_grids(draw):
    """Tall, wide and empty integer grids with zero rows and columns,
    duplicate and proportional rows, and entries up to 2^70."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    entry = st.one_of(
        st.just(0), st.integers(-3, 3), st.integers(-(2 ** 70), 2 ** 70)
    )
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if ncols:
        zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
        rows = [[0 if c in zero_cols else a for c, a in enumerate(row)] for row in rows]
    if rows:
        for i, k in draw(st.lists(
            st.tuples(st.integers(0, nrows - 1), st.sampled_from([1, -1, 2, 0])),
            max_size=3,
        )):
            rows.append([k * a for a in rows[i]])
    return rows


def sparse_rows(rows, keep_zeros=False):
    """The kernel's input form of a dense integer grid: one dict per row,
    zero entries kept only when asked for."""
    return [{c: a for c, a in enumerate(row) if a or keep_zeros} for row in rows]


class TestRrefInt:
    @given(integer_grids(), st.booleans())
    @example([], False)
    @example([[]], False)
    @example([[0, 0, 0], [0, 0, 0]], True)
    @example([[2 ** 70, 3, 0], [2 ** 70, 3, 0], [0, 0, -(2 ** 69)]], True)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_gauss_jordan(self, rows, keep_zeros):
        sparse = sparse_rows(rows, keep_zeros)
        before = [dict(row) for row in sparse]
        pivot_rows, pivot_cols = rref_int(sparse)
        assert sparse == before
        expected_rows, expected_cols = reference_rref(rows)
        assert pivot_cols == expected_cols
        ncols = len(rows[0]) if rows else 0
        assert len(pivot_rows) == len(expected_rows)
        for row, c, expected in zip(pivot_rows, pivot_cols, expected_rows):
            assert all(0 <= j < ncols for j in row)
            assert all(type(a) is int for a in row.values())
            assert all(row.values())
            assert row[c] > 0
            assert gcd(*row.values()) == 1
            assert [Fraction(row.get(j, 0), row[c]) for j in range(ncols)] == expected
            assert all(row is not r for r in sparse)

    @given(integer_grids(), st.integers(1, 6))
    @example([], 1)
    @example([[]], 1)
    @settings(max_examples=100, deadline=None)
    def test_rank_is_the_pivot_count_of_rref(self, rows, den):
        ncols = len(rows[0]) if rows else 0
        m = Matrix.from_rows([[Fraction(a, den) for a in row] for row in rows])
        assert rank(m) == len(reference_rref(rows)[1])

    def test_empty_and_zero_rows_are_skipped(self):
        rows = [{}, {0: 0, 3: 0}, {2: 4, 5: 0, 7: -6}, {}]
        before = [dict(row) for row in rows]
        assert rref_int(rows) == ([{2: 2, 7: -3}], [2])
        assert rows == before
        assert rref_int([{}, {1: 0}]) == ([], [])
        assert rref_int([]) == ([], [])

    def test_output_rows_are_not_the_input_dicts(self):
        rows = [{0: 1, 2: 3}, {1: 1}]
        pivot_rows, _ = rref_int(rows)
        for row in pivot_rows:
            row.clear()
        assert rows == [{0: 1, 2: 3}, {1: 1}]


@st.composite
def presolve_systems(draw):
    """(ncols, sparse rows) aimed at the presolve: one-entry rows, chains
    {c0: a}, {c0: b, c1: d}, {c1: e, c2: f}, ... that each reach one entry
    once the column before is forced, rows repeated with scale +-k (0
    too, which leaves only zero entries), zero entries and empty rows,
    shuffled."""
    ncols = draw(st.integers(1, 10))
    col = st.integers(0, ncols - 1)
    nonzero = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 40), 2 ** 40)).filter(bool)
    value = st.one_of(st.just(0), nonzero)
    rows = draw(st.lists(st.dictionaries(col, value, max_size=4), max_size=6))
    rows += [{c: draw(nonzero)} for c in draw(st.lists(col, max_size=3))]
    chain = draw(st.lists(col, unique=True, max_size=6))
    if chain:
        rows.append({chain[0]: draw(nonzero)})
        rows += [{a: draw(nonzero), b: draw(nonzero)} for a, b in zip(chain, chain[1:])]
    if rows:
        for i, k in draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1), st.sampled_from([1, -1, 2, -3, 0])),
            max_size=4,
        )):
            rows.append({c: k * a for c, a in rows[i].items()})
    return ncols, draw(st.permutations(rows))


@st.composite
def overdetermined_systems(draw):
    """(ncols, sparse rows): small integer combinations of 1-4 random
    base rows on up to 10 columns, with repeats, shuffled. Most rows are
    dependent, and a row that brings a new pivot often has to clear that
    column from the basis rows kept before it."""
    ncols = draw(st.integers(1, 10))
    base = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
        min_size=1, max_size=4,
    ))
    coeffs = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)),
        min_size=1, max_size=12,
    ))
    rows = []
    for ks in coeffs:
        dense = [sum(k * b[c] for k, b in zip(ks, base)) for c in range(ncols)]
        rows.append({c: a for c, a in enumerate(dense) if a})
    rows += [dict(rows[i]) for i in draw(
        st.lists(st.integers(0, len(rows) - 1), max_size=4)
    )]
    return ncols, draw(st.permutations(rows))


def check_against_reference(ncols, rows):
    """rref_int on sparse ``rows`` agrees with ``reference_rref``, leaves
    the input as it was, and returns fresh primitive rows."""
    before = [dict(row) for row in rows]
    pivot_rows, pivot_cols = rref_int(rows)
    assert rows == before
    expected_rows, expected_cols = reference_rref(
        [[row.get(c, 0) for c in range(ncols)] for row in rows]
    )
    assert pivot_cols == expected_cols
    assert len(pivot_rows) == len(expected_rows)
    for row, c, expected in zip(pivot_rows, pivot_cols, expected_rows):
        assert all(type(a) is int and a for a in row.values())
        assert row[c] > 0
        assert gcd(*row.values()) == 1
        assert [Fraction(row.get(j, 0), row[c]) for j in range(ncols)] == expected
        assert all(row is not r for r in rows)


def count_eliminations(monkeypatch):
    """Count the kernel's elimination steps from here on."""
    calls = []
    eliminate = _kernels._eliminate

    def counting(row, pivot, c):
        calls.append(c)
        return eliminate(row, pivot, c)

    monkeypatch.setattr(_kernels, "_eliminate", counting)
    return calls


def twisted_gl4():
    """gl_4 on the units E_ij (flat index 4i + j) and sigma = Ad P for a
    fixed upper unitriangular P: column (k, l) of sigma holds P E_kl P^-1."""
    n, dim = 4, 16
    structure = {}
    for a in range(dim):
        i, j = divmod(a, n)
        for b in range(a + 1, dim):
            k, l = divmod(b, n)
            vec = [Fraction(0)] * dim
            if j == k:
                vec[i * n + l] += 1
            if l == i:
                vec[k * n + j] -= 1
            if any(vec):
                structure[(a, b)] = dict(enumerate(vec))
    g = make_algebra("gl4", dim, structure)
    p = Matrix.from_rows([
        [1 if r == c else (-1) ** (r + c) if c > r else 0 for c in range(n)]
        for r in range(n)
    ])
    q = inverse(p)
    sigma = Matrix.from_rows([
        [p[i, k] * q[l, j] for k in range(n) for l in range(n)]
        for i in range(n)
        for j in range(n)
    ])
    return g, sigma


class TestPresolve:
    @given(presolve_systems())
    @example((3, []))
    @example((3, [{}, {1: 0}, {2: 5}, {2: -5}]))
    @example((4, [{0: 2, 1: 3}, {1: 4}, {0: -4, 1: -6}, {2: 1, 3: 1}, {3: 7}]))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_gauss_jordan(self, system):
        check_against_reference(*system)

    @given(overdetermined_systems())
    # The second row's new pivot 1 must be cleared from the first's.
    @example((4, [{1: 1, 2: 1, 3: 1}, {0: 1, 1: 1}]))
    @settings(max_examples=150, deadline=None)
    def test_overdetermined_matches_fraction_gauss_jordan(self, system):
        check_against_reference(*system)

    def test_chain_settles_without_elimination(self, monkeypatch):
        calls = count_eliminations(monkeypatch)
        # {0: 2}, {0: 3, 1: -1}, {1: 4, 2: 5}, ...: each row reaches one
        # entry once the column before it is forced to zero.
        rows = [{0: 2}] + [{c: c + 3, c + 1: -(c + 1)} for c in range(11)]
        rows.reverse()
        before = [dict(row) for row in rows]
        assert rref_int(rows) == ([{c: 1} for c in range(12)], list(range(12)))
        assert calls == []
        assert rows == before

    def test_duplicates_up_to_scale_are_dropped(self, monkeypatch):
        calls = count_eliminations(monkeypatch)
        rows = [{0: 1, 1: 2}, {0: -3, 1: -6}, {0: 5, 1: 10}, {1: 0, 0: 0}]
        assert rref_int(rows) == ([{0: 1, 1: 2}], [0])
        assert calls == []

    def test_twisted_gl4_needs_few_eliminations(self, monkeypatch):
        # 3765 nonzero rows over 256 unknowns, rank 254: one-entry rows
        # force 186 of the pivot columns with no arithmetic, and 534
        # distinct rows survive the presolve. Without it the Gauss-Jordan
        # pass takes 11151 eliminations; with it, 1285.
        g, sigma = twisted_gl4()
        calls = count_eliminations(monkeypatch)
        space = derivation_space(g, sigma)
        assert space.dim == 2
        assert len(calls) <= 1300


class TestKernel:
    def test_zero_matrix(self):
        assert kernel_of_rows(sparse_rows(Matrix.zero(2, 2).num), 2).dim == 2

    def test_identity(self):
        assert kernel_of_rows(sparse_rows(Matrix.identity(3).num), 3).dim == 0

    def test_sixteen_equation_kernel(self):
        ker = kernel_of_rows(sparse_rows(dense(SIXTEEN_AT_1)), 9)
        assert ker.dim == 1
        expected = [0, 0, 0, 1, 0, 0, -1, -2, 0]
        assert ker == Subspace.span(9, [expected])

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_of_rows(sparse_rows(m.num), m.cols).basis:
            assert all(a == 0 for a in m.apply(v))


NILPOTENT_B1 = Matrix.from_rows([[0, 1, 0], [0, 0, -2], [0, 0, 0]])
NILPOTENT_C1 = Matrix.from_rows([[0, 0, 0], [-2, 0, 0], [0, 1, 0]])


class TestInverse:
    def test_identity(self):
        assert inverse(Matrix.identity(4)) == Matrix.identity(4)

    def test_involution(self):
        swap = Matrix.from_rows([[0, 1], [1, 0]])
        assert inverse(swap) == swap

    def test_unipotent_inverse_negates_parameter(self):
        plus = exp_nilpotent(NILPOTENT_B1)
        minus = exp_nilpotent(Matrix.zero(3, 3) - NILPOTENT_B1)
        assert inverse(plus) == minus

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            inverse(Matrix.from_rows([[1, 2], [2, 4]]))

    @given(matrices(3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, m):
        if m.rows != m.cols:
            return
        try:
            inv = inverse(m)
        except SingularMatrix:
            return
        assert (m @ inv).is_identity() and (inv @ m).is_identity()


class TestExpNilpotent:
    def test_upper_family(self):
        assert exp_nilpotent(NILPOTENT_B1) == Matrix.from_rows(
            [[1, 1, -1], [0, 1, -2], [0, 0, 1]]
        )

    def test_lower_family(self):
        assert exp_nilpotent(NILPOTENT_C1) == Matrix.from_rows(
            [[1, 0, 0], [-2, 1, 0], [-1, 1, 1]]
        )

    def test_zero(self):
        assert exp_nilpotent(Matrix.zero(3, 3)) == Matrix.identity(3)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            exp_nilpotent(Matrix.identity(2))

    @given(st.lists(small_fractions, min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_exp_of_negation_inverts(self, upper):
        a, b, c = upper
        m = Matrix.from_rows([[0, a, b], [0, 0, c], [0, 0, 0]])
        negated = Matrix.from_rows([[0, -a, -b], [0, 0, -c], [0, 0, 0]])
        assert (exp_nilpotent(m) @ exp_nilpotent(negated)).is_identity()


class TestOrder:
    def test_identity(self):
        assert matrix_order(Matrix.identity(3), 10) == 1

    def test_involution(self):
        diag = Matrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert matrix_order(diag, 10) == 2

    def test_unipotent_has_no_finite_order(self):
        assert matrix_order(exp_nilpotent(NILPOTENT_B1), 50) is None


def reference_product(a, b, ncols):
    """Entries of a @ b by a plain Fraction triple loop, sharing no code
    with Matrix: a is r x n, b is n x ncols, both lists of rows."""
    return [
        [
            sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))),
                Fraction(0))
            for j in range(ncols)
        ]
        for i in range(len(a))
    ]


def reference_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


# Ints (small and up to 2^70) and Fractions over distinct prime
# denominators, so that a dropped or doubled scale factor shows.
exact_scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2 ** 70), 2 ** 70),
    st.builds(
        Fraction,
        st.integers(-(2 ** 70), 2 ** 70),
        st.sampled_from([2, 3, 5, 7, 11, 13, 1009]),
    ),
    small_fractions,
)


def grids(nrows, ncols, entry=exact_scalars):
    return st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


def raw_matrix(grid, ncols):
    """Matrix over the grid's entries as given, ints left as ints."""
    return Matrix.from_rows(grid) if grid else Matrix.zero(0, ncols)


def scaled(m, k):
    """k times m, built from the scaled grid."""
    return raw_matrix([[k * a for a in row] for row in m.entries], m.cols)


def entries_of(m):
    return [list(row) for row in m.entries]


def all_fractions(m):
    return all(type(a) is Fraction for row in m.entries for a in row)


@st.composite
def product_pairs(draw):
    """(a, b, ncols) with a r x n and b n x ncols, any of r, n, ncols 0."""
    r, n, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(grids(r, n)), draw(grids(n, c)), c


@st.composite
def nilpotent_grids(draw):
    """Strictly upper (or, transposed, strictly lower) triangular n x n."""
    n = draw(st.integers(0, 6))
    grid = [
        [draw(exact_scalars) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    if draw(st.booleans()):
        grid = [list(col) for col in zip(*grid)]
    return grid


class TestExactProducts:
    """@, power and exp_nilpotent against plain Fraction references."""

    @given(product_pairs())
    @example(([], [], 3))
    @example(([[], []], [], 2))
    @example(([[1, 2]], [[3], [4]], 1))
    @example(
        ([[Fraction(1, 3), 2 ** 70]], [[Fraction(3, 7)], [Fraction(1, 5)]], 1)
    )
    @settings(max_examples=200, deadline=None)
    def test_matmul_matches_triple_loop(self, pair):
        a, b, ncols = pair
        got = raw_matrix(a, len(b)) @ raw_matrix(b, ncols)
        assert (got.rows, got.cols) == (len(a), ncols)
        assert entries_of(got) == reference_product(a, b, ncols)
        assert all_fractions(got)

    @given(st.integers(0, 4).flatmap(lambda n: grids(n, n)), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_power_matches_repeated_product(self, grid, k):
        n = len(grid)
        expected = reference_identity(n)
        for _ in range(k):
            expected = reference_product(expected, grid, n)
        m = Matrix.from_rows(grid)
        got = Matrix.identity(n)
        for _ in range(k):
            got = got @ m
        assert (got.rows, got.cols) == (n, n)
        assert entries_of(got) == expected
        assert all_fractions(got)

    @given(nilpotent_grids())
    @example([])
    @example([[0]])
    @example([[0, Fraction(1, 2), 2 ** 70], [0, 0, Fraction(1, 3)], [0, 0, 0]])
    @settings(max_examples=100, deadline=None)
    def test_exp_nilpotent_matches_series(self, grid):
        n = len(grid)
        expected = reference_identity(n)
        term = reference_identity(n)
        for k in range(1, n):
            term = [[a / k for a in row] for row in reference_product(term, grid, n)]
            expected = [
                [x + y for x, y in zip(r, t)] for r, t in zip(expected, term)
            ]
        got = exp_nilpotent(raw_matrix(grid, n))
        assert (got.rows, got.cols) == (n, n)
        assert entries_of(got) == expected
        assert all_fractions(got)

    def test_exp_rejects_nonzero_diagonal(self):
        with pytest.raises(NotNilpotent):
            exp_nilpotent(Matrix.from_rows([[0, 1], [0, Fraction(1, 3)]]))

    def test_matmul_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            Matrix.zero(2, 3) @ Matrix.zero(2, 3)


@st.composite
def grid_pairs(draw):
    """Two r x c grids: the second a copy of the first, or the first with
    one entry redrawn (which may leave it equal)."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = draw(grids(r, c))
    b = [list(row) for row in a]
    if r and c and draw(st.booleans()):
        b[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(
            exact_scalars
        )
    return a, b, c


def built_alike(grid, ncols):
    """The same matrix built every way the library builds one."""
    nrows = len(grid)
    raw = raw_matrix(grid, ncols)
    k = Fraction(7, 3)
    return [
        Matrix.from_rows([[Fraction(a) for a in row] for row in grid])
        if nrows else Matrix.zero(0, ncols),
        raw,
        Matrix.identity(nrows) @ raw,
        scaled(raw, k) @ scaled(Matrix.identity(ncols), 1 / k),
        (raw + raw) - raw,
        Matrix.from_json_dict(raw.to_json_dict()),
        raw.transpose().transpose(),
    ]


def canonical(m):
    return m.den > 0 and gcd(m.den, *(a for row in m.num for a in row)) == 1


class TestIntegerBackedMatrix:
    """Equality, hashing and entries of the integer form."""

    @given(grid_pairs())
    @example(([], [], 3))
    @example(([[2 ** 70, Fraction(1, 3)]], [[2 ** 70, Fraction(2, 6)]], 2))
    @settings(max_examples=150, deadline=None)
    def test_equal_and_hash_exactly_when_entries_equal(self, triple):
        a, b, ncols = triple
        for m in built_alike(a, ncols) + built_alike(b, ncols):
            assert all_fractions(m)
            assert canonical(m)
        for x in built_alike(a, ncols):
            assert entries_of(x) == [[Fraction(v) for v in row] for row in a]
            for y in built_alike(b, ncols):
                assert (x == y) == (entries_of(x) == entries_of(y))
                if x == y:
                    assert hash(x) == hash(y)

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_rref_matrix_equals_its_entries(self, m):
        reduced = Subspace.span(m.cols, m.entries).rows
        again = raw_matrix(reduced.entries, m.cols)
        assert all_fractions(reduced) and canonical(reduced)
        assert reduced == again and hash(reduced) == hash(again)
        rows, _ = reference_rref(entries_of(m))
        assert reduced == raw_matrix(rows, m.cols)

    @given(nilpotent_grids())
    @settings(max_examples=80, deadline=None)
    def test_exp_nilpotent_equals_its_entries(self, grid):
        n = len(grid)
        e = exp_nilpotent(raw_matrix(grid, n))
        again = raw_matrix(entries_of(e), n)
        assert all_fractions(e) and canonical(e)
        assert e == again and hash(e) == hash(again)

    def test_distinct_shapes_differ(self):
        assert Matrix.zero(0, 2) != Matrix.zero(0, 3)
        assert Matrix.zero(2, 0) != Matrix.zero(3, 0)
        assert Matrix.zero(1, 2) != Matrix.zero(2, 1)

    def test_entries_are_built_once(self, monkeypatch):
        coerced = []
        real_coerce = linalg._coerce

        def recording_coerce(value):
            coerced.append(real_coerce(value))
            return coerced[-1]

        monkeypatch.setattr(linalg, "_coerce", recording_coerce)
        m = Matrix.from_rows([[1, Fraction(1, 2)], ["3/4", 0]])
        product = m @ m

        def no_fraction(*args):
            raise AssertionError("a second Fraction grid was built")

        # from_rows keeps the grid it coerced as the entries: reading
        # them makes no Fraction.
        monkeypatch.setattr(linalg, "Fraction", no_fraction)
        assert len(coerced) == 4
        assert all(a is b for a, b in zip(chain.from_iterable(m.entries), coerced))
        assert m.entries is m.entries
        monkeypatch.undo()
        # A product builds its entries on first read, once.
        first = product.entries
        assert product.entries is first
        assert first == (
            (Fraction(11, 8), Fraction(1, 2)), (Fraction(3, 4), Fraction(3, 8))
        )

    @pytest.mark.parametrize("num, den, grid", [
        (((2, 4),), 2, [[1, 2]]),
        (((2, 4),), 6, [["1/3", "2/3"]]),
        (((0, 0), (0, 0)), 5, [[0, 0], [0, 0]]),
    ])
    def test_make_brings_its_grid_to_canonical_form(self, num, den, grid):
        made = linalg._make(len(num), len(num[0]), num, den)
        expected = Matrix.from_rows(grid)
        assert canonical(made)
        assert (made.num, made.den) == (expected.num, expected.den)
        assert made == expected and hash(made) == hash(expected)

    def test_attributes_cannot_be_assigned(self):
        m = Matrix.from_rows([[1, Fraction(1, 2)]])
        m.entries  # the cache is filled once, from inside the class
        for name in ("rows", "cols", "entries", "num", "den", "_entries", "x"):
            with pytest.raises(AttributeError):
                setattr(m, name, 1)
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert m == Matrix.from_rows([["1", "1/2"]])


class TestPower:
    SHEAR = Matrix.from_rows([[1, 1], [0, 1]])

    def test_zero_power_is_identity(self):
        assert Matrix.identity(2) @ self.SHEAR == self.SHEAR
        assert all_fractions(Matrix.identity(2))

    def test_positive_powers(self):
        s = self.SHEAR
        assert Matrix.identity(2) @ s == s
        assert s @ s @ s @ s @ s == Matrix.from_rows([[1, 5], [0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix.zero(2, 3) @ Matrix.zero(2, 3)


class TestSubspaces:
    def test_intersect_axes(self):
        x_axis = Subspace.span(2, [[1, 0]])
        y_axis = Subspace.span(2, [[0, 1]])
        assert subspace_intersect(x_axis, y_axis) == Subspace.span(2, [])
        total = Subspace.span(2, x_axis.basis + y_axis.basis)
        assert total == Subspace.span(2, Matrix.identity(2).entries)

    def test_canonical_equality(self):
        a = Subspace.span(3, [[1, 1, 0], [0, 0, 2]])
        b = Subspace.span(3, [[2, 2, 2], [1, 1, 3], [3, 3, 1]])
        assert a == b

    def test_contains(self):
        plane = Subspace.span(3, [[1, 0, 1], [0, 1, 0]])
        assert plane.contains([2, 3, 2])
        assert not plane.contains([1, 0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_intersect(Subspace.span(2, []), Subspace.span(3, []))

    @given(
        st.lists(st.lists(small_fractions, min_size=3, max_size=3), max_size=4),
        st.lists(st.lists(small_fractions, min_size=3, max_size=3), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_modular_law_of_dimensions(self, va, vb):
        a = Subspace.span(3, va)
        b = Subspace.span(3, vb)
        inter = subspace_intersect(a, b)
        total = Subspace.span(3, a.basis + b.basis)
        assert inter.dim + total.dim == a.dim + b.dim
        for v in inter.basis:
            assert a.contains(v) and b.contains(v)
        assert all(total.contains(v) for v in a.basis + b.basis)


# The Fraction versions of the subspace routines that now run on the
# integer canonical form, kept as references. A basis is a tuple of
# leading-1 Fraction vectors in reduced row echelon order.


def integer_row(values) -> dict:
    """Sparse integer row: the exact scalars times the lcm of their
    denominators."""
    row = [Fraction(a) for a in values]
    scale = lcm(*(a.denominator for a in row))
    return {c: a.numerator * (scale // a.denominator) for c, a in enumerate(row) if a}


def fraction_kernel(rows, ncols):
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
    return tuple(tuple(v) for v in basis.values())


def fraction_span(ambient_dim, vectors):
    pivot_rows, pivot_cols = rref_int([integer_row(v) for v in vectors])
    basis = []
    for row, c in zip(pivot_rows, pivot_cols):
        vec = [Fraction(0)] * ambient_dim
        for j, a in row.items():
            vec[j] = Fraction(a, row[c])
        basis.append(tuple(vec))
    return tuple(basis)


def fraction_contains(basis, vector):
    vec = [Fraction(a) for a in vector]
    for row in basis:
        pivot = next(i for i, a in enumerate(row) if a == 1)
        coeff = vec[pivot]
        if coeff:
            for i, a in enumerate(row):
                vec[i] -= coeff * a
    return all(a == 0 for a in vec)


def fraction_intersect(ambient_dim, a, b):
    if not a or not b:
        return ()
    # Kernel vectors (x, y) of [A | -B] satisfy A x = B y, so A x runs
    # over the intersection.
    columns = list(a) + [tuple(-c for c in v) for v in b]
    rows = [integer_row(col[i] for col in columns) for i in range(ambient_dim)]
    vectors = []
    for w in fraction_kernel(rows, len(columns)):
        vec = [Fraction(0)] * ambient_dim
        for coeff, basis_vec in zip(w[: len(a)], a):
            for i, entry in enumerate(basis_vec):
                vec[i] += coeff * entry
        vectors.append(vec)
    return fraction_span(ambient_dim, vectors)


@st.composite
def spanning_sets(draw, n=None):
    """(n, vectors) in Q^n, n from 0 to 4: no vectors, zero vectors,
    repeated and rescaled vectors, and sometimes a full basis."""
    if n is None:
        n = draw(st.integers(0, 4))
    vector = st.lists(small_fractions, min_size=n, max_size=n)
    vectors = draw(st.lists(vector, max_size=4))
    if vectors:
        for i, k in draw(st.lists(
            st.tuples(st.integers(0, len(vectors) - 1),
                      st.sampled_from([1, -1, 2, 0, Fraction(1, 3)])),
            max_size=3,
        )):
            vectors.append([k * a for a in vectors[i]])
    if draw(st.booleans()):
        vectors += reference_identity(n)
    return n, draw(st.permutations(vectors))


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(0, 4))
    return n, draw(spanning_sets(n))[1], draw(spanning_sets(n))[1]


class TestSubspacesAgainstFractions:
    """The integer Subspace routines against their Fraction references."""

    @given(spanning_sets())
    @example((0, []))
    @example((0, [[], []]))
    @example((3, [[0, 0, 0]]))
    @example((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @settings(max_examples=100, deadline=None)
    def test_span(self, case):
        n, vectors = case
        expected = fraction_span(n, vectors)
        space = Subspace.span(n, vectors)
        assert space.basis == expected
        assert all_fractions(space.rows)
        assert space.dim == len(expected)
        assert space.rows == raw_matrix(expected, n)

    @given(integer_grids())
    @example([])
    @example([[]])
    @example([[0, 0], [0, 0]])
    @example([[1, 0], [0, 1]])
    @settings(max_examples=100, deadline=None)
    def test_kernel(self, rows):
        ncols = len(rows[0]) if rows else 0
        sparse = sparse_rows(rows)
        assert kernel_of_rows(sparse, ncols).basis == fraction_kernel(sparse, ncols)

    @given(spanning_sets(), st.data())
    @example((0, []), None)
    @settings(max_examples=100, deadline=None)
    def test_contains(self, case, data):
        n, vectors = case
        space = Subspace.span(n, vectors)
        probe = [0] * n
        if data is not None:
            for v in vectors:
                k = data.draw(small_fractions)
                probe = [a + k * b for a, b in zip(probe, v)]
            if n and data.draw(st.booleans()):
                probe[data.draw(st.integers(0, n - 1))] += 1
        assert space.contains(probe) == fraction_contains(space.basis, probe)

    @given(subspace_pairs())
    @example((0, [], []))
    @example((2, [[1, 0]], []))
    @example((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 1], [2, 2, 2]]))
    @settings(max_examples=100, deadline=None)
    def test_intersect(self, case):
        n, va, vb = case
        a, b = Subspace.span(n, va), Subspace.span(n, vb)
        inter = subspace_intersect(a, b)
        assert inter.basis == fraction_intersect(n, a.basis, b.basis)

    @given(spanning_sets(), st.data())
    @example((0, []), None)
    @example((3, [[1, 2, 3], [1, 2, 3], [-2, -4, -6]]), None)
    @settings(max_examples=100, deadline=None)
    def test_spanning_sets_of_one_space_agree(self, case, data):
        n, vectors = case
        # Reversed, rescaled by nonzero factors, with neighbouring sums
        # and a repeat: the same span from a different spanning set.
        scales = [
            data.draw(small_fractions.filter(bool)) if data else 3
            for _ in vectors
        ]
        other = [[k * a for a in v] for k, v in zip(scales, vectors[::-1])]
        other += [[a + b for a, b in zip(u, v)] for u, v in zip(vectors, vectors[1:])]
        other += vectors[:1]
        a, b = Subspace.span(n, vectors), Subspace.span(n, other)
        assert a == b
        assert hash(a) == hash(b)


class TestSolveAndFlatten:
    def test_solve_consistent(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        x = solve_rows(sparse_rows([[1, 2, 5], [3, 4, 6]]), 2).entries[0]
        assert m.apply(x) == (Fraction(5), Fraction(6))

    def test_solve_inconsistent(self):
        assert solve_rows(sparse_rows([[1, 2, 1], [2, 4, 3]]), 2) is None

    def test_vec_round_trip(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert square_maps(Matrix.from_rows([matrix_to_vec(m)]), 3) == (m,)

    def test_vec_stacks_images(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert matrix_to_vec(m) == (1, 3, 2, 4)


class TestJson:
    def test_round_trip(self):
        m = Matrix.from_rows([["1/2", "-3"], ["0", "7/5"]])
        assert Matrix.from_json_dict(m.to_json_dict()) == m

    def test_bad_grid(self):
        with pytest.raises(DimensionMismatch):
            Matrix.from_json_dict({"rows": 2, "cols": 2, "entries": [["1", "2"]]})

    def test_round_trip_without_rows(self):
        data = {"rows": 0, "cols": 3, "entries": []}
        m = Matrix.from_json_dict(data)
        assert m == Matrix.zero(0, 3)
        assert m.to_json_dict() == data

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix.from_rows([[1, 2], [3]])

    def test_constructor_trusts_and_factories_canonicalise(self):
        # The four-field constructor stores what it is given, unchecked
        # and unreduced; a grid is checked and reduced by a factory.
        raw = Matrix(2, 2, [[1, 2, 3]], 4)
        assert (raw.rows, raw.cols, raw.num, raw.den) == (2, 2, [[1, 2, 3]], 4)
        with pytest.raises(TypeError):
            Matrix(2, 2, [[1, 2]])
        half = Fraction(1, 2)
        assert Matrix(1, 1, ((2,),), 4) != Matrix.from_rows([[half]])
        for made, grid in (
            (Matrix.from_rows([["2/4", -1], [0, 3]]), [[half, "-2/2"], ["0/5", 3]]),
            (Matrix.identity(2), [[1, 0], ["0/3", "4/4"]]),
            (Matrix.zero(2, 3), [["0/7"] * 3, [0] * 3]),
            (linalg._make(2, 2, ((3, -6), (0, 9)), 6), [[half, -1], [0, "3/2"]]),
        ):
            twin = Matrix.from_rows(grid)
            assert canonical(made)
            assert made == twin and hash(made) == hash(twin)

    def test_missing_keys(self):
        with pytest.raises(InputError):
            Matrix.from_json_dict({"rows": 1})
