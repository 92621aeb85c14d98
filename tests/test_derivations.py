"""Tests for twisted-derivation spaces and the operator constructions.

Dimension and basis expectations were computed independently by solving
the defining identities by hand on the small algebras used here; each
frozen value is annotated with the elimination that produced it.
"""

import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gderive.algebra import (
    ad,
    bracket,
    builtin,
    is_automorphism,
    make_algebra,
)
from gderive.derivations import (
    DerivationSpace,
    abg_space,
    _commutation_rows,
    _identity_rows,
    centroid,
    derivation_space,
    intersection_report,
    is_derivation_pair,
    quasiderivation_witness,
    restrict,
    sigma_bracket,
)
from gderive.errors import (
    DimensionMismatch,
    InputError,
    NotSigmaStable,
    UnvalidatedAutomorphism,
)
from gderive.hilbert import graded_dims
from gderive.linalg import (
    Matrix,
    Subspace,
    exp_nilpotent,
    inverse,
    kernel_of_rows,
    matrix_to_vec,
    solve_rows,
    square_maps,
    subspace_intersect,
)
from gderive.sl2 import Sl2Family, family_sigma

SL2 = builtin("sl2")
HEIS = builtin("heisenberg")
EX46 = builtin("example_4_6")

ID_SL2 = Matrix.identity(SL2.dim)
ID_HEIS = Matrix.identity(HEIS.dim)
ID_EX46 = Matrix.identity(EX46.dim)

# ad(-e1) on sl2; exponentiating gives the unipotent upper family.
D_UPPER = Matrix.from_rows([[0, 1, 0], [0, 0, -2], [0, 0, 0]])
SIGMA_UPPER = exp_nilpotent(D_UPPER)

# Shear automorphism of the Heisenberg algebra: e1 -> e1, e2 -> -e1 + e2.
SHEAR = Matrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])


def sl2_derivation(a, b, c):
    """The general derivation of sl2 in this basis (hand elimination)."""
    return Matrix.from_rows([[a, b, 0], [-2 * c, 0, -2 * b], [0, c, -a]])


def unipotent_upper(b):
    """exp(ad(-b e1)) on sl2."""
    return exp_nilpotent(Matrix.from_rows([[0, b, 0], [0, 0, -2 * b], [0, 0, 0]]))


def heis_automorphisms():
    """A spread of Heisenberg automorphisms used for pair sampling."""
    raw = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, -1, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
        [[0, -1, 0], [1, 0, 0], [3, 5, 1]],
        [[2, 1, 0], [1, 1, 0], [0, -2, 1]],
    ]
    return [Matrix.from_rows(rows) for rows in raw]


class TestDerivationSpaces:
    def test_plain_sl2_dimension_and_family(self):
        space = derivation_space(SL2, ID_SL2)
        assert space.dim == 3
        # Both directions of the span equality.
        for a, b, c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, Fraction(1, 2))]:
            vec = matrix_to_vec(sl2_derivation(a, b, c))
            assert space.subspace.contains(vec)
        for m in space.basis:
            a, b, c = m[0, 0], m[0, 1], m[2, 1]
            assert m == sl2_derivation(a, b, c)

    def test_unipotent_twist_is_one_dimensional(self):
        space = derivation_space(SL2, SIGMA_UPPER)
        expected = Matrix.from_rows([[0, 1, -1], [0, 0, -2], [0, 0, 0]])
        assert space.basis == (expected,)

    @pytest.mark.parametrize("b", [-2, 3, Fraction(3, 5)])
    def test_twisted_family_matches_closed_form(self, b):
        space = derivation_space(SL2, unipotent_upper(b))
        expected = Matrix.from_rows([[0, 1, -b], [0, 0, -2], [0, 0, 0]])
        assert space.basis == (expected,)

    def test_heisenberg_dimensions(self):
        assert derivation_space(HEIS, ID_HEIS).dim == 6
        space = derivation_space(HEIS, SHEAR)
        assert space.dim == 4
        # Family: middle row zero, equal corner entries, (1,3) entry zero.
        for m in space.basis:
            assert m.row(1) == (Fraction(0),) * 3
            assert m[0, 0] == m[2, 2]
            assert m[0, 2] == 0

    def test_reversed_and_diagonal_pairs_are_enforced(self):
        # Both matrices satisfy the identity on every pair (i, j) with
        # i < j, yet fail it on a reversed or diagonal pair; the solver
        # must reject them when sigma != tau.
        fails_reversed = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 1]])
        fails_diagonal = Matrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        basis = Matrix.identity(3).entries
        for m in (fails_reversed, fails_diagonal):
            for i in range(3):
                for j in range(i + 1, 3):
                    lhs = m.apply(bracket(HEIS, basis[i], basis[j]))
                    rhs = tuple(
                        p + q
                        for p, q in zip(
                            bracket(HEIS, m.apply(basis[i]),
                                    SHEAR.apply(basis[j])),
                            bracket(HEIS, basis[i], m.apply(basis[j])),
                        )
                    )
                    assert lhs == rhs
            assert not is_derivation_pair(HEIS, m, SHEAR, ID_HEIS)
            assert not derivation_space(HEIS, SHEAR).subspace.contains(
                matrix_to_vec(m)
            )

    def test_example_4_6_dimension_and_form(self):
        space = derivation_space(EX46, ID_EX46)
        assert space.dim == 4
        for m in space.basis:
            assert m.row(0) == (Fraction(0),) * 3
            assert m[1, 2] == 0 and m[2, 1] == 0

    def test_guards(self):
        with pytest.raises(InputError):
            derivation_space(HEIS, Matrix.identity(3), kind="sideways")
        with pytest.raises(DimensionMismatch):
            is_derivation_pair(SL2, Matrix.identity(2), ID_SL2, ID_SL2)

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_solver_output_passes_checker(self, i, j):
        autos = heis_automorphisms()
        sigma, tau = autos[i], autos[j]
        space = derivation_space(HEIS, sigma, tau)
        for m in space.basis:
            assert is_derivation_pair(HEIS, m, sigma, tau)


    def test_unknown_kind_is_an_input_error_before_assembly(self, monkeypatch):
        import gderive.derivations

        def no_assembly(*args):
            raise AssertionError("the system was assembled")

        monkeypatch.setattr(gderive.derivations, "_identity_rows", no_assembly)
        with pytest.raises(InputError) as info:
            derivation_space(SL2, ID_SL2, kind="bogus")
        assert type(info.value) is InputError
        assert str(info.value) == "unknown kind 'bogus'"


class TestTwistTransport:
    def test_twist_lands_in_untwisted_space(self):
        autos = heis_automorphisms()
        for sigma in autos[:4]:
            for tau in autos[2:]:
                space = derivation_space(HEIS, sigma, tau)
                rho = inverse(tau) @ sigma
                target = derivation_space(HEIS, rho)
                assert space.dim == target.dim
                for m in space.basis:
                    assert target.subspace.contains(
                        matrix_to_vec(inverse(tau) @ m)
                    )

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_twist_preserves_dimension(self, i, j):
        autos = heis_automorphisms()
        sigma, tau = autos[i], autos[j]
        rho = inverse(tau) @ sigma
        assert (
            derivation_space(HEIS, sigma, tau).dim
            == derivation_space(HEIS, rho).dim
        )

    def test_sigma_bracket_closes_and_jacobi(self):
        # The transported bracket lives on the doubly twisted space.
        space = derivation_space(SL2, SIGMA_UPPER, SIGMA_UPPER)
        assert space.dim == 3
        mats = space.basis
        inv = inverse(SIGMA_UPPER)
        for x in mats:
            for y in mats:
                b = sigma_bracket(x, y, inv)
                assert space.subspace.contains(matrix_to_vec(b))
                assert (b + sigma_bracket(y, x, inv)).is_zero()
                assert is_derivation_pair(SL2, b, SIGMA_UPPER, SIGMA_UPPER)
        for x in mats:
            for y in mats:
                for z in mats:
                    total = (
                        sigma_bracket(x, sigma_bracket(y, z, inv), inv)
                        + sigma_bracket(y, sigma_bracket(z, x, inv), inv)
                        + sigma_bracket(z, sigma_bracket(x, y, inv), inv)
                    )
                    assert total.is_zero()

    def test_sigma_bracket_and_twist_read_sigma_through_its_inverse(self):
        # sigma [sigma^-1 D, sigma^-1 T] = D sigma^-1 T - T sigma^-1 D, from
        # the inverse the caller passes.
        inv = inverse(SIGMA_UPPER)
        mats = derivation_space(SL2, SIGMA_UPPER, SIGMA_UPPER).basis
        for x in mats:
            for y in mats:
                a, b = inv @ x, inv @ y
                assert sigma_bracket(x, y, inv) == SIGMA_UPPER @ (a @ b - b @ a)

    def test_conjugation_transport(self):
        # Composing with sigma^{-1} carries the doubly twisted space onto
        # the plain one and intertwines the two brackets.
        doubly = derivation_space(SL2, SIGMA_UPPER, SIGMA_UPPER)
        plain = derivation_space(SL2, ID_SL2)
        assert doubly.dim == plain.dim
        inv = inverse(SIGMA_UPPER)
        for m in doubly.basis:
            assert is_derivation_pair(SL2, inv @ m, ID_SL2, ID_SL2)
        for m in plain.basis:
            assert is_derivation_pair(
                SL2, SIGMA_UPPER @ m, SIGMA_UPPER, SIGMA_UPPER
            )
        for x in doubly.basis:
            for y in doubly.basis:
                lhs = inv @ sigma_bracket(x, y, inv)
                a, b = inv @ x, inv @ y
                assert lhs == a @ b - b @ a


class TestInverseOnce:
    def test_thm13_row_inverts_sigma_once(self, monkeypatch):
        import gderive.linalg
        from gderive.reproduce import run

        original = gderive.linalg.inverse
        calls = []

        def counting(m):
            calls.append(m)
            return original(m)

        for name, module in list(sys.modules.items()):
            if name.startswith("gderive") and vars(module).get("inverse") is original:
                monkeypatch.setattr(module, "inverse", counting)
        (row,) = run(["thm1.3"])
        assert row.ok
        assert len(calls) == 1


class TestCentroid:
    def test_heisenberg_centroid(self):
        space = centroid(HEIS)
        assert space.dim == 3
        # Scalars plus the two maps sending e1, e2 into the center.
        for m in space.basis:
            assert m[0, 0] == m[1, 1] == m[2, 2]
            assert m[0, 1] == m[0, 2] == m[1, 0] == m[1, 2] == 0
            assert m[2, 0] is not None
        # e1 -> e2 commutes with left multiplications on pairs (i, j),
        # i < j, but fails against the diagonal pair (e1, e1).
        shift = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        e1 = (Fraction(1), Fraction(0), Fraction(0))
        assert bracket(HEIS, shift.apply(e1), e1) != shift.apply(
            bracket(HEIS, e1, e1)
        )
        assert not space.subspace.contains(matrix_to_vec(shift))

    def test_sl2_centroid_is_scalars(self):
        space = centroid(SL2)
        assert space.basis == (Matrix.identity(3),)

    @pytest.mark.parametrize("g", [HEIS, SL2, EX46])
    def test_centroid_commutes_with_adjoints(self, g):
        basis = Matrix.identity(g.dim).entries
        for m in centroid(g).basis:
            for x in basis:
                assert m @ ad(g, x) == ad(g, x) @ m


class TestPhi:
    def test_phi_identity(self):
        # [D, ad x] = sigma ad(sigma^{-1} D x) = ad(D x) sigma.
        space = derivation_space(SL2, SIGMA_UPPER)
        basis = Matrix.identity(3).entries
        for d in space.basis:
            for x in basis:
                phi = ad(SL2, inverse(SIGMA_UPPER).apply(d.apply(x)))
                lhs = d @ ad(SL2, x) - ad(SL2, x) @ d
                assert lhs == SIGMA_UPPER @ phi
                assert lhs == ad(SL2, d.apply(x)) @ SIGMA_UPPER

class TestQuasiderivations:
    def test_derivation_is_its_own_witness(self):
        # sl2 is perfect, so the witness is unique; for a derivation it
        # must be the derivation itself.
        assert quasiderivation_witness(SL2, D_UPPER) == D_UPPER

    def test_frozen_witness_for_projection(self):
        e11 = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert quasiderivation_witness(SL2, e11) == Matrix.from_rows(
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
        )

    def test_no_witness_example(self):
        # e2 -> e1 forces a nonzero value on the vanishing bracket
        # [e2, e3], so no witness can exist.
        e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert quasiderivation_witness(EX46, e12) is None

    @given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_center_preserving_heisenberg_maps_are_quasi(self, flat):
        # Maps sending the centre into itself always admit a witness:
        # the vanishing brackets [e1,e3], [e2,e3] then impose nothing.
        flat = list(flat)
        flat[2] = flat[5] = 0
        d = Matrix.from_rows(
            [[Fraction(a) for a in flat[k: k + 3]] for k in (0, 3, 6)]
        )
        t = quasiderivation_witness(HEIS, d)
        assert t is not None
        basis = Matrix.identity(3).entries
        for i in range(3):
            for j in range(i + 1, 3):
                lhs = t.apply(bracket(HEIS, basis[i], basis[j]))
                rhs = tuple(
                    p + q
                    for p, q in zip(
                        bracket(HEIS, d.apply(basis[i]), basis[j]),
                        bracket(HEIS, basis[i], d.apply(basis[j])),
                    )
                )
                assert lhs == rhs

    def test_abelian_returns_zero(self):
        g = builtin("abelian(3)")
        assert quasiderivation_witness(g, Matrix.identity(3)) == Matrix.zero(3, 3)


class TestAbgSpaces:
    def test_shifted_automorphism_space_matches_abg(self):
        # sigma = a * id + nilpotent correction with a = 2 turns the
        # twisted identity into the (1, 2, 1) generalized one.
        sigma = Matrix.from_rows([[2, 0, 0], [0, 2, 0], [1, 0, 4]])
        assert derivation_space(HEIS, sigma).subspace == abg_space(
            HEIS, 1, 2, 1
        ).subspace

    @pytest.mark.parametrize("g,ident", [(HEIS, ID_HEIS), (SL2, ID_SL2)])
    def test_abg_1_1_1_is_plain(self, g, ident):
        assert abg_space(g, 1, 1, 1).subspace == derivation_space(
            g, ident
        ).subspace

    def test_asymmetric_weights_need_all_pairs(self):
        # (0, 1, -1) solutions commute with every right multiplication;
        # on the Heisenberg algebra the diagonal pair (e1, e1) rules out
        # e1 -> e2, which satisfies all i < j constraints.
        space = abg_space(HEIS, 0, 1, -1)
        assert space.dim == 4
        shift = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        assert not space.subspace.contains(matrix_to_vec(shift))

    def test_scaling_invariance(self):
        assert abg_space(HEIS, 2, 2, 2).subspace == abg_space(
            HEIS, 1, 1, 1
        ).subspace


# Directions x with ad(x) nilpotent, so exp(b ad x) is an inner automorphism.
NILPOTENT_DIRECTIONS = {
    "sl2": [(1, 0, 0), (0, 0, 1)],
    "heisenberg": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "example_4_6": [(0, 1, 0), (0, 0, 1)],
}


@st.composite
def inner_automorphisms(draw, g):
    direction = draw(st.sampled_from(NILPOTENT_DIRECTIONS[g.name]))
    x = tuple(draw(st.integers(-2, 2)) * a for a in direction)
    return exp_nilpotent(ad(g, x))


def elementary_grid(g, alpha, beta, gamma, sigma, tau):
    """Dense Fraction rows of alpha D[x,y] = beta [Dx, sigma y] + gamma [tau x, Dy].

    Column c of the system is the residual of the elementary matrix with
    flat index c, evaluated with ``bracket`` on every ordered basis pair.
    """
    n = g.dim
    basis = Matrix.identity(n).entries
    columns = []
    for d in square_maps(Matrix.identity(n * n), n):
        column = []
        for i in range(n):
            for j in range(n):
                lhs = d.apply(bracket(g, basis[i], basis[j]))
                left = bracket(g, d.apply(basis[i]), sigma.apply(basis[j]))
                right = bracket(g, tau.apply(basis[i]), d.apply(basis[j]))
                column.extend(
                    alpha * a - beta * b - gamma * r
                    for a, b, r in zip(lhs, left, right)
                )
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def elementary_reference(g, alpha, beta, gamma, sigma, tau):
    """Solutions of alpha D[x,y] = beta [Dx, sigma y] + gamma [tau x, Dy]."""
    grid = elementary_grid(g, alpha, beta, gamma, sigma, tau)
    return kernel_of_rows(grid_rows(grid), g.dim ** 2)


def grid_rows(grid):
    """A Fraction grid as the sparse integer rows {column: int} that
    kernel_of_rows and solve_rows take: the integer grid of its Matrix."""
    return [
        {c: a for c, a in enumerate(row) if a} for row in Matrix.from_rows(grid).num
    ]


def elementary_rows(n, condition):
    """Dense rows, over the n^2 flat unknowns, of the linear condition
    ``condition(D) == 0``, whose value is a tuple of scalars."""
    columns = [
        condition(d) for d in square_maps(Matrix.identity(n * n), n)
    ]
    return [list(row) for row in zip(*columns)]


class TestAssemblerAgainstElementaryMatrices:
    @given(st.sampled_from([SL2, HEIS, EX46]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_solvers_match_reference(self, g, data):
        sigma = data.draw(inner_automorphisms(g))
        tau = data.draw(inner_automorphisms(g))
        abg = data.draw(st.tuples(*[st.integers(-2, 2)] * 3))
        ident = Matrix.identity(g.dim)
        cases = [
            (derivation_space(g, sigma, tau), (1, 1, 1, sigma, tau)),
            (derivation_space(g, sigma, sigma), (1, 1, 1, sigma, sigma)),
            (derivation_space(g, Matrix.identity(g.dim)), (1, 1, 1, ident, ident)),
            (centroid(g), (1, 1, 0, ident, ident)),
            (abg_space(g, *abg), (*abg, ident, ident)),
        ]
        for space, identity in cases:
            assert space.subspace == elementary_reference(g, *identity)

    @given(st.sampled_from([SL2, HEIS, EX46]), st.sampled_from(["plain", "plus"]),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_subspace_is_the_span_of_its_basis_maps(self, g, kind, data):
        """The reproduce rows test membership in ``space.subspace`` where
        they once spanned ``space.basis``: the two are one subspace."""
        first = data.draw(inner_automorphisms(g))
        second = data.draw(inner_automorphisms(g))
        sigma = first @ second
        space = derivation_space(g, sigma, kind=kind)
        span = Subspace.span(g.dim ** 2, [matrix_to_vec(m) for m in space.basis])
        assert span == space.subspace


class TestPowersAreAutomorphisms:
    """``graded_dims`` hands each power sigma^k to ``derivation_space``,
    which checks it: a power of an automorphism is one, so each passes."""

    @given(st.sampled_from([SL2, HEIS]), st.sampled_from(["plain", "plus"]),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_each_power_in_the_window_passes_the_check(self, g, kind, data):
        first = data.draw(inner_automorphisms(g))
        second = data.draw(inner_automorphisms(g))
        sigma = first @ second
        gd = graded_dims(g, sigma, kind, window=2)
        for k, dim in gd.dims.items():
            base = sigma if k >= 0 else inverse(sigma)
            m = Matrix.identity(g.dim)
            for _ in range(abs(k)):
                m = m @ base
            assert is_automorphism(g, m)
            assert derivation_space(g, m, kind=kind).dim == dim


class TestIdentityRows:
    """The assembled rows carry no zero entry and no empty row, and span
    the same conditions as the dense reference."""

    SIGMA_B1 = family_sigma(Sl2Family.fixed("b", b=1))
    INNER_EX46 = exp_nilpotent(ad(EX46, (0, 1, 0)))

    @pytest.mark.parametrize("g, alpha, beta, gamma, sigma, tau", [
        (SL2, 1, 1, 1, SIGMA_B1, ID_SL2),
        (SL2, 1, 1, 0, ID_SL2, ID_SL2),
        (SL2, 2, 1, -1, SIGMA_B1, SIGMA_B1),
        (HEIS, 1, 1, 1, SHEAR, ID_HEIS),
        (HEIS, 0, 1, -1, ID_HEIS, ID_HEIS),
        (EX46, 1, 1, 1, INNER_EX46, ID_EX46),
        (EX46, 1, 2, 1, ID_EX46, INNER_EX46),
    ], ids=[
        "sl2-twisted", "sl2-centroid", "sl2-abg", "heisenberg-twisted",
        "heisenberg-abg", "example_4_6-twisted", "example_4_6-abg",
    ])
    def test_no_zero_entries_or_empty_rows(self, g, alpha, beta, gamma, sigma, tau):
        rows = _identity_rows(g, alpha, beta, gamma, sigma, tau)
        assert all(rows)
        assert all(a for row in rows for a in row.values())
        assert kernel_of_rows(rows, g.dim ** 2) == elementary_reference(
            g, alpha, beta, gamma, sigma, tau
        )


small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
sparse_rationals = st.one_of(st.just(Fraction(0)), small_rationals)


@st.composite
def random_brackets(draw):
    """Antisymmetric structure constants on 1 to 3 basis vectors, often
    zero; the Jacobi identity is not required."""
    n = draw(st.integers(1, 3))
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = tuple(draw(sparse_rationals) for _ in range(n))
            if any(vec):
                structure[(i, j)] = dict(enumerate(vec))
    return make_algebra("random", n, structure)


@st.composite
def unipotent_maps(draw, g):
    """Upper unitriangular maps. Random brackets rarely admit one as an
    automorphism: the assembled systems are linear in D for any invertible
    map, and the solvers reject a map that is no automorphism of g."""
    n = g.dim
    return Matrix.from_rows([
        [1 if r == c else draw(sparse_rationals) if c > r else 0 for c in range(n)]
        for r in range(n)
    ])


@st.composite
def transported_automorphisms(draw):
    """An algebra isomorphic to a built-in: lam [x, y] carried along a
    unipotent change of basis P, so [u, v] = P lam [P^-1 u, P^-1 v]; and
    two of its automorphisms P exp(ad x) P^-1. Its structure constants,
    both automorphisms and P carry denominators."""
    g0 = draw(st.sampled_from([SL2, HEIS, EX46]))
    n = g0.dim
    lam = draw(small_rationals.filter(bool))
    p = draw(unipotent_maps(g0))
    q = inverse(p)
    columns = q.transpose().entries
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            image = p.apply(bracket(g0, columns[i], columns[j]))
            if any(image):
                constants[(i, j)] = {k: lam * c for k, c in enumerate(image) if c}
    g = make_algebra("transported", n, constants)

    def inner():
        direction = draw(st.sampled_from(NILPOTENT_DIRECTIONS[g0.name]))
        x = tuple(draw(small_rationals) * a for a in direction)
        return p @ exp_nilpotent(ad(g0, x)) @ q

    return g, inner(), inner()


class TestSolversAgainstDenseGrids:
    """Each solver against kernel_of_rows (or solve_rows) on a dense
    Fraction grid assembled from ``bracket`` alone."""

    @given(random_brackets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_solver_matches_its_dense_grid(self, g, data):
        n = g.dim
        s = data.draw(unipotent_maps(g))
        t = data.draw(unipotent_maps(g))
        one = Matrix.identity(g.dim)

        def reference(*blocks):
            return kernel_of_rows(grid_rows([r for b in blocks for r in b]), n * n)

        twisted = elementary_grid(g, 1, 1, 1, s, one)
        commutes = {
            m: elementary_rows(n, lambda d, m=m: matrix_to_vec(d @ m - m @ d))
            for m in (s, t)
        }
        # derivation_space's arguments, the rows it assembles from them,
        # and the dense grids of the same conditions.
        cases = [
            ((s, t), {}, [_identity_rows(g, 1, 1, 1, s, t)],
             [elementary_grid(g, 1, 1, 1, s, t)]),
            ((s, s), {}, [_identity_rows(g, 1, 1, 1, s, s)],
             [elementary_grid(g, 1, 1, 1, s, s)]),
            ((s,), {"kind": "plus"},
             [_identity_rows(g, 1, 1, 1, s, one), _commutation_rows(n, s)],
             [twisted, commutes[s]]),
            ((s,), {"kind": "minus", "gens": (s, t)},
             [_identity_rows(g, 1, 1, 1, s, one), _commutation_rows(n, s),
              _commutation_rows(n, t)],
             [twisted, commutes[s], commutes[t]]),
        ]
        for args, kwargs, blocks, grids in cases:
            expected = reference(*grids)
            # The assembled system holds for any invertible maps ...
            assert kernel_of_rows([r for b in blocks for r in b], n * n) == expected
            # ... and the solver solves it for automorphisms of g only.
            if all(is_automorphism(g, m) for m in args + kwargs.get("gens", ())):
                assert derivation_space(g, *args, **kwargs).subspace == expected
            else:
                with pytest.raises(UnvalidatedAutomorphism):
                    derivation_space(g, *args, **kwargs)
        assert centroid(g).subspace == reference(elementary_grid(g, 1, 1, 0, one, one))
        abg = data.draw(st.tuples(*[st.integers(-2, 2)] * 3))
        assert abg_space(g, *abg).subspace == reference(
            elementary_grid(g, *abg, one, one)
        )

        d = Matrix.from_rows([[data.draw(sparse_rationals) for _ in range(n)]
                              for _ in range(n)])
        basis = one.entries
        rhs = [
            a + b
            for i in range(n)
            for j in range(n)
            for a, b in zip(bracket(g, d.apply(basis[i]), basis[j]),
                            bracket(g, basis[i], d.apply(basis[j])))
        ]
        grid = elementary_grid(g, 1, 0, 0, one, one)
        solution = solve_rows(
            grid_rows([row + [b] for row, b in zip(grid, rhs)]), n * n
        )
        expected = None if solution is None else square_maps(solution, n)[0]
        assert quasiderivation_witness(g, d) == expected

    @given(transported_automorphisms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_derivation_pair_check_agrees_with_the_space(self, drawn, data):
        # The structure constants, sigma and tau carry denominators, so
        # every scale of the integer-column check is exercised.
        g, sigma, tau = drawn
        n = g.dim
        space = derivation_space(g, sigma, tau)
        member = Matrix.zero(n, n)
        for d in space.basis:
            k = data.draw(small_rationals)
            member = member + Matrix.from_rows([[k * a for a in row] for row in d.entries])
        other = Matrix.from_rows([[data.draw(sparse_rationals) for _ in range(n)]
                                  for _ in range(n)])
        for m in (member, other, member + other):
            assert is_derivation_pair(g, m, sigma, tau) == space.subspace.contains(
                matrix_to_vec(m)
            )


def gl_algebra(n):
    """gl_n on the units E_ij (flat index i*n + j), with
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    dim = n * n
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
    return make_algebra(f"gl{n}", dim, structure)


def twisted_gl4():
    """gl_4 and sigma = Ad P for an upper unitriangular P: column (k, l)
    of sigma holds P E_kl P^-1."""
    n = 4
    g = gl_algebra(n)
    p = Matrix.from_rows([
        [1 if r == c else (-1) ** (r + c) if c > r else 0 for c in range(n)]
        for r in range(n)
    ])
    q = inverse(p)
    return g, Matrix.from_rows([
        [p[i, k] * q[l, j] for k in range(n) for l in range(n)]
        for i in range(n)
        for j in range(n)
    ])


class TestSparseSystemMemory:
    def test_twisted_gl4_solve_peaks_below_3_mib(self):
        # The system has 4096 rows over 256 unknowns; a dense grid of it
        # alone needs more than 8 MiB of list slots.
        n = 4
        g, sigma = twisted_gl4()
        tracemalloc.start()
        try:
            space = derivation_space(g, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20
        # The dense Fraction assembly finds the same two-dimensional space.
        assert space.dim == 2
        # Each basis map satisfies the identity, checked apart from the
        # assembler; adding the identity map, which is no twisted
        # derivation of gl_4, breaks it.
        ident = Matrix.identity(g.dim)
        for d in space.basis:
            assert is_derivation_pair(g, d, sigma, ident)
            assert not is_derivation_pair(g, d + Matrix.identity(n * n), sigma, ident)


class TestFractionFree:
    def test_twisted_gl4_solve_makes_no_fraction_until_read(self, monkeypatch):
        # Assembly, kernels, spans, membership, intersection, the solve,
        # restriction and basis maps all run on integers; Fractions appear
        # only where a caller reads entries or the Subspace basis.
        g, sigma = twisted_gl4()
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        space = derivation_space(g, sigma)
        h, d = space.subspace, space.basis[0]
        assert space.dim == 2
        assert subspace_intersect(h, h) == Subspace.span(256, h.rows.num) == h
        assert all(map(h.contains, h.rows.num))
        assert restrict(d, Subspace.span(16, Matrix.identity(16).num)) == d
        assert quasiderivation_witness(g, Matrix.identity(16)) is not None
        assert made == []
        space.basis[0].entries
        assert len(made) == 16 * 16
        space.subspace.basis
        assert len(made) == 3 * 16 * 16


class TestStabilizedAndRestrict:
    H_EX46 = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])

    def test_restrict_values(self):
        assert restrict(ad(EX46, (1, 0, 0)), self.H_EX46) == Matrix.from_rows(
            [[1, 0], [0, 2]]
        )
        restrictions = [
            restrict(m, self.H_EX46).entries
            for m in derivation_space(EX46, ID_EX46).basis
        ]
        zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        diag_a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
        diag_b = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
        assert sorted(restrictions) == sorted([zero, zero, diag_a, diag_b])

    def test_restrict_rejects_unstable_map(self):
        e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(NotSigmaStable):
            restrict(e12, self.H_EX46)


class TestCommutatorAndInteriors:
    def test_commutator_nonzero_but_derived_killed(self):
        d = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        space = derivation_space(HEIS, SHEAR)
        assert space.subspace.contains(matrix_to_vec(d))
        comm = d @ SHEAR - SHEAR @ d
        assert not comm.is_zero()
        # The derived algebra of the Heisenberg algebra is span(e3).
        assert comm.col(2) == (0, 0, 0)

    def test_twisted_sl2_family_commutes(self):
        space = derivation_space(SL2, SIGMA_UPPER)
        for m in space.basis:
            assert (m @ SIGMA_UPPER - SIGMA_UPPER @ m).is_zero()
        assert derivation_space(SL2, SIGMA_UPPER, kind="plus").subspace == (
            space.subspace
        )
        assert derivation_space(
            SL2, SIGMA_UPPER, kind="minus", gens=(SIGMA_UPPER,)
        ).subspace == space.subspace

    def test_minus_interior_cuts(self):
        # Requiring commutation with an order-2 diagonal twist cuts the
        # shear space down to the maps commuting with both.
        extra = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]])
        full = derivation_space(HEIS, SHEAR)
        cut = derivation_space(HEIS, SHEAR, kind="minus", gens=(extra,))
        assert cut.dim < full.dim
        for m in cut.basis:
            assert (m @ extra - extra @ m).is_zero()


class TestIntersections:
    def test_plain_meets_twisted_trivially(self):
        report = intersection_report(
            SL2, ID_SL2, SIGMA_UPPER, witness=(1, 0, 0)
        )
        assert report.dimension == 0
        assert report.witness_in_centralizer is True

    def test_centroid_meets_twisted_space(self):
        inter = subspace_intersect(
            centroid(HEIS).subspace, derivation_space(HEIS, SHEAR).subspace
        )
        assert inter.dim == 2

    def test_space_meets_itself(self):
        space = derivation_space(HEIS, SHEAR)
        report = intersection_report(HEIS, SHEAR, SHEAR)
        assert report.dimension == space.dim


class TestAutomorphismChecks:
    """Each solver checks sigma, tau and the generators against the algebra
    it solves on. diag(2, 1, 1) is an automorphism of abelian(3), not of
    sl2; a singular map is an automorphism of no algebra."""

    FOREIGN = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    SINGULAR = Matrix.zero(3, 3)

    @pytest.mark.parametrize("bad", ["FOREIGN", "SINGULAR"])
    @pytest.mark.parametrize("slot", ["sigma", "tau", "gens"])
    def test_derivation_space_checks_each_slot(self, slot, bad):
        args = {"sigma": SIGMA_UPPER, "tau": ID_SL2, "gens": (SIGMA_UPPER,)}
        args[slot] = (getattr(self, bad),) if slot == "gens" else getattr(self, bad)
        with pytest.raises(UnvalidatedAutomorphism) as info:
            derivation_space(SL2, kind="minus", **args)
        assert str(info.value) == "matrix is not an automorphism of the algebra"

    def test_a_foreign_sigma_raises(self):
        assert derivation_space(builtin("abelian(3)"), self.FOREIGN).dim == 9
        with pytest.raises(UnvalidatedAutomorphism):
            derivation_space(SL2, self.FOREIGN)

    @pytest.mark.parametrize("bad", ["FOREIGN", "SINGULAR"])
    def test_pair_check_and_intersection_check_sigma_and_tau(self, bad):
        bad = getattr(self, bad)
        for sigma, tau in ((bad, SIGMA_UPPER), (SIGMA_UPPER, bad)):
            with pytest.raises(UnvalidatedAutomorphism):
                is_derivation_pair(SL2, Matrix.zero(3, 3), sigma, tau)
            with pytest.raises(UnvalidatedAutomorphism):
                intersection_report(SL2, sigma, tau, witness=(1, 0, 0))
