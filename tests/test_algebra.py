from __future__ import annotations

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gderive.algebra import (
    MAX_DIM,
    ad,
    algebra_from_json_dict,
    algebra_to_json_dict,
    bracket,
    builtin,
    is_automorphism,
    make_algebra,
    require_automorphism,
    validate_lie,
)
from gderive.derivations import (
    abg_space,
    centroid,
    derivation_space,
    quasiderivation_witness,
)
from gderive.errors import (
    DimensionMismatch,
    InputError,
    UnknownName,
    UnvalidatedAutomorphism,
)
from gderive.linalg import Matrix, exp_nilpotent, inverse

# The constants the built-ins are made from, {(i, j): {k: c}} on i < j.
RAW = {
    "sl2": {(0, 1): {0: -1}, (0, 2): {1: 2}, (1, 2): {2: -1}},
    "heisenberg": {(0, 1): {2: 1}},
    "example_4_6": {(0, 1): {1: 1}, (0, 2): {2: 2}},
}

SL2 = builtin("sl2")
HEISENBERG = builtin("heisenberg")

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

vectors3 = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=3,
    max_size=3,
).map(tuple)


def unipotent_upper(b):
    return exp_nilpotent(Matrix.from_rows([[0, b, 0], [0, 0, -2 * b], [0, 0, 0]]))


class TestValidation:
    def test_simple_algebra_satisfies_jacobi(self):
        assert validate_lie(SL2).ok

    def test_abelian_satisfies_jacobi(self):
        assert validate_lie(builtin("abelian(3)")).ok

    def test_tampered_relations_are_caught(self):
        bad = make_algebra(
            "bad", 3, {(0, 1): {0: -1}, (0, 2): {0: 2}, (1, 2): {2: -1}}
        )
        report = validate_lie(bad)
        assert not report.ok
        assert report.violations[0][:3] == (1, 2, 3)


structure_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def perturbed_algebras(draw):
    """A built-in algebra, or a random sparse table on four basis vectors,
    with a few structure constants moved by small fractions, so that many
    draws fail Jacobi, some with fractional residuals."""
    base = draw(st.sampled_from([*RAW, None]))
    if base is None:
        n = 4
        constants = {}
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    vec = draw(st.lists(
                        st.one_of(st.just(Fraction(0)), structure_fractions),
                        min_size=n, max_size=n,
                    ))
                    constants[(i, j)] = dict(enumerate(vec))
    else:
        n = 3
        constants = {pair: dict(ck) for pair, ck in RAW[base].items()}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pair, k, delta in draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(0, n - 1), structure_fractions),
        max_size=2,
    )):
        ck = constants.setdefault(pair, {})
        ck[k] = ck.get(k, 0) + delta
    return make_algebra("perturbed", n, constants)


def reference_violations(g):
    """Jacobi residuals from dense ``bracket`` on every basis triple."""
    basis = Matrix.identity(g.dim).entries
    out = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                ei, ej, ek = basis[i], basis[j], basis[k]
                residual = tuple(
                    a + b + c
                    for a, b, c in zip(
                        bracket(g, bracket(g, ei, ej), ek),
                        bracket(g, bracket(g, ej, ek), ei),
                        bracket(g, bracket(g, ek, ei), ej),
                    )
                )
                if any(residual):
                    out.append((i + 1, j + 1, k + 1, residual))
    return tuple(out)


def reference_is_automorphism(g, m):
    """Nonzero determinant and m[e_i, e_j] = [m e_i, m e_j] by ``bracket``."""
    work = [list(row) for row in m.entries]
    for c in range(g.dim):
        src = next((i for i in range(c, g.dim) if work[i][c]), None)
        if src is None:
            return False
        work[c], work[src] = work[src], work[c]
        for i in range(c + 1, g.dim):
            f = work[i][c] / work[c][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    basis = Matrix.identity(g.dim).entries
    return all(
        m.apply(bracket(g, basis[i], basis[j]))
        == bracket(g, m.apply(basis[i]), m.apply(basis[j]))
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
    )


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def candidate_maps(draw):
    """Algebra and map pairs: Heisenberg automorphisms (singular when
    ad - bc = 0), sl2 unipotent products, and their one-entry
    perturbations, plus random maps on perturbed algebras."""
    kind = draw(st.sampled_from(["heisenberg", "sl2", "random"]))
    if kind == "heisenberg":
        g = HEISENBERG
        a, b, c, d, x, y = (draw(small) for _ in range(6))
        m = Matrix.from_rows([[a, b, 0], [c, d, 0], [x, y, a * d - b * c]])
    elif kind == "sl2":
        g = SL2
        m = unipotent_upper(draw(small)) @ unipotent_upper(draw(small)).transpose()
    else:
        g = draw(perturbed_algebras())
        m = Matrix.from_rows([
            [draw(small) for _ in range(g.dim)] for _ in range(g.dim)
        ])
    if draw(st.booleans()):
        i, j = draw(st.integers(0, g.dim - 1)), draw(st.integers(0, g.dim - 1))
        rows = [list(row) for row in m.entries]
        rows[i][j] += draw(small)
        m = Matrix.from_rows(rows)
    return g, m


class TestAgainstDenseReferences:
    @given(perturbed_algebras())
    @settings(max_examples=150, deadline=None)
    def test_jacobi_violations(self, g):
        violations = validate_lie(g).violations
        assert violations == reference_violations(g)
        for *_, residual in violations:
            assert all(type(a) is Fraction for a in residual)

    @given(candidate_maps())
    @settings(max_examples=150, deadline=None)
    def test_is_automorphism(self, case):
        g, m = case
        assert is_automorphism(g, m) == reference_is_automorphism(g, m)


class TestBracket:
    def test_defining_relations(self):
        assert bracket(SL2, E1, E2) == (-1, 0, 0)
        assert bracket(SL2, E1, E3) == (0, 2, 0)
        assert bracket(SL2, E2, E3) == (0, 0, -1)

    def test_stored_pairs_are_antisymmetric(self):
        basis = Matrix.identity(3).entries
        for (i, j) in RAW["sl2"]:
            forward = bracket(SL2, basis[i], basis[j])
            backward = bracket(SL2, basis[j], basis[i])
            assert backward == tuple(-a for a in forward)

    @given(vectors3)
    @settings(max_examples=40, deadline=None)
    def test_alternating(self, x):
        assert bracket(SL2, x, x) == (0, 0, 0)

    @given(vectors3, vectors3, vectors3)
    @settings(max_examples=40, deadline=None)
    def test_jacobi_extends_bilinearly(self, x, y, z):
        total = tuple(
            a + b + c
            for a, b, c in zip(
                bracket(SL2, bracket(SL2, x, y), z),
                bracket(SL2, bracket(SL2, y, z), x),
                bracket(SL2, bracket(SL2, z, x), y),
            )
        )
        assert total == (0, 0, 0)


class TestAdjoint:
    def test_ad_e1(self):
        assert ad(SL2, E1) == Matrix.from_rows([[0, -1, 0], [0, 0, 2], [0, 0, 0]])

    def test_ad_on_abelian_vanishes(self):
        assert ad(builtin("abelian(3)"), E1).is_zero()

    def test_ad_of_scaled_e1_is_the_upper_nilpotent(self):
        assert ad(SL2, (-1, 0, 0)) == Matrix.from_rows(
            [[0, 1, 0], [0, 0, -2], [0, 0, 0]]
        )

    @given(vectors3, vectors3, vectors3)
    @settings(max_examples=40, deadline=None)
    def test_ad_is_a_derivation(self, x, y, z):
        lhs = ad(SL2, x).apply(bracket(SL2, y, z))
        rhs = tuple(
            a + b
            for a, b in zip(
                bracket(SL2, ad(SL2, x).apply(y), z),
                bracket(SL2, y, ad(SL2, x).apply(z)),
            )
        )
        assert lhs == rhs


class TestStructureTable:
    @pytest.mark.parametrize("name", list(RAW))
    def test_matches_the_bracket_table(self, name):
        g, raw = builtin(name), RAW[name]
        assert g.scale == 1
        for i in range(g.dim):
            for j in range(g.dim):
                if (i, j) in raw:
                    expected = raw[(i, j)]
                else:
                    expected = {k: -c for k, c in raw.get((j, i), {}).items()}
                assert g.table[i].get(j, {}) == expected

    def test_fractions_share_one_scale(self):
        g = make_algebra("x", 3, {
            (1, 2): {0: Fraction(3, 4)},
            (0, 1): {2: Fraction(1, 6), 1: Fraction(-2, 3), 0: 0},
        })
        assert g.scale == 12
        assert g.table == [
            {1: {1: -8, 2: 2}},
            {2: {0: 9}, 0: {1: 8, 2: -2}},
            {1: {0: -9}},
        ]
        # The pairs keep the given order and each pair its k ascending.
        assert list(g.table[1]) == [2, 0]
        assert list(g.table[0][1]) == [1, 2]

    def test_solvers_leave_the_shared_table_alone(self):
        # sl2 with its bracket halved: the same automorphisms, scale 2.
        g = make_algebra("half sl2", 3, {
            (0, 1): {0: Fraction(-1, 2)}, (0, 2): {1: 1}, (1, 2): {2: Fraction(-1, 2)},
        })
        table, kept = g.table, copy.deepcopy(g.table)
        sigma = unipotent_upper(1)
        assert validate_lie(g).ok
        assert is_automorphism(g, sigma)
        assert derivation_space(g, sigma, kind="plus").dim == 1
        d = derivation_space(g, Matrix.identity(g.dim)).basis[0]
        assert centroid(g).dim == 1
        assert abg_space(g, 1, 2, 3).dim == 0
        assert quasiderivation_witness(g, d) is not None
        assert g.table is table and table == kept and g.scale == 2


class TestAutomorphisms:
    def test_identity(self):
        assert is_automorphism(SL2, Matrix.identity(3))

    def test_unipotent_family(self):
        assert is_automorphism(SL2, unipotent_upper(1))

    def test_diagonal_rescaling_fails(self):
        assert not is_automorphism(SL2, Matrix.from_rows(
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
        ))

    def test_singular_map_fails(self):
        assert not is_automorphism(SL2, Matrix.zero(3, 3))

    def test_require_automorphism_validates(self):
        assert require_automorphism(SL2, unipotent_upper(1)) is None
        with pytest.raises(UnvalidatedAutomorphism) as info:
            require_automorphism(SL2, Matrix.from_rows(
                [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
            ))
        assert str(info.value) == "matrix is not an automorphism of the algebra"
        # Singular, and an automorphism of another algebra of the same size.
        with pytest.raises(UnvalidatedAutomorphism):
            require_automorphism(SL2, Matrix.zero(3, 3))
        diagonal = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert is_automorphism(builtin("abelian(3)"), diagonal)
        with pytest.raises(UnvalidatedAutomorphism):
            require_automorphism(SL2, diagonal)

    def test_wrong_size_matrix_does_not_act_on_the_algebra(self):
        assert not is_automorphism(SL2, Matrix.identity(9))
        with pytest.raises(DimensionMismatch) as info:
            require_automorphism(SL2, Matrix.identity(9))
        assert str(info.value) == (
            "matrix does not act on the algebra: "
            "a 9x9 matrix on an algebra of dimension 3"
        )
        with pytest.raises(DimensionMismatch, match="a 3x2 matrix"):
            require_automorphism(SL2, Matrix.zero(3, 2))

    def test_inverse_and_powers(self):
        m, inv = unipotent_upper(1), inverse(unipotent_upper(1))
        assert inv == unipotent_upper(-1)
        assert m @ m @ m == unipotent_upper(3)
        assert inv @ inv == unipotent_upper(-2)
        assert m @ inv == Matrix.identity(3)

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_closed_under_product_and_inverse(self, a, b):
        m1, m2 = unipotent_upper(a), unipotent_upper(b)
        assert is_automorphism(SL2, m1 @ m2)
        assert is_automorphism(SL2, inverse(m1))


class TestBuiltins:
    def test_catalog(self):
        assert SL2.dim == 3 and sum(map(len, SL2.table)) == 6
        assert HEISENBERG.dim == 3 and sum(map(len, HEISENBERG.table)) == 2
        assert builtin("abelian(4)").dim == 4

    def test_unknown(self):
        with pytest.raises(UnknownName):
            builtin("su3")

    def test_abelian_size_bound(self):
        assert builtin(f"abelian({MAX_DIM})").dim == MAX_DIM
        assert builtin("abelian(007)").dim == 7
        for n in (str(MAX_DIM + 1), "1000000", "9" * 5000):
            with pytest.raises(InputError, match="too large"):
                builtin(f"abelian({n})")


class TestJson:
    def test_round_trip(self):
        data = algebra_to_json_dict(SL2)
        assert data == {
            "name": "sl2",
            "dim": 3,
            "brackets": [
                {"left": 1, "right": 2, "result": [["-1", 1]]},
                {"left": 1, "right": 3, "result": [["2", 2]]},
                {"left": 2, "right": 3, "result": [["-1", 3]]},
            ],
        }
        assert algebra_from_json_dict(data) == SL2

    @given(perturbed_algebras())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_keeps_the_table(self, g):
        assert algebra_from_json_dict(algebra_to_json_dict(g)) == g

    def test_repeated_component_index_adds_up(self):
        g = algebra_from_json_dict({
            "name": "x",
            "dim": 3,
            "brackets": [{"left": 1, "right": 2,
                          "result": [["1/2", 3], ["1", 1], ["1/3", 3]]}],
        })
        assert g == make_algebra("x", 3, {(0, 1): {0: 1, 2: Fraction(5, 6)}})
        assert algebra_to_json_dict(g)["brackets"] == [
            {"left": 1, "right": 2, "result": [["1", 1], ["5/6", 3]]},
        ]

    def test_cancelling_pair_drops_out(self):
        g = algebra_from_json_dict({
            "name": "x",
            "dim": 3,
            "brackets": [
                {"left": 1, "right": 2, "result": [["1/2", 3], ["-1/2", 3]]},
                {"left": 1, "right": 3, "result": [["2", 2]]},
            ],
        })
        assert g.table == [{2: {1: 2}}, {}, {0: {1: -2}}]
        assert g.scale == 1
        assert algebra_to_json_dict(g)["brackets"] == [
            {"left": 1, "right": 3, "result": [["2", 2]]},
        ]

    def test_rejects_bad_pair_order(self):
        with pytest.raises(InputError):
            algebra_from_json_dict({
                "name": "x",
                "dim": 2,
                "brackets": [{"left": 2, "right": 1, "result": [["1", 1]]}],
            })

    def test_rejects_out_of_range_component(self):
        with pytest.raises(InputError):
            algebra_from_json_dict({
                "name": "x",
                "dim": 2,
                "brackets": [{"left": 1, "right": 2, "result": [["1", 3]]}],
            })

    def test_rejects_missing_keys(self):
        with pytest.raises(InputError):
            algebra_from_json_dict({"name": "x"})
