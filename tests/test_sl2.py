"""Tests for the sl2 twisted-derivation case study.

Every frozen matrix, ideal basis, and dimension below was recomputed
independently through the linear solver or by hand elimination before
being asserted here.  Recorded literature claims that disagree with the
computed values are asserted exactly as disagreeing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gderive import reproduce
from gderive.algebra import builtin
from gderive.derivations import derivation_space, is_derivation_pair
from gderive.errors import GDeriveError, InputError, ZeroParameterA
from gderive.linalg import Matrix, exp_nilpotent, matrix_to_vec
from gderive.polynomials import (
    Ideal,
    MultiPoly,
    contains,
    groebner,
    member,
    poly_from_string,
)
from gderive.sl2 import (
    FAMILIES,
    RING_ONE_PARAM,
    RING_TWO_PARAM,
    X_VARS,
    Sl2Family,
    classify_derivation,
    derivation_ideal,
    derivation_matrix,
    family_sigma,
    fixed_param_dimension,
    _grid,
    _specialise,
    known_components,
    verify_decomposition,
)

F = Fraction

SL2 = builtin("sl2")
ID_SL2 = Matrix.identity(SL2.dim)

# The sixteen relations of the family-b ideal as displayed, before any
# simplification; two of them coincide.
DISPLAY_SIXTEEN = [
    "2*x21*y - x22*y^2 + 2*x31",
    "x12 + 2*x13*y + 2*x23",
    "2*x21 + 2*x23*y^2 + x32",
    "x13",
    "2*x21 + x32",
    "x12*y - x22",
    "x12 + 2*x23",
    "2*x11*y - x12*y^2 - 2*x21 - x32",
    "-x11 + x22 - x33",
    "x12 + 2*x23",
    "x12 - 2*x13*y + 2*x23",
    "x11 + x13*y^2 - x22 + x33",
    "x22 + 2*x23*y",
    "x22",
    "-2*x31 + x32*y",
    "2*x21 + x32 + 2*x33*y",
]

# Relations arising only from the repeated-argument identity instances;
# the displayed list omits them, and here they land inside its ideal.
DIAGONAL_EXTRAS_B = [
    "x22*y",
    "x23*y",
    "2*x31*y - x32*y^2",
    "x33*y^2",
    "x33*y",
]

SIMPLIFIED_B = {
    "x11 + x33",
    "x12 + 2*x23",
    "x13",
    "x21 + 1/2*x32",
    "x22",
    "x23*y",
    "x31 - 1/2*x32*y",
    "x33*y",
}

SIMPLIFIED_C = {
    "x11 + x33",
    "x12 + 2*x23",
    "x13 + x23*y",
    "x21 + 1/2*x32",
    "x22",
    "x31",
    "x32*y",
    "x33*y",
}

SIMPLIFIED_AB = {
    "x11 - x32*b*c^2 + 2*x33*b*c + x33",
    "x12 + 2*x23 + 2*x32*b*c^3 - 4*x33*b*c^2",
    "x13 + 1/2*x32*b*c^4 - x33*b*c^3",
    "x21 - x32*b*c + 1/2*x32 + 2*x33*b",
    "x22 + x32*b*c^2 - 2*x33*b*c",
    "x23*b + 1/2*x32*b*c^2",
    "x31 + 1/2*x32*b^2*c - 1/2*x32*b - x33*b^2",
    "x32*b^2*c^2 - 2*x32*b*c - 2*x33*b^2*c + 2*x33*b",
}

P1_GENS = {
    "x13",
    "x22",
    "x31",
    "y",
    "x11 + x33",
    "x12 + 2*x23",
    "x21 + 1/2*x32",
}

P2_GENS_B = {
    "x11",
    "x12",
    "x13",
    "x22",
    "x23",
    "x33",
    "x21 + 1/2*x32",
    "x31 - 1/2*x32*y",
}

P2_GENS_C = {
    "x11",
    "x21",
    "x22",
    "x31",
    "x32",
    "x33",
    "x12 + 2*x23",
    "x13 + x23*y",
}


# The raw generators of each family, in the order the builder emits
# them: coordinate by coordinate over the pairs i < j, the swapped pairs,
# then the diagonal, skipping zeros and repeats up to scale. The
# Groebner completion starts from this list, so its order is pinned too.
RAW_GENERATORS = {
    "b": (
        "-x12*y + x22",
        "-x12 + 2*x13*y - 2*x23",
        "-2*x13",
        "-2*x11*y + x12*y^2 + 2*x21 + x32",
        "-2*x11 - 2*x13*y^2 + 2*x22 - 2*x33",
        "x12 + 2*x13*y + 2*x23",
        "-2*x21*y + x22*y^2 - 2*x31",
        "-2*x21 - 2*x23*y^2 - x32",
        "x22 + 2*x23*y",
        "-x22",
        "x12 + 2*x23",
        "-2*x21 - x32",
        "2*x11 - 2*x22 + 2*x33",
        "2*x31 - x32*y",
        "2*x21 + x32 + 2*x33*y",
        "-x22*y",
        "2*x23*y",
        "-2*x31*y + x32*y^2",
        "-2*x33*y^2",
        "2*x33*y",
    ),
    "c": (
        "x22",
        "-2*x11*y - x12 - 2*x23",
        "x12*y - 2*x13",
        "2*x21 + x32",
        "-2*x11 + 2*x22 - 2*x33",
        "x12 + 2*x23",
        "-2*x31",
        "-2*x21*y - x22",
        "x12 + 2*x21*y^2 + 2*x23",
        "2*x13 - x22*y^2 + 2*x23*y",
        "-2*x21 - 2*x31*y - x32",
        "2*x11 - 2*x22 + 2*x31*y^2 + 2*x33",
        "-x12 - 2*x23 - x32*y^2 + 2*x33*y",
        "2*x21 - 2*x31*y + x32",
        "-x22 + x32*y",
        "-2*x11*y",
        "2*x11*y^2",
        "-x12*y^2 + 2*x13*y",
        "-2*x21*y",
        "x22*y",
    ),
    "ab": (
        "-2*x11*b^2*c^2 - x12*b^2*c - x12*b + x22",
        "2*x11*b^2*c^3 - 2*x11*b*c^2 - x12 + 2*x13*b^2*c + 2*x13*b - 2*x23",
        "-x12*b^2*c^3 + x12*b*c^2 + 2*x13*b^2*c^2 - 2*x13",
        "2*x11*b^2*c - 2*x11*b + x12*b^2 + 2*x21 + x32",
        "-2*x11*b^2*c^2 + 4*x11*b*c - 2*x11 - 2*x13*b^2 + 2*x22 - 2*x33",
        "x12*b^2*c^2 - 2*x12*b*c + x12 - 2*x13*b^2*c + 2*x13*b + 2*x23",
        "2*x21*b^2*c - 2*x21*b + x22*b^2 - 2*x31",
        "-2*x21*b^2*c^2 + 4*x21*b*c - 2*x21 - 2*x23*b^2 - x32",
        "x22*b^2*c^2 - 2*x22*b*c + x22 - 2*x23*b^2*c + 2*x23*b",
        "-2*x21*b^2*c^3 - 2*x21*b*c^2 - x22*b^2*c^2 - 2*x22*b*c - x22",
        "x12 + 2*x21*b^2*c^4 + 2*x23*b^2*c^2 + 4*x23*b*c + 2*x23",
        "2*x13 - x22*b^2*c^4 + 2*x23*b^2*c^3 + 2*x23*b*c^2",
        "-2*x21 - 2*x31*b^2*c^3 - 2*x31*b*c^2 - x32*b^2*c^2 - 2*x32*b*c - x32",
        "2*x11 - 2*x22 + 2*x31*b^2*c^4 + 2*x33*b^2*c^2 + 4*x33*b*c + 2*x33",
        "-x12 - 2*x23 - x32*b^2*c^4 + 2*x33*b^2*c^3 + 2*x33*b*c^2",
        "-2*x31*b^2*c^2 + 2*x31 - x32*b^2*c - x32*b",
        "2*x21 + 2*x31*b^2*c^3 - 2*x31*b*c^2 + x32 + 2*x33*b^2*c + 2*x33*b",
        "-x22 - x32*b^2*c^3 + x32*b*c^2 + 2*x33*b^2*c^2",
        "-2*x11*b^2*c^3 - 2*x11*b*c^2 - x12*b^2*c^2 - 2*x12*b*c",
        "2*x11*b^2*c^4 + 2*x13*b^2*c^2 + 4*x13*b*c",
        "-x12*b^2*c^4 + 2*x13*b^2*c^3 + 2*x13*b*c^2",
        "-2*x21*b^2*c^2 - x22*b^2*c - x22*b",
        "2*x21*b^2*c^3 - 2*x21*b*c^2 + 2*x23*b^2*c + 2*x23*b",
        "-x22*b^2*c^3 + x22*b*c^2 + 2*x23*b^2*c^2",
        "2*x31*b^2*c - 2*x31*b + x32*b^2",
        "-2*x31*b^2*c^2 + 4*x31*b*c - 2*x33*b^2",
        "x32*b^2*c^2 - 2*x32*b*c - 2*x33*b^2*c + 2*x33*b",
    ),
}


def strs(ideal):
    return {str(g) for g in ideal.generators}


def grid_strs(form):
    return [[x if isinstance(x, str) else str(x) for x in row] for row in form]


def sigma_for(tag, **values):
    return family_sigma(Sl2Family.fixed(tag, **values))


@pytest.fixture(scope="module")
def decompositions():
    """One verification report per family, shared by the tests that only
    read it (the two-parameter one alone takes over a second)."""
    return {
        tag: verify_decomposition(Sl2Family.symbolic(tag))
        for tag in ("b", "c", "ab")
    }


class TestFamilyConstruction:
    def test_rings(self):
        assert X_VARS == (
            "x11", "x12", "x13", "x21", "x22", "x23", "x31", "x32", "x33",
        )
        assert RING_ONE_PARAM == X_VARS + ("y",)
        assert RING_TWO_PARAM == X_VARS + ("b", "c")
        assert Sl2Family.symbolic("b").ring == RING_ONE_PARAM
        assert Sl2Family.symbolic("ab").ring == RING_TWO_PARAM

    def test_unknown_tag_rejected(self):
        with pytest.raises(InputError):
            Sl2Family.symbolic("z")

    def test_wrong_parameter_names_rejected(self):
        with pytest.raises(InputError):
            Sl2Family.fixed("b", c=1)
        with pytest.raises(InputError):
            Sl2Family.fixed("ab", a=1)

    def test_degenerate_two_parameter_values_rejected(self):
        with pytest.raises(ZeroParameterA):
            Sl2Family.fixed("ab", a=0, b=1)
        with pytest.raises(ZeroParameterA):
            Sl2Family.fixed("ab", a=1, b=0)


class TestDerivationMatrix:
    def test_entries(self):
        assert derivation_matrix(1, 2, 3) == Matrix.from_rows(
            [[1, 2, 0], [-6, 0, -4], [0, 3, -1]]
        )

    def test_classification_table(self):
        # (a, b, c) -> (nilpotent, ranks of powers 1..3)
        table = [
            ((0, 1, 0), True, (2, 1, 0)),
            ((2, 1, 1), True, (2, 1, 0)),
            ((1, 1, 1), False, (2, 2, 2)),
            ((1, 0, 0), False, (2, 2, 2)),
            ((0, 0, 0), True, (0, 0, 0)),
        ]
        for args, nil, ranks in table:
            got = classify_derivation(*args)
            assert got.nilpotent is nil
            assert got.predicted_nilpotent is nil
            assert got.consistent
            assert tuple(got.ranks[n] for n in (1, 2, 3)) == ranks

    @given(
        st.tuples(
            st.fractions(max_denominator=4),
            st.fractions(max_denominator=4),
            st.fractions(max_denominator=4),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nilpotency_dichotomy(self, coeffs):
        a, b, c = coeffs
        got = classify_derivation(a, b, c)
        assert got.consistent
        pattern = tuple(got.ranks[n] for n in (1, 2, 3))
        if (a, b, c) == (0, 0, 0):
            assert pattern == (0, 0, 0)
        elif got.nilpotent:
            assert pattern == (2, 1, 0)
        else:
            assert pattern == (2, 2, 2)


class TestFamilySigma:
    def test_fixed_one_parameter_matrices(self):
        for b in (F(1), F(-2), F(3, 5)):
            assert family_sigma(Sl2Family.fixed("b", b=b)) == Matrix.from_rows(
                [[1, b, -b * b], [0, 1, -2 * b], [0, 0, 1]]
            )
            assert family_sigma(Sl2Family.fixed("c", c=b)) == Matrix.from_rows(
                [[1, 0, 0], [-2 * b, 1, 0], [-b * b, b, 1]]
            )

    def test_fixed_two_parameter_is_exponential(self):
        sig = family_sigma(Sl2Family.fixed("ab", a=2, b=1))
        assert sig == Matrix.from_rows([[4, 2, -1], [-4, -1, 0], [-1, 0, 0]])
        assert sig == exp_nilpotent(derivation_matrix(2, 1, 1))

    def test_fixed_two_parameter_matches_nilpotent_member(self):
        for a, b in ((F(2), F(1)), (F(-4), F(1)), (F(3), F(-2))):
            c = a * a / (4 * b)
            assert family_sigma(
                Sl2Family.fixed("ab", a=a, b=b)
            ) == exp_nilpotent(derivation_matrix(a, b, c))

    @pytest.mark.parametrize("tag, points", [
        ("b", [{"y": F(v)} for v in (1, -2, F(3, 5))]),
        ("c", [{"y": F(v)} for v in (1, -2, F(3, 5))]),
        ("ab", [
            {"b": F(b), "c": F(c)}
            for b in (1, -2, F(1, 3))
            for c in (1, -1, 2, F(1, 2), -3)
        ]),
    ])
    def test_symbolic_grid_is_the_exponential(self, tag, points):
        # Each generator is G = p*M(q) with G^3 = 0: p is y (or b), M is
        # constant (or of degree 2 in c). So exp(G) = I + G + G^2/2 has
        # degree at most 2 in p and 4 in q, and so has the grid, as checked
        # first. A difference of such polynomials that vanishes on 3 values
        # of p (by 5 of q) vanishes identically: the grid is exp(G) exactly.
        bounds = {"y": 2} if tag != "ab" else {"b": 2, "c": 4}
        grid = family_sigma(Sl2Family.symbolic(tag))
        for row in grid:
            for entry in row:
                for exps, _ in entry.terms:
                    for name, e in zip(entry.variables, exps):
                        assert e <= bounds.get(name, 0)
        for point in points:
            if tag == "b":
                generator = derivation_matrix(0, point["y"], 0)
            elif tag == "c":
                generator = derivation_matrix(0, 0, point["y"])
            else:
                b, c = point["b"], point["c"]
                generator = derivation_matrix(2 * b * c, b, b * c * c)
            value = Matrix.from_rows(
                [[_const(e) for e in _specialise(row, point)] for row in grid]
            )
            assert value == exp_nilpotent(generator)

    def test_symbolic_specializes_to_fixed(self):
        grid = family_sigma(Sl2Family.symbolic("b"))
        val = {"y": F(3, 5)}
        specialized = Matrix.from_rows(
            [[_const(e) for e in _specialise(row, val)] for row in grid]
        )
        assert specialized == family_sigma(Sl2Family.fixed("b", b=F(3, 5)))

        grid = family_sigma(Sl2Family.symbolic("ab"))
        val = {"b": F(1), "c": F(1)}
        specialized = Matrix.from_rows(
            [[_const(e) for e in _specialise(row, val)] for row in grid]
        )
        assert specialized == family_sigma(Sl2Family.fixed("ab", a=2, b=1))


@pytest.fixture
def matmul_calls(monkeypatch):
    """Shapes of every dense Matrix product made while the test runs."""
    calls = []
    original = Matrix.__matmul__

    def counting(self, other):
        calls.append((self.rows, self.cols, other.cols))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    return calls


class TestProductCounts:
    def test_classify_derivation_forms_d2_and_d3_once(self, matmul_calls):
        for args in ((1, 1, 1), (2, 1, 1), (0, 0, 0), (F(1, 2), F(-3), F(5, 7))):
            matmul_calls.clear()
            classify_derivation(*args)
            assert matmul_calls == [(3, 3, 3), (3, 3, 3)]

    def test_family_exponentials_make_no_matrix_products(self, matmul_calls):
        b_gen = Matrix.from_rows([[0, 1, 0], [0, 0, -2], [0, 0, 0]])
        c_gen = Matrix.from_rows([[0, 0, 0], [-2, 0, 0], [0, 1, 0]])
        for t in (F(1), F(-2), F(3, 5)):
            b_t = Matrix.from_rows([[t * a for a in row] for row in b_gen.entries])
            c_t = Matrix.from_rows([[t * a for a in row] for row in c_gen.entries])
            assert exp_nilpotent(b_t) == Matrix.from_rows(
                [[1, t, -t * t], [0, 1, -2 * t], [0, 0, 1]]
            )
            assert exp_nilpotent(c_t) == Matrix.from_rows(
                [[1, 0, 0], [-2 * t, 1, 0], [-t * t, t, 1]]
            )
        assert matmul_calls == []


def _const(p):
    if p.is_zero:
        return F(0)
    (exps, coeff), = p.terms
    assert not any(exps)
    return coeff


class TestRawIdeals:
    @pytest.mark.parametrize("tag", sorted(RAW_GENERATORS))
    def test_raw_generators_pinned_in_order(self, tag):
        raw = derivation_ideal(Sl2Family.symbolic(tag)).raw
        assert tuple(str(g) for g in raw.generators) == RAW_GENERATORS[tag]

    def test_family_b_raw_equals_displayed_plus_diagonal(self):
        rep = derivation_ideal(Sl2Family.symbolic("b"))
        assert rep.raw.variables == RING_ONE_PARAM
        assert len(rep.raw.generators) == 20
        displayed = Ideal.make(
            RING_ONE_PARAM,
            [
                poly_from_string(RING_ONE_PARAM, s)
                for s in DISPLAY_SIXTEEN + DIAGONAL_EXTRAS_B
            ],
        )
        assert contains(displayed, rep.raw)
        assert contains(rep.raw, displayed)

    def test_family_b_simplified(self):
        rep = derivation_ideal(Sl2Family.symbolic("b"))
        assert strs(rep.simplified) == SIMPLIFIED_B

    def test_family_c_simplified(self):
        rep = derivation_ideal(Sl2Family.symbolic("c"))
        assert len(rep.raw.generators) == 20
        assert strs(rep.simplified) == SIMPLIFIED_C

    def test_family_ab_simplified(self):
        rep = derivation_ideal(Sl2Family.symbolic("ab"))
        assert rep.raw.variables == RING_TWO_PARAM
        assert len(rep.raw.generators) == 27
        assert strs(rep.simplified) == SIMPLIFIED_AB

    def test_fixed_ideal_specializes_symbolic(self):
        rep = derivation_ideal(Sl2Family.fixed("b", b=1))
        assert rep.raw.variables == X_VARS
        # At b=1 the twisted space is the single unipotent direction, so
        # the simplified basis pins eight coordinates.
        assert len(rep.simplified.generators) == 8


class TestComponents:
    def test_generator_sets(self):
        p1, p2 = known_components(Sl2Family.symbolic("b"))
        assert strs(p1.ideal) == P1_GENS
        assert strs(p2.ideal) == P2_GENS_B
        p1, p2 = known_components(Sl2Family.symbolic("c"))
        assert strs(p1.ideal) == P1_GENS
        assert strs(p2.ideal) == P2_GENS_C
        p1, p2 = known_components(Sl2Family.symbolic("ab"))
        assert strs(p1.ideal) == (P1_GENS - {"y"}) | {"b"}
        assert len(p2.ideal.generators) == 9

    def test_untwisted_form_is_general_derivation(self):
        p1, _ = known_components(Sl2Family.symbolic("b"))
        m, params = p1.evaluate({"u1": F(1), "u2": F(2), "u3": F(3)})
        assert m == derivation_matrix(1, 2, 3)
        assert params == {"y": F(0)}
        assert is_derivation_pair(SL2, m, ID_SL2, ID_SL2)

    def test_twisted_form_b_gives_derivation_pairs(self):
        _, p2 = known_components(Sl2Family.symbolic("b"))
        m, params = p2.evaluate({"t": F(-2), "y": F(3)})
        assert m == Matrix.from_rows([[0, 1, -3], [0, 0, -2], [0, 0, 0]])
        assert params == {"y": F(3)}
        assert is_derivation_pair(SL2, m, sigma_for("b", b=3), ID_SL2)

    def test_twisted_form_c_gives_derivation_pairs(self):
        _, p2 = known_components(Sl2Family.symbolic("c"))
        for t, y in ((F(5), F(-2)), (F(1), F(1)), (F(-3), F(7, 2))):
            m, _ = p2.evaluate({"t": t, "y": y})
            assert is_derivation_pair(SL2, m, sigma_for("c", c=y), ID_SL2)

    def test_twisted_form_ab_gives_derivation_pairs(self):
        _, p2 = known_components(Sl2Family.symbolic("ab"))
        for t, b, c in ((F(3), F(1), F(1)), (F(1), F(1), F(-2)), (F(-1), F(2), F(1))):
            m, params = p2.evaluate({"t": t, "b": b, "c": c})
            assert params == {"b": b, "c": c}
            sig = sigma_for("ab", a=2 * b * c, b=b)
            assert is_derivation_pair(SL2, m, sig, ID_SL2)

    @pytest.mark.parametrize("tag", sorted(FAMILIES))
    def test_every_recorded_text_parses_in_its_ring(self, tag):
        entry = FAMILIES[tag]
        ring = Sl2Family.symbolic(tag).ring
        assert [len(r) for r in _grid(ring, entry["sigma"])] == [3, 3, 3]
        checked = {"sigma", "fixed_claim"}
        for name in ("p1", "p2"):
            variables = entry[name + " vars"]
            assert len(_grid(ring, entry[name + " gens"])) == 1
            (params,) = _grid(variables, entry[name + " params"])
            assert len(params) == len(ring) - len(X_VARS)
            for key in (name + " form", name + " recorded"):
                if key in entry:
                    grid = _grid(variables, entry[key])
                    assert [len(r) for r in grid] == [3, 3, 3]
            checked |= {
                f"{name} {field}"
                for field in ("gens", "vars", "params", "dim", "form", "recorded")
            }
        # The one grid kept as text has denominators, which do not parse.
        texts = set(entry) - checked
        assert texts == ({"p2 published"} if tag == "ab" else set())
        for key in texts:
            for row in _grid(None, entry[key]):
                for e in row:
                    if "/" in e:
                        with pytest.raises(InputError):
                            poly_from_string(entry["p2 vars"], e)

    def test_two_parameter_generators_follow_the_form(self):
        # n is the form at t = 1 over the family ring, and the generators
        # are x_jk - n_kj*(1/2*x21 - 1/4*x32), recorded in (j, k) order.
        entry = FAMILIES["ab"]
        ring = RING_TWO_PARAM
        at_one = {"t": MultiPoly.const(ring, 1)}
        n = [
            [e.substitute_polys(ring, at_one) for e in row]
            for row in _grid(entry["p2 vars"], entry["p2 form"])
        ]
        scale = poly_from_string(ring, "1/2*x21 - 1/4*x32")
        derived = [
            MultiPoly.var(ring, X_VARS[3 * j + k]) - n[k][j] * scale
            for j in range(3)
            for k in range(3)
        ]
        recorded = [g.strip() for g in entry["p2 gens"].split(",")]
        assert [str(g) for g in derived] == recorded
        _, p2 = known_components(Sl2Family.symbolic("ab"))
        assert p2.ideal.generators == tuple(derived)

    def test_recorded_two_parameter_form_keeps_denominators(self):
        _, p2 = known_components(Sl2Family.symbolic("ab"))
        claimed = p2.claimed_form
        assert isinstance(claimed[0][0], str)
        assert claimed[0][0] == "(ab+4)/(ab-4)*c"
        assert claimed[2][2] == "c"


class TestDecompositionFamilyB:
    def test_report(self, decompositions):
        rep = decompositions["b"]
        assert rep.all_verdicts_true
        assert rep.product_contained
        p1, p2 = rep.components
        assert p1.certificate.certified
        assert p1.certificate.free_vars == ("x23", "x32", "x33")
        assert p1.dimension == 3 == p1.component.claimed_dimension
        assert p1.contains_residuals and p1.form_satisfies_residuals
        assert p2.certificate.certified
        assert p2.certificate.free_vars == ("x32", "y")
        assert p2.dimension == 2 == p2.component.claimed_dimension
        assert p2.contains_residuals and p2.form_satisfies_residuals
        assert p2.claimed_form_satisfies_residuals is True


class TestDecompositionFamilyC:
    def test_report(self, decompositions):
        rep = decompositions["c"]
        assert rep.all_verdicts_true
        assert rep.product_contained
        p1, p2 = rep.components
        assert p1.certificate.free_vars == ("x23", "x32", "x33")
        assert p1.dimension == 3 == p1.component.claimed_dimension
        assert p2.certificate.certified
        assert p2.certificate.free_vars == ("x23", "y")
        assert p2.dimension == 2 == p2.component.claimed_dimension
        assert p2.form_satisfies_residuals

    def test_recorded_form_fails_the_identity(self, decompositions):
        # The recorded alternative parametrization is not a family of
        # twisted derivations; the computed one is kept as primary.
        rep = decompositions["c"]
        _, p2 = rep.components
        assert p2.claimed_form_satisfies_residuals is False
        claimed = grid_strs(known_components(Sl2Family.symbolic("c"))[1].claimed_form)
        assert claimed == [
            ["0", "0", "0"],
            ["-2*t", "0", "t"],
            ["-2*t*y", "0", "0"],
        ]


class TestDecompositionFamilyAB:
    def test_report(self, decompositions):
        rep = decompositions["ab"]
        p1, p2 = rep.components
        assert p1.certificate.certified
        assert p1.certificate.free_vars == ("x23", "x32", "x33", "c")
        assert p1.dimension == 4
        assert p1.component.claimed_dimension == 3
        assert p1.dimension != p1.component.claimed_dimension
        assert p1.contains_residuals and p1.form_satisfies_residuals

        # The scalar-recovery component is prime but carries no
        # triangular certificate; the dimension falls back to the
        # parametrization coordinate count.
        assert p2.certificate.certified is False
        assert p2.dimension == 3 == p2.component.claimed_dimension
        assert p2.dimension_source == "parametrization coordinates"
        assert p2.contains_residuals
        assert p2.form_satisfies_residuals

        assert rep.product_contained
        assert rep.all_verdicts_true is False

    def test_scalar_recovery_membership(self, decompositions):
        # Every raw relation lies in the component generated by the
        # coordinates minus direction-times-recovered-scalar.
        rep = decompositions["ab"]
        _, p2 = known_components(Sl2Family.symbolic("ab"))
        reduced = groebner(p2.ideal)
        for g in rep.raw.generators:
            assert member(g, reduced)


def _count_completions(monkeypatch) -> list:
    """The ideals handed to every groebner call from here on."""
    seen = []

    def counting(ideal, *args):
        seen.append(ideal)
        return groebner(ideal, *args)

    monkeypatch.setattr("gderive.polynomials.groebner", counting)
    monkeypatch.setattr("gderive.sl2.groebner", counting)
    return seen


class TestSingleCompletion:
    """verify_decomposition completes J and each component once and asks
    every query of the reduced bases; completing a reduced basis again
    must return it."""

    def test_raw_ideal_completed_once(self, monkeypatch):
        seen = _count_completions(monkeypatch)
        for tag in ("b", "c", "ab"):
            seen.clear()
            rep = verify_decomposition(Sl2Family.symbolic(tag))
            p1, p2 = known_components(Sl2Family.symbolic(tag))
            assert seen == [rep.raw, p1.ideal, p2.ideal]

    def test_reproduce_completes_nine_ideals(self, monkeypatch):
        seen = _count_completions(monkeypatch)
        monkeypatch.setattr(reproduce, "_usable_cpus", lambda: 1)
        rows = reproduce.run(["thm1.6", "thm5.11", "thm5.12"])
        assert [row.key for row in rows] == ["thm1.6", "thm5.11", "thm5.12"]
        assert len(seen) == 9

    def test_reduced_bases_complete_to_themselves(self, decompositions):
        for tag, rep in decompositions.items():
            assert groebner(rep.simplified) == rep.simplified
            for component in known_components(Sl2Family.symbolic(tag)):
                basis = groebner(component.ideal)
                assert groebner(basis) == basis


class TestFixedDimensions:
    def test_family_b_values(self):
        dims = {}
        for b in (0, 1, -2):
            r = fixed_param_dimension(Sl2Family.fixed("b", b=b))
            dims[b] = r.dimension
            assert r.paper_claim == 4
            assert r.matches_claim is False
        assert dims == {0: 3, 1: 1, -2: 1}

    def test_family_b_basis_at_one(self):
        r = fixed_param_dimension(Sl2Family.fixed("b", b=1))
        assert r.basis == (
            Matrix.from_rows([[0, 1, -1], [0, 0, -2], [0, 0, 0]]),
        )

    def test_family_c_values(self):
        dims = {
            c: fixed_param_dimension(Sl2Family.fixed("c", c=c)).dimension
            for c in (0, 1, -2)
        }
        assert dims == {0: 3, 1: 1, -2: 1}
        r = fixed_param_dimension(Sl2Family.fixed("c", c=1))
        assert r.basis == (
            Matrix.from_rows([[0, 0, 0], [1, 0, 0], [F(1, 2), F(-1, 2), 0]]),
        )

    def test_family_ab_fixed(self):
        r = fixed_param_dimension(Sl2Family.fixed("ab", a=2, b=1))
        assert r.dimension == 1
        assert r.matches_claim is False
        third = F(1, 3)
        assert r.basis == (
            Matrix.from_rows(
                [
                    [1, 2 * third, -third],
                    [-4 * third, -2 * third, 0],
                    [-third, 0, -third],
                ]
            ),
        )

    def test_int_values_give_the_same_report(self):
        assert fixed_param_dimension(
            Sl2Family.fixed("ab", a=2, b=1)
        ) == fixed_param_dimension(Sl2Family.fixed("ab", a=F(2), b=F(1)))

    def test_symbolic_family_requires_values(self):
        with pytest.raises(GDeriveError):
            fixed_param_dimension(Sl2Family.symbolic("b"))

    def test_agrees_with_linear_solver(self):
        # Two independent pipelines: polynomial specialization against
        # the direct linear solve for the same automorphism.
        from gderive.linalg import rank

        cases = [
            (fixed_param_dimension(Sl2Family.fixed("b", b=1)),
             sigma_for("b", b=1)),
            (fixed_param_dimension(Sl2Family.fixed("b", b=-2)),
             sigma_for("b", b=-2)),
            (fixed_param_dimension(Sl2Family.fixed("c", c=1)),
             sigma_for("c", c=1)),
            (fixed_param_dimension(Sl2Family.fixed("ab", a=2, b=1)),
             sigma_for("ab", a=2, b=1)),
        ]
        for r, sigma in cases:
            space = derivation_space(SL2, sigma)
            assert r.dimension == space.dim
            stacked = Matrix.from_rows(
                [matrix_to_vec(m) for m in r.basis + space.basis]
            )
            # Equal dimensions plus equal stacked rank force equal spans.
            assert rank(stacked) == r.dimension
