from __future__ import annotations

import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gderive.errors import (
    DegreeGuardExceeded,
    DimensionMismatch,
    InputError,
    UnknownVariable,
)
from gderive.limits import MAX_EXPONENT
from gderive.linalg import kernel_of_rows
from gderive import polynomials
from gderive.polynomials import (
    Ideal,
    MultiPoly,
    PrimeCertificate,
    contains,
    groebner,
    ideal_from_json_dict,
    ideal_product,
    linear_rows,
    member,
    poly_from_string,
    poly_to_string,
    remainder,
    triangular_prime_check,
)
from gderive.sl2 import Sl2Family, _raw_ideal, _specialise

# The ten-variable ring of the twisted-derivation ideal study, in its
# declared lex order.
RING = ("x11", "x12", "x13", "x21", "x22", "x23", "x31", "x32", "x33", "y")

# The sixteen displayed relations defining the family-b derivation ideal.
SIXTEEN = [
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

# J's expected reduced basis: the simplified relation set.
SIMPLIFIED = [
    "x11 + x33",
    "x12 + 2*x23",
    "x13",
    "x21 + 1/2*x32",
    "x22",
    "x23*y",
    "x31 - 1/2*x32*y",
    "x33*y",
]

P1_GENS = ["y", "x13", "x22", "x31", "x11 + x33", "x12 + 2*x23", "x21 + 1/2*x32"]
P2_GENS = [
    "x11", "x12", "x13", "x22", "x23", "x33",
    "x21 + 1/2*x32", "x31 - 1/2*x32*y",
]


def ring_poly(text):
    return poly_from_string(RING, text)


def ring_ideal(texts):
    return Ideal.make(RING, [ring_poly(t) for t in texts])


def xy_poly(text):
    return poly_from_string(("x", "y"), text)


def power(p, k):
    """p^k taken afresh as a product of k factors."""
    out = MultiPoly.const(p.variables, 1)
    for _ in range(k):
        out = out * p
    return out


J = ring_ideal(SIXTEEN)
P1 = ring_ideal(P1_GENS)
P2 = ring_ideal(P2_GENS)
TRIANGULAR_RING = ("v", "w", "x", "y", "z")


# Polynomials in x, y, z with exponents up to 3 and rational coefficients:
# leading coefficients are as a rule neither 1 nor integers, and may be
# negative.
_rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    min_size=1, max_size=5,
).map(lambda terms: MultiPoly.from_terms(("x", "y", "z"), terms.items()))


class TestParsePrint:
    def test_round_trip(self):
        for text in SIXTEEN + SIMPLIFIED:
            p = ring_poly(text)
            assert ring_poly(poly_to_string(p)) == p

    @given(_rational_polys, st.data())
    def test_printed_text_reads_back_whatever_its_spacing(self, p, data):
        # Operators and the words between them, with any whitespace at
        # each boundary, before the first and after the last.
        pieces = re.findall(r"[-+*^]|[^-+*^\s]+", str(p))
        spaces = data.draw(st.lists(
            st.sampled_from(["", " ", "  ", "\t"]),
            min_size=len(pieces) + 1, max_size=len(pieces) + 1,
        ))
        text = "".join(s + piece for s, piece in zip(spaces, pieces)) + spaces[-1]
        assert poly_from_string(p.variables, str(p)) == p
        assert poly_from_string(p.variables, text) == p

    @pytest.mark.parametrize("text, terms", [
        ("x - -3", {(1, 0): 1, (0, 0): 3}),
        ("--3", {(0, 0): 3}),
        ("x-3/2", {(1, 0): 1, (0, 0): Fraction(-3, 2)}),
        ("2 * x ^ 2", {(2, 0): 2}),
        ("x^2 - y \t", {(2, 0): 1, (0, 1): -1}),
    ])
    def test_spellings(self, text, terms):
        assert xy_poly(text) == MultiPoly.from_terms(("x", "y"), terms.items())

    def test_glued_minus(self):
        assert xy_poly("x^2-y") == xy_poly("x^2 - y")

    def test_constant(self):
        p = xy_poly("-3/2")
        assert p.terms == (((0, 0), Fraction(-3, 2)),)
        assert poly_to_string(p) == "-3/2"

    def test_repeated_variable_factors_multiply(self):
        assert xy_poly("x*x*y") == xy_poly("x^2*y")

    @pytest.mark.parametrize("bad", [
        "(x)", "x y", "x**2", "x^-1", "x^1/2", "", " ", "x +", "2*3", "x*",
        "z + (", f"x^{MAX_EXPONENT + 1}",
    ])
    def test_rejects_bad_syntax(self, bad):
        with pytest.raises(InputError) as raised:
            xy_poly(bad)
        assert raised.type is InputError

    def test_unknown_variable(self):
        # Terms are read left to right, so z is reported before the later
        # term 2*3, which has two coefficients.
        for text in ["x + z", "z + 2*3"]:
            with pytest.raises(UnknownVariable):
                xy_poly(text)

    @pytest.mark.parametrize("text", [
        "x" + " " * 20000 + "*", "x" + " " * 20000 + "+", "x + " * 5000 + "*",
    ])
    def test_rejects_long_text_in_linear_time(self, text):
        # A whitespace run that two optional parts of a pattern could share
        # would take quadratic time to reject.
        start = time.perf_counter()
        with pytest.raises(InputError):
            xy_poly(text)
        assert time.perf_counter() - start < 0.5

    def test_patterns_need_no_python_311(self):
        # pyproject.toml declares Python 3.10, whose re module has neither
        # atomic groups nor possessive quantifiers. Escapes and character
        # classes are blanked first, so a literal '+' reads as no quantifier.
        patterns = [v for v in vars(polynomials).values() if isinstance(v, re.Pattern)]
        assert patterns
        for pattern in patterns:
            bare = re.sub(r"\\.|\[[^\]]*\]", "c", pattern.pattern)
            assert "(?>" not in bare
            assert not re.search(r"[*+?}]\+", bare), pattern.pattern


class TestArithmetic:
    def test_binomial_square(self):
        x_plus_y = xy_poly("x + y")
        assert x_plus_y * x_plus_y == xy_poly("x^2 + 2*x*y + y^2")

    def test_lex_leading_term(self):
        p = xy_poly("x + y^5")
        assert p.leading_term() == ((1, 0), Fraction(1))

    def test_substitute_examples(self):
        f4 = ring_poly("x23*y")
        assert _specialise([f4], {"y": 1}) == [poly_from_string(RING[:-1], "x23")]
        f6 = ring_poly("x33*y")
        assert _specialise([f6], {"y": 0})[0].is_zero

    def test_powers(self):
        x_plus_y = xy_poly("x + y")
        assert power(x_plus_y, 0) == xy_poly("1")
        assert power(x_plus_y, 3) == xy_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3")

    def test_poly_substitution_ring_map(self):
        p = xy_poly("x^2 + y")
        target = ("a", "b")
        image = p.substitute_polys(
            target,
            {
                "x": poly_from_string(target, "a + b"),
                "y": poly_from_string(target, "-a^2"),
            },
        )
        assert image == poly_from_string(target, "2*a*b + b^2")


class TestDivision:
    def test_exact_quotient(self):
        p, g = xy_poly("x^2"), xy_poly("x")
        assert remainder(p, [g]).is_zero
        qs, _ = reference_divide(p, [g])
        assert qs[0] == xy_poly("x") and qs[0] * g == p

    def test_remainder_keeps_foreign_terms(self):
        r = remainder(xy_poly("x^2 + y"), [xy_poly("x")])
        assert r == xy_poly("y")

    def test_multiple_of_member_reduces_to_zero(self):
        basis = groebner(J).generators
        assert remainder(ring_poly("x22*y"), basis).is_zero

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2),
                st.fractions(min_value=-3, max_value=3, max_denominator=3),
            ),
            min_size=1, max_size=4,
        ),
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2),
                st.fractions(min_value=-3, max_value=3, max_denominator=3),
            ),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_division_certificate(self, p_terms, g_terms):
        variables = ("x", "y")
        p = MultiPoly.from_terms(
            variables, {(a, b): c for a, b, c in p_terms}.items()
        )
        g = MultiPoly.from_terms(
            variables, {(a, b): c for a, b, c in g_terms}.items()
        )
        assume(not g.is_zero)
        r = remainder(p, [g])
        qs, expected_r = reference_divide(p, [g])
        assert r == expected_r
        assert qs[0] * g + r == p
        lead = g.leading_term()[0]
        for exps, _ in r.terms:
            assert not all(a <= b for a, b in zip(lead, exps))


def reference_divide(p, divisors):
    """Plain Fraction division: pop the lex-largest term and reduce it by
    the first divisor whose leading term divides it, else move it to the
    remainder. Shares no code with the library's integer-frame division."""
    quotients = [{} for _ in divisors]
    rest = {}
    work = dict(p.terms)
    while work:
        exps = max(work)
        coeff = work.pop(exps)
        for q, g in zip(quotients, divisors):
            lead, lead_coeff = g.terms[0]
            if all(a <= b for a, b in zip(lead, exps)):
                shift = tuple(b - a for a, b in zip(lead, exps))
                factor = coeff / lead_coeff
                q[shift] = q.get(shift, 0) + factor
                for e, c in g.terms[1:]:
                    t = tuple(a + b for a, b in zip(shift, e))
                    work[t] = work.get(t, 0) - factor * c
                    if not work[t]:
                        del work[t]
                break
        else:
            rest[exps] = rest.get(exps, 0) + coeff
    return (
        [MultiPoly.from_terms(p.variables, q.items()) for q in quotients],
        MultiPoly.from_terms(p.variables, rest.items()),
    )


_ab_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=3,
).map(lambda terms: MultiPoly.from_terms(("a", "b"), terms.items()))


def reference_substitute_polys(p, target, images):
    """The ring map term by term, each power taken afresh."""
    result = MultiPoly.zero(target)
    for exps, coeff in p.terms:
        term = MultiPoly.const(target, coeff)
        for image, e in zip(images, exps):
            if e:
                term = term * power(image, e)
        result = result + term
    return result


class TestRingMapAndGenerators:
    @given(_rational_polys, st.lists(_ab_polys, min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_substitute_polys_matches_fresh_powers(self, p, images):
        target = ("a", "b")
        mapping = dict(zip(p.variables, images))
        image = p.substitute_polys(target, mapping)
        assert image == reference_substitute_polys(p, target, images)
        assert_canonical(image, reference_ring_map(p, target, images))

    def test_make_drops_zero_and_repeated_generators_in_order(self):
        x, y, xy = xy_poly("x"), xy_poly("y"), xy_poly("x*y - 1")
        ideal = Ideal.make(
            ("x", "y"), [xy, xy_poly("0"), x, xy_poly("x*y - 1"), y, x]
        )
        assert ideal.generators == (xy, x, y)


class TestIntegerFrameDivision:
    @given(
        _rational_polys,
        st.lists(_rational_polys.filter(lambda g: not g.is_zero),
                 min_size=1, max_size=4),
    )
    @example(xy_poly("x^2 + y"), [xy_poly("-2/3*x + 5/7*y")])
    @example(xy_poly("0"), [xy_poly("3*x")])
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, p, divisors):
        expected_qs, expected_r = reference_divide(p, divisors)
        r = remainder(p, divisors)
        assert r == expected_r
        assert_canonical(r, dict(expected_r.terms))
        total = r
        for q, g in zip(expected_qs, divisors):
            total = total + q * g
        assert total == p
        leads = [g.leading_term()[0] for g in divisors]
        for exps, _ in r.terms:
            assert not any(
                all(a <= b for a, b in zip(lead, exps)) for lead in leads
            )

    @given(
        st.lists(_rational_polys, min_size=1, max_size=3),
        _rational_polys,
    )
    @settings(max_examples=40, deadline=None)
    def test_remainder_by_random_basis_matches_reference(self, gens, p):
        gens = [g for g in gens if not g.is_zero]
        assume(gens and not p.is_zero)
        try:
            reduced = groebner(Ideal.make(gens[0].variables, gens), guard=30)
        except DegreeGuardExceeded:
            assume(False)
        basis = reduced.generators
        assume(basis)
        assert remainder(p, basis) == reference_divide(p, basis)[1]


# The Fraction-dict arithmetic that polynomials used before they held
# integers over one denominator; it shares no code with the library. A
# reference result is a dict {exponent vector: Fraction}, zeros allowed.

def reference_add(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms:
        out[e] = out.get(e, Fraction(0)) + sign * c
    return out


def reference_mul(p_terms, q_terms):
    out = {}
    for e1, c1 in p_terms:
        for e2, c2 in q_terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


def reference_pow(p, k):
    out = {(0,) * len(p.variables): Fraction(1)}
    for _ in range(k):
        out = reference_mul(out.items(), p.terms)
    return out


def reference_scale(p, value):
    return {e: value * c for e, c in p.terms}


def reference_monic(p):
    lead = p.terms[0][1]
    return {e: c / lead for e, c in p.terms}


def reference_ring_map(p, target, images):
    """sum of c * prod(image_i ** e_i) over the terms c x^e of p."""
    out = {}
    for exps, coeff in p.terms:
        term = {(0,) * len(target): coeff}
        for image, e in zip(images, exps):
            for _ in range(e):
                term = reference_mul(term.items(), image.terms)
        for t, c in term.items():
            out[t] = out.get(t, Fraction(0)) + c
    return out


def reference_spoly(f, g):
    """x^(l - ef) f / lc(f) - x^(l - eg) g / lc(g), l the lcm of the
    leading monomials."""
    (ef, cf), (eg, cg) = f.terms[0], g.terms[0]
    l = tuple(max(a, b) for a, b in zip(ef, eg))
    out = reference_mul(
        [(tuple(a - b for a, b in zip(l, ef)), 1 / cf)], f.terms
    )
    for e, c in reference_mul(
        [(tuple(a - b for a, b in zip(l, eg)), 1 / cg)], g.terms
    ).items():
        out[e] = out.get(e, Fraction(0)) - c
    return out


def reference_substitute(p, values):
    """Evaluate the variables named in ``values``; the others stay."""
    keep = [i for i, v in enumerate(p.variables) if v not in values]
    out = {}
    for exps, coeff in p.terms:
        for v, e in zip(p.variables, exps):
            if v in values:
                coeff *= Fraction(values[v]) ** e
        new_exps = tuple(exps[i] for i in keep)
        out[new_exps] = out.get(new_exps, Fraction(0)) + coeff
    return out


def assert_canonical(p, expected=None):
    """p is in canonical form and, when given, equals the reference dict."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for _, c in p.num)
    exps = [e for e, _ in p.num]
    assert exps == sorted(set(exps), reverse=True)
    assert gcd(p.den, *(c for _, c in p.num)) == 1
    assert p.terms == tuple((e, Fraction(c, p.den)) for e, c in p.num)
    assert all(type(c) is Fraction for _, c in p.terms)
    twin = MultiPoly.from_terms(p.variables, p.terms)
    assert (twin.num, twin.den, hash(twin)) == (p.num, p.den, hash(p))
    if expected is not None:
        assert dict(p.terms) == {e: c for e, c in expected.items() if c}


class TestIntegerArithmetic:
    @given(_rational_polys, _rational_polys)
    # The sum is x: the common denominator 2 must cancel.
    @example(
        poly_from_string(("x", "y", "z"), "1/2*x + 1/2*y"),
        poly_from_string(("x", "y", "z"), "1/2*x - 1/2*y"),
    )
    @settings(max_examples=100, deadline=None)
    def test_ring_operations_match_fraction_reference(self, p, q):
        assert_canonical(p)
        assert_canonical(p + q, reference_add(p, q))
        assert_canonical(p - q, reference_add(p, q, -1))
        assert_canonical(
            MultiPoly.zero(p.variables) - p, reference_scale(p, Fraction(-1))
        )
        assert_canonical(p * q, reference_mul(p.terms, q.terms))
        for k in range(4):
            assert_canonical(power(p, k), reference_pow(p, k))
        # Equal polynomials built two ways have equal fields and hashes.
        for left, right in ((p + q, q + p), (p * q, q * p), (p - p, p.scale(0))):
            assert (left.num, left.den, hash(left)) == (
                right.num, right.den, hash(right)
            )
        assert (p - p).den == 1 and (p - p).is_zero
        if not (p.is_zero or q.is_zero):
            assert_canonical(polynomials._spoly(p, q), reference_spoly(p, q))

    @given(
        _rational_polys,
        st.one_of(
            st.integers(-5, 5),
            st.fractions(min_value=-5, max_value=5, max_denominator=7),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_and_monic_match_fraction_reference(self, p, value):
        assert_canonical(p.scale(value), reference_scale(p, Fraction(value)))
        if not p.is_zero:
            monic = p.monic()
            assert_canonical(monic, reference_monic(p))
            assert monic.num[0][1] == monic.den
            assert p.scale(-3).monic() == monic

    @given(
        _rational_polys,
        st.dictionaries(
            st.sampled_from(["x", "y", "z"]),
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
            min_size=1,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_substitute_matches_fraction_reference(self, p, values):
        fixed = _specialise([p], values)[0]
        assert fixed.variables == tuple(v for v in p.variables if v not in values)
        assert_canonical(fixed, reference_substitute(p, values))


class TestExactCoefficients:
    def test_int_coefficients_read_as_fractions(self):
        p = MultiPoly.from_terms(("x", "y"), {(1, 0): 2, (0, 1): "3/4"}.items())
        assert all(type(c) is Fraction for _, c in p.terms)
        assert type(dict(p.terms)[(1, 0)]) is Fraction
        assert dict(p.terms)[(1, 0)] == 2
        assert p == xy_poly("2*x + 3/4*y")
        assert type(MultiPoly.const(("x",), 5).terms[0][1]) is Fraction
        assert type(xy_poly("x").scale(3).terms[0][1]) is Fraction

    @pytest.mark.parametrize("value", [2.5, 1.0, None, "x", "1/0"])
    def test_inexact_coefficients_rejected(self, value):
        with pytest.raises(InputError):
            MultiPoly.from_terms(("x", "y"), {(1, 0): value}.items())
        with pytest.raises(InputError):
            MultiPoly.const(("x", "y"), value)
        with pytest.raises(InputError):
            xy_poly("x + y").scale(value)


class TestBuchberger:
    def test_already_reduced(self):
        basis = groebner(Ideal.make(("x", "y"), [xy_poly("x - y"), xy_poly("y^2")]))
        assert basis == Ideal(("x", "y"), (xy_poly("x - y"), xy_poly("y^2")))

    def test_generates_y_cubed(self):
        basis = groebner(Ideal.make(("x", "y"), [xy_poly("x^2"), xy_poly("x*y + y^2")]))
        assert basis.generators == (
            xy_poly("x^2"), xy_poly("x*y + y^2"), xy_poly("y^3"),
        )

    def test_sixteen_relations_reduce_to_simplified_eight(self):
        assert groebner(J) == ring_ideal(SIMPLIFIED)

    def test_spolys_of_reduced_basis_vanish(self):
        basis = groebner(J).generators
        from gderive.polynomials import _spoly

        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert remainder(_spoly(basis[i], basis[j]), basis).is_zero

    def test_guard_trips(self):
        with pytest.raises(DegreeGuardExceeded):
            groebner(
                Ideal.make(("x", "y"), [xy_poly("x^2"), xy_poly("x*y + y^2")]),
                guard=0,
            )

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                    st.fractions(min_value=-2, max_value=2, max_denominator=2),
                ),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_ideal_spolys_vanish(self, gen_terms):
        variables = ("x", "y", "z")
        gens = [
            MultiPoly.from_terms(
                variables, {(a, b, c): q for a, b, c, q in terms}.items()
            )
            for terms in gen_terms
        ]
        gens = [g for g in gens if not g.is_zero]
        assume(gens)
        ideal = Ideal.make(variables, gens)
        try:
            reduced = groebner(ideal, guard=200)
        except DegreeGuardExceeded:
            assume(False)
        basis = reduced.generators
        from gderive.polynomials import _spoly

        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert remainder(_spoly(basis[i], basis[j]), basis).is_zero
        for g in gens:
            assert remainder(g, basis).is_zero
        # Completing a reduced basis again gives the same basis back.
        assert groebner(reduced, guard=200) == reduced


# A term is (exponent of x, of y, of z, integer coefficient).
_TERMS = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
        st.integers(-3, 3),
    ),
    min_size=1, max_size=3,
)


def _poly_from_terms(variables, terms, shift=(0, 0, 0)):
    return MultiPoly.from_terms(variables, {
        tuple(e + s for e, s in zip(t[:len(variables)], shift)): Fraction(t[-1])
        for t in terms
    }.items())


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_poly(sympy, symbols, g):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms},
        *symbols, domain="QQ",
    )


def _sympy_groebner(sympy, ideal):
    symbols = sympy.symbols(ideal.variables)
    polys = [_sympy_poly(sympy, symbols, g) for g in ideal.generators]
    return sympy.groebner(polys, *symbols, order="lex", domain="QQ")


def _sympy_reduced_basis(sympy, ideal):
    """sympy's reduced lex basis of the ideal, made monic."""
    basis = _sympy_groebner(sympy, ideal)
    monic = [
        MultiPoly.from_terms(ideal.variables, {
            e: Fraction(int(c.p), int(c.q)) for e, c in p.monic().terms()
        }.items())
        for p in basis.polys
    ]
    return tuple(sorted(monic, key=lambda f: f.terms[0][0], reverse=True))


def _assert_matches_sympy(sympy, ideal):
    assume(ideal.generators)
    try:
        basis = groebner(ideal, guard=200)
    except DegreeGuardExceeded:
        assume(False)
    assert basis.generators == _sympy_reduced_basis(sympy, ideal)


class TestAgainstSympy:
    @given(
        st.sampled_from([("x", "y"), ("x", "y", "z")]),
        st.lists(_TERMS, min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_ideals(self, sympy, variables, gen_terms):
        ideal = Ideal.make(
            variables, [_poly_from_terms(variables, t) for t in gen_terms]
        )
        _assert_matches_sympy(sympy, ideal)

    # Every generator carries the common monomial factor, so leading terms
    # share factors and a new leading term often divides the lcm of an
    # open pair: the chain criterion fires. The explicit example fires it.
    @given(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
        st.lists(_TERMS, min_size=2, max_size=3),
    )
    @example(
        common=(0, 0, 1),
        gen_terms=[
            [(1, 2, 0, -1), (1, 1, 1, 2)],
            [(1, 2, 0, -2), (2, 0, 1, -2)],
            [(2, 1, 0, -2)],
        ],
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_leading_factors(self, sympy, common, gen_terms):
        variables = ("x", "y", "z")
        ideal = Ideal.make(variables, [
            _poly_from_terms(variables, t, common) for t in gen_terms
        ])
        _assert_matches_sympy(sympy, ideal)

    # Inner ideals mix random polynomials, mostly outside the ideal, with
    # multiples of its generators, which lie inside.
    @given(
        st.sampled_from([("x", "y"), ("x", "y", "z")]),
        st.lists(_TERMS, min_size=1, max_size=3),
        st.lists(_TERMS, max_size=2),
        st.lists(_TERMS, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_contains_agrees_with_member(
        self, sympy, variables, gen_terms, other_terms, factor_terms
    ):
        ideal = Ideal.make(
            variables, [_poly_from_terms(variables, t) for t in gen_terms]
        )
        assume(ideal.generators)
        try:
            basis = groebner(ideal, guard=200)
        except DegreeGuardExceeded:
            assume(False)
        inner = Ideal.make(variables, [
            _poly_from_terms(variables, t) for t in other_terms
        ] + [
            g * _poly_from_terms(variables, t)
            for g, t in zip(ideal.generators, factor_terms)
        ])
        verdicts = [member(g, basis) for g in inner.generators]
        assert contains(basis, inner) == all(verdicts)
        assert verdicts == [
            contains(basis, Ideal(variables, (g,))) for g in inner.generators
        ]
        expected = _sympy_groebner(sympy, ideal)
        symbols = sympy.symbols(variables)
        assert verdicts == [
            expected.contains(_sympy_poly(sympy, symbols, g))
            for g in inner.generators
        ]


class TestPairPruning:
    # S-pair reductions in completing the raw residual ideal of each sl2
    # family. The bounds are the counts with every criterion on: without
    # the chain criterion b needs 14 and ab 38, without criterion M ab
    # needs 114.
    @pytest.mark.parametrize("tag, bound", [("b", 13), ("c", 16), ("ab", 36)])
    def test_spair_reductions_bounded(self, monkeypatch, tag, bound):
        spolys = []
        reductions = []
        spoly, reduce = polynomials._spoly, polynomials.remainder

        def recording_spoly(f, g):
            spolys.append(spoly(f, g))
            return spolys[-1]

        def counting_remainder(p, divisors):
            if spolys and p is spolys[-1]:
                reductions.append(p)
            return reduce(p, divisors)

        ideal = _raw_ideal(Sl2Family.symbolic(tag))
        expected = groebner(ideal)
        monkeypatch.setattr(polynomials, "_spoly", recording_spoly)
        monkeypatch.setattr(polynomials, "remainder", counting_remainder)
        assert groebner(ideal) == expected
        assert len(reductions) == len(spolys)
        assert len(reductions) <= bound


class TestMembership:
    def test_zero_in_everything(self):
        assert member(MultiPoly.zero(RING), groebner(J))
        assert member(MultiPoly.zero(RING), groebner(Ideal(RING, ())))

    def test_x22_is_a_member(self):
        assert member(ring_poly("x22"), groebner(J))

    def test_x32_is_not(self):
        assert not member(ring_poly("x32"), groebner(J))

    def test_ring_mismatch(self):
        # The empty basis has no divisor whose ring division would check.
        p = xy_poly("x - y")
        for gens in ((), (poly_from_string(("z",), "z"),)):
            with pytest.raises(DimensionMismatch):
                member(p, groebner(Ideal(("z",), gens)))

    def test_order_independence(self):
        forward = ("x", "y", "z")
        backward = ("z", "y", "x")
        gens = ["x + y", "y*z - z^2"]
        samples = ["x + y", "x*z + y*z", "x", "z", "x^2 - y^2", "y*z - z^2"]
        ideal_f = Ideal.make(forward, [poly_from_string(forward, g) for g in gens])
        ideal_b = Ideal.make(backward, [poly_from_string(backward, g) for g in gens])
        basis_f, basis_b = groebner(ideal_f), groebner(ideal_b)
        for s in samples:
            assert member(poly_from_string(forward, s), basis_f) == member(
                poly_from_string(backward, s), basis_b
            )


class TestIdealOps:
    def test_product_with_unit(self):
        unit = Ideal.make(RING, [MultiPoly.const(RING, 1)])
        prod = ideal_product(J, unit)
        assert contains(groebner(J), prod) and contains(groebner(prod), J)

    def test_product_contained_in_factors(self):
        prod = ideal_product(P1, P2)
        assert contains(groebner(P1), prod)
        assert contains(groebner(P2), prod)

    def test_family_b_decomposition_containments(self):
        assert contains(groebner(P1), J)
        assert contains(groebner(P2), J)
        assert contains(groebner(J), ideal_product(P1, P2))

    def test_contains_completes_the_outer_basis_once(self, monkeypatch):
        # The caller completes the outer ideal; contains completes nothing.
        calls = []

        def counting(ideal, *args):
            calls.append(ideal)
            return groebner(ideal, *args)

        monkeypatch.setattr("gderive.polynomials.groebner", counting)
        basis = polynomials.groebner(P1)
        assert len(J.generators) > 1
        assert contains(basis, J)
        assert not contains(basis, ring_ideal(["x32"]))
        assert calls == [P1]

    def test_empty_basis_keeps_its_ring(self):
        zero = groebner(Ideal(RING, ()))
        assert zero == Ideal(RING, ())
        assert contains(zero, Ideal(RING, ()))
        assert not contains(zero, J)
        with pytest.raises(DimensionMismatch):
            contains(zero, Ideal.make(("x", "y"), [xy_poly("x")]))

    def test_ring_mismatch(self):
        other = Ideal.make(("x", "y"), [xy_poly("x")])
        with pytest.raises(DimensionMismatch):
            ideal_product(J, other)


class TestPrimeCheck:
    def test_p1_certified(self):
        cert = triangular_prime_check(P1)
        assert cert.certified
        assert cert.free_vars == ("x23", "x32", "x33")

    def test_p2_certified(self):
        cert = triangular_prime_check(P2)
        assert cert.certified
        assert cert.free_vars == ("x32", "y")

    def test_square_not_certified(self):
        cert = triangular_prime_check(Ideal.make(("x",), [poly_from_string(("x",), "x^2")]))
        assert not cert.certified

    def test_unit_not_certified(self):
        cert = triangular_prime_check(Ideal.make(("x",), [poly_from_string(("x",), "1")]))
        assert (cert.certified, cert.reason) == (False, "unit ideal")

    def test_zero_ideal_certified_with_every_variable_free(self):
        cert = triangular_prime_check(groebner(Ideal(("x", "y"), ())))
        assert cert == PrimeCertificate(True, (), ("x", "y"), "triangular-linear")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_triangular_linear_generators_certified(self, data):
        # Generators c*v + r with distinct leading variables v, c neither
        # 0 nor 1, and each tail r in the free variables after v, so v
        # leads in lex order; handed over in shuffled order. With no
        # leading variable the ideal is zero, also certified.
        n = len(TRIANGULAR_RING)
        leading = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        free = [k for k in range(n) if not leading[k]]
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        gens = []
        for i in (k for k in range(n) if leading[k]):
            lead = data.draw(coeffs.filter(lambda c: c not in (0, 1)))
            terms = [(tuple(int(k == i) for k in range(n)), lead)]
            for _ in range(data.draw(st.integers(0, 3))):
                exps = [0] * n
                for k in free:
                    if k > i:
                        exps[k] = data.draw(st.integers(0, 2))
                terms.append((tuple(exps), data.draw(coeffs)))
            gens.append(MultiPoly.from_terms(TRIANGULAR_RING, terms))
        ideal = Ideal.make(TRIANGULAR_RING, data.draw(st.permutations(gens)))
        cert = triangular_prime_check(ideal)
        assert cert.certified
        assert cert == triangular_prime_check(groebner(ideal))
        assert cert.free_vars == tuple(TRIANGULAR_RING[k] for k in free)

    def test_planted_non_prime_not_certified(self):
        ideal = ring_ideal(["y*x11", "y*x12"])
        for basis in (ideal, groebner(ideal)):
            cert = triangular_prime_check(basis)
            assert not cert.certified
            assert cert.reason == "nonlinear leading term in x11*y"

    def test_complete_only_on_the_reduced_basis(self):
        ideal = Ideal.make(("x", "y"), [xy_poly("x - y"), xy_poly("x + y")])
        cert = triangular_prime_check(ideal)
        assert (cert.certified, cert.reason) == (False, "repeated leading variable")
        cert = triangular_prime_check(groebner(ideal))
        assert cert.certified and cert.free_vars == ()


class TestSubstitution:
    def test_linearized_ideal_solution_dim(self):
        fixed = _specialise(J.generators, {"y": 1})
        rows = linear_rows(fixed, RING[:-1])
        assert kernel_of_rows(rows, len(RING) - 1).dim == 1


def gauss_jordan(rows, ncols):
    """Leading-1 reduced rows and pivot columns of Fraction rows, by plain
    Gauss-Jordan elimination."""
    work = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(work)) if work[i][c]), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        work[r] = [a / work[r][c] for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work[:len(pivots)], pivots


def fraction_kernel(rows, ncols):
    """The reduced row echelon basis of {v : row . v = 0 for every row}."""
    reduced, pivots = gauss_jordan(rows, ncols)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            vectors.append(v)
    return [tuple(v) for v in gauss_jordan(vectors, ncols)[0]]


X9 = RING[:-1]

# Linear forms over X9 as {variable index: coefficient}, with denominators.
_linear_forms = st.lists(
    st.dictionaries(
        st.integers(0, 8),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=4,
    ),
    max_size=6,
)


class TestLinearRows:
    @given(_linear_forms, st.integers(0, 3), st.integers(0, 2))
    @example([], 0, 0)
    @example([{0: Fraction(1, 2), 3: Fraction(-2, 3)}], 1, 1)
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_fraction_gauss_jordan(self, forms, repeats, zeros):
        forms = forms + forms[:repeats] + [{}] * zeros
        gens = [
            MultiPoly.from_terms(
                X9, [(tuple(int(i == j) for j in range(9)), c) for i, c in form.items()]
            )
            for form in forms
        ]
        dense = [[form.get(j, 0) for j in range(9)] for form in forms]
        space = kernel_of_rows(linear_rows(gens, X9), 9)
        assert list(space.basis) == fraction_kernel(dense, 9)
        if not forms:
            assert space.dim == 9

    @pytest.mark.parametrize("text", ["x11^2", "x11*x12", "1", "x11 + 1"])
    def test_nonlinear_generator_rejected(self, text):
        with pytest.raises(DimensionMismatch):
            linear_rows([poly_from_string(X9, text)], X9)

    def test_wrong_ring_rejected(self):
        with pytest.raises(DimensionMismatch):
            linear_rows([poly_from_string(RING, "x11")], X9)


class TestJson:
    def test_round_trip(self):
        data = {
            "vars": list(RING),
            "gens": [poly_to_string(g) for g in P1.generators],
        }
        loaded = ideal_from_json_dict(data)
        assert loaded == P1

    def test_rejects_duplicate_vars(self):
        with pytest.raises(InputError):
            ideal_from_json_dict({"vars": ["x", "x"], "gens": ["x"]})

    def test_rejects_missing_keys(self):
        with pytest.raises(InputError):
            ideal_from_json_dict({"vars": ["x"]})

    @pytest.mark.parametrize("name", ["1", "", "x y", "x-1"])
    def test_rejects_names_that_are_not_identifiers(self, name):
        # The tokenizer reads none of these as one whole name: "1" would
        # read as the constant, "x-1" as a difference.
        with pytest.raises(InputError, match="is not an identifier"):
            ideal_from_json_dict({"vars": [name, "x"], "gens": ["x - 1"]})
