"""Tests for graded dimension windows and their closed-form series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gderive import algebra, derivations
from gderive.algebra import builtin
from gderive.derivations import derivation_space
from gderive.errors import (
    FiniteOrderInput,
    InputError,
    NoPeriod,
    UnvalidatedAutomorphism,
)
from gderive.hilbert import (
    GradedDims,
    detect_period,
    graded_dims,
    rational_series,
    render_series,
    series_matches_window,
)
from gderive.linalg import Matrix, exp_nilpotent, inverse, square_maps


def power(sigma, k):
    """sigma^k as repeated products of sigma, or of its inverse for k < 0."""
    base = sigma if k >= 0 else inverse(sigma)
    m = Matrix.identity(base.rows)
    for _ in range(abs(k)):
        m = m @ base
    return m

SL2 = builtin("sl2")
HEIS = builtin("heisenberg")

D_UPPER = Matrix.from_rows([[0, 1, 0], [0, 0, -2], [0, 0, 0]])
SIGMA_UPPER = exp_nilpotent(D_UPPER)
FLIP = Matrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
SHEAR = Matrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
SIGMA_LOWER = exp_nilpotent(Matrix.from_rows(
    [[0, 0, 0], [Fraction(-4, 3), 0, 0], [0, Fraction(2, 3), 0]]
))
HEIS_SCALING = Matrix.from_rows(
    [[Fraction(1, 2), 0, 0], [0, 3, 0], [0, 0, Fraction(3, 2)]]
)
# Der_{sigma^k} has dim 4 at even and 3 at odd k != 0 (plain kind).
HEIS_ALTERNATING = Matrix.from_rows([[-1, 0, 0], [0, 2, 0], [0, 0, -2]])
HEIS_ROTATION = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])


def synthetic(dims, window, finite_order=None):
    return GradedDims(window, dims, finite_order)


class TestGradedDims:
    def test_identity_is_order_one(self):
        gd = graded_dims(SL2, Matrix.identity(SL2.dim))
        assert gd.finite_order == 1
        assert gd.dims == {0: 3}
        assert render_series(rational_series(gd)) == "3"

    def test_order_two_cycle(self):
        gd = graded_dims(SL2, FLIP)
        assert gd.finite_order == 2
        assert gd.dims == {0: 3, 1: 1}
        # The odd grade is spanned by the fixed diagonal map.
        space = derivation_space(SL2, FLIP)
        assert space.basis == (
            Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),
        )

    def test_unipotent_window(self):
        gd = graded_dims(SL2, SIGMA_UPPER, "plain", 6)
        expected = {k: 1 for k in range(-6, 7)}
        expected[0] = 3
        assert gd.dims == expected
        assert gd.finite_order is None

    def test_window_builds_no_basis_maps(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return square_maps(*args)

        monkeypatch.setattr(derivations, "square_maps", counting)
        gd = graded_dims(SL2, SIGMA_UPPER, window=6)
        assert len(gd.dims) == 13
        assert calls == []

    def test_grade_zero_is_full_derivation_algebra(self):
        for g, sigma in [(SL2, SIGMA_UPPER), (SL2, FLIP), (HEIS, SHEAR)]:
            for kind in ("plain", "plus"):
                gd = graded_dims(g, sigma, kind, 2)
                ident = Matrix.identity(g.dim)
                assert gd.dims[0] == derivation_space(g, ident).dim

    def test_plus_is_pointwise_bounded_by_plain(self):
        for g, sigma in [(SL2, SIGMA_UPPER), (HEIS, SHEAR)]:
            plain = graded_dims(g, sigma, "plain", 3)
            plus = graded_dims(g, sigma, "plus", 3)
            for k in plain.dims:
                assert plus.dims[k] <= plain.dims[k]

    def test_unipotent_plus_equals_plain(self):
        # Every twisted space in this family commutes with its twist.
        plain = graded_dims(SL2, SIGMA_UPPER, "plain", 4)
        plus = graded_dims(SL2, SIGMA_UPPER, "plus", 4)
        assert plain.dims == plus.dims

    @pytest.mark.parametrize("kind", ["plain", "plus"])
    @pytest.mark.parametrize("window", [1, 2, 8])
    @pytest.mark.parametrize(
        "g, sigma",
        [
            (SL2, SIGMA_UPPER),
            (SL2, SIGMA_LOWER),
            (SL2, FLIP),
            (HEIS, SHEAR),
            (HEIS, HEIS_SCALING),
            (HEIS, HEIS_ALTERNATING),
            (HEIS, HEIS_ROTATION),
        ],
        ids=["sl2-upper", "sl2-lower", "sl2-flip", "h3-shear", "h3-scaling",
             "h3-alternating", "h3-rotation"],
    )
    def test_matches_per_grade_powers(self, g, sigma, window, kind):
        gd = graded_dims(g, sigma, kind, window)
        if gd.finite_order is None:
            grades = range(-window, window + 1)
        else:
            grades = range(gd.finite_order)
        assert list(gd.dims) == list(grades)
        for k in grades:
            reference = derivation_space(g, power(sigma, k), kind=kind)
            assert gd.dims[k] == reference.dim

    def test_input_guards(self):
        with pytest.raises(InputError):
            graded_dims(SL2, SIGMA_UPPER, "sideways", 3)
        with pytest.raises(InputError):
            graded_dims(SL2, SIGMA_UPPER, "plain", 0)

    def test_sigma_must_be_an_automorphism_of_the_algebra(self):
        # diag(2, 1, 1) is an automorphism of abelian(3), not of sl2.
        foreign = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        abelian = graded_dims(builtin("abelian(3)"), foreign, window=2)
        assert abelian.dims == {k: 9 for k in range(-2, 3)}
        with pytest.raises(UnvalidatedAutomorphism):
            graded_dims(SL2, foreign)
        # A singular sigma is reported as no automorphism, before the
        # order search or the inverse can meet it.
        with pytest.raises(UnvalidatedAutomorphism):
            graded_dims(SL2, Matrix.zero(3, 3), window=1)
        with pytest.raises(UnvalidatedAutomorphism):
            graded_dims(HEIS, SIGMA_UPPER)

    def test_sigma_is_checked_once(self, monkeypatch):
        # The identity and the powers of a checked sigma are automorphisms.
        checked = []
        real = algebra.is_automorphism

        def counting(g, m):
            checked.append(m)
            return real(g, m)

        monkeypatch.setattr(algebra, "is_automorphism", counting)
        assert len(graded_dims(SL2, SIGMA_UPPER, window=3).dims) == 7
        assert checked == [SIGMA_UPPER]


class TestDetectPeriod:
    def test_constant_window(self):
        gd = synthetic({k: 4 for k in range(-5, 6)}, 5)
        assert detect_period(gd) == (0, 1)

    def test_spike_at_zero(self):
        gd = graded_dims(SL2, SIGMA_UPPER, "plain", 6)
        assert detect_period(gd) == (1, 1)

    def test_no_period(self):
        gd = synthetic({k: abs(k) for k in range(-4, 5)}, 4)
        assert detect_period(gd) is None
        with pytest.raises(NoPeriod):
            rational_series(gd)

    def test_finite_order_rejected(self):
        gd = graded_dims(SL2, FLIP)
        with pytest.raises(FiniteOrderInput):
            detect_period(gd)

    def test_longer_period(self):
        dims = {}
        for k in range(-6, 7):
            dims[k] = 2 if abs(k) % 2 else 1
        gd = synthetic(dims, 6)
        assert detect_period(gd) == (0, 2)


class TestRationalSeries:
    def test_unipotent_closed_form(self):
        gd = graded_dims(SL2, SIGMA_UPPER, "plain", 6)
        series = rational_series(gd)
        assert series.polynomial_part == ((0, 3),)
        assert series.positive_tail == ((1,), 1, 1)
        assert series.negative_tail == ((1,), 1, 1)
        assert render_series(series) == "3 + t/(1-t) + t^-1/(1-t^-1)"
        assert series_matches_window(gd, series)
        # Extrapolation beyond the window follows the tails.
        assert series.coefficient(100) == 1
        assert series.coefficient(-100) == 1

    def test_finite_order_is_polynomial(self):
        gd = graded_dims(SL2, FLIP)
        series = rational_series(gd)
        assert series.positive_tail is None
        assert series.negative_tail is None
        assert max(e for e, _ in series.polynomial_part) < 2
        assert render_series(series) == "3 + t"
        assert series_matches_window(gd, series)
        assert series.coefficient(7) == 1

    def test_zero_tails_collapse_to_constant(self):
        dims = {k: 0 for k in range(-4, 5)}
        dims[0] = 5
        gd = synthetic(dims, 4)
        series = rational_series(gd)
        assert series.positive_tail is None
        assert series.negative_tail is None
        assert render_series(series) == "5"
        assert series_matches_window(gd, series)

    def test_two_term_tail_rendering(self):
        dims = {}
        for k in range(-6, 7):
            dims[k] = (2 if abs(k) % 2 else 1) if k else 7
        dims[0] = 7
        gd = synthetic(dims, 6)
        series = rational_series(gd)
        assert series_matches_window(gd, series)
        text = render_series(series)
        assert "/(1-t^2)" in text and "/(1-t^-2)" in text

    @given(
        st.integers(0, 2),
        st.integers(1, 3),
        st.lists(st.integers(0, 9), min_size=3, max_size=3),
        st.lists(st.integers(0, 9), min_size=5, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_expansion_matches_any_periodic_window(
        self, cutoff, period, pattern, middle
    ):
        window = 8
        dims = {}
        for k in range(-window, window + 1):
            if abs(k) < cutoff:
                dims[k] = middle[abs(k)]
            else:
                dims[k] = pattern[(abs(k) - cutoff) % period]
        gd = synthetic(dims, window)
        found = detect_period(gd)
        assert found is not None
        assert found <= (cutoff, period)
        series = rational_series(gd)
        assert series_matches_window(gd, series)
