"""Graded dimension windows over powers of an automorphism and their
closed-form generating series.

For infinite-order sigma the window is symmetric, |k| <= K; for finite
order m only one cycle 0 <= k < m is stored since the dims repeat. Each
grade is the dimension of one solved space, so no basis maps are built.
A series is only built from a certified window: either the finite cycle,
or the least eventually periodic pattern detected inside the window.
sigma is a plain matrix, checked against the algebra before all else.
"""

from __future__ import annotations

from gderive.algebra import LieAlgebra, require_automorphism
from gderive.derivations import _solve
from gderive.errors import FiniteOrderInput, InputError, NoPeriod
from gderive.limits import (
    DEFAULT_ORDER_BOUND,
    DEFAULT_WINDOW,
    MAX_ORDER_BOUND,
    MAX_WINDOW,
)
from gderive.linalg import Matrix, inverse, matrix_order
from gderive.record import Record


class GradedDims(Record):
    kind: str
    window: int
    dims: dict
    finite_order: int


def graded_dims(
    g: LieAlgebra,
    sigma: Matrix,
    kind: str = "plain",
    window: int = DEFAULT_WINDOW,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> GradedDims:
    """Solve Der_{sigma^k}(g) for each grade in the window.

    kind "plus" additionally requires commuting with sigma^k, which is
    vacuous at k = 0, so grade 0 always carries dim Der(g). The window
    must lie in 1..MAX_WINDOW and order_bound in 1..MAX_ORDER_BOUND: each
    grade is one linear solve and at most one matrix product (sigma^k is
    sigma^(k-1) times sigma, or times one shared inverse for k < 0), and
    each order step is one matrix product. sigma must be an automorphism
    of g; it is checked first and only once, so a singular sigma is
    reported as no automorphism.
    """
    require_automorphism(g, sigma)
    if kind not in ("plain", "plus"):
        raise InputError(f"unknown grading kind {kind!r}")
    if not 1 <= window <= MAX_WINDOW:
        raise InputError(f"window must be between 1 and {MAX_WINDOW}")
    if not 1 <= order_bound <= MAX_ORDER_BOUND:
        raise InputError(
            f"order bound must be between 1 and {MAX_ORDER_BOUND}"
        )
    order = matrix_order(sigma, order_bound)
    if order is None:
        steps, top = ((1, sigma), (-1, inverse(sigma))), window
    else:
        steps, top, window = ((1, sigma),), order - 1, order

    # The identity and every power of the checked sigma are automorphisms.
    ident = Matrix.identity(g.dim)

    def dim(m: Matrix) -> int:
        return _solve(g, m, ident, kind, ()).dim

    dims = {0: dim(ident)}
    for sign, step in steps:
        power = step
        for k in range(1, top + 1):
            if k > 1:
                power = power @ step
            dims[sign * k] = dim(power)
    return GradedDims(kind, window, dict(sorted(dims.items())), order)


def detect_period(gd: GradedDims):
    """Least (cutoff, period) under which the window is eventually
    periodic on both sides, or None when nothing fits.

    Lexicographic minimum with cutoff + period <= window, so at least
    one repetition is actually witnessed.
    """
    if gd.finite_order is not None:
        raise FiniteOrderInput(
            "finite-order gradings are exactly periodic; no detection needed"
        )
    K = gd.window
    for cutoff in range(K):
        for period in range(1, K - cutoff + 1):
            ok = all(
                gd.dims[k] == gd.dims[k + period]
                for k in range(cutoff, K - period + 1)
            ) and all(
                gd.dims[-k] == gd.dims[-k - period]
                for k in range(cutoff, K - period + 1)
            )
            if ok:
                return cutoff, period
    return None


class RationalSeries(Record):
    """Closed form: Laurent polynomial plus two geometric tails.

    polynomial_part: tuple of (exponent, coefficient) pairs.
    positive_tail: (coeffs, period, start) meaning
        t^start * sum(coeffs[i] t^i) / (1 - t^period), or None.
    negative_tail: the mirror image in t^{-1}, or None.
    """

    polynomial_part: tuple
    positive_tail: tuple
    negative_tail: tuple
    finite_order: int

    def coefficient(self, k: int) -> int:
        if self.finite_order is not None:
            k %= self.finite_order
        total = 0
        for exponent, coeff in self.polynomial_part:
            if exponent == k:
                total += coeff
        if self.positive_tail is not None:
            coeffs, period, start = self.positive_tail
            if k >= start:
                total += coeffs[(k - start) % period]
        if self.negative_tail is not None:
            coeffs, period, start = self.negative_tail
            if -k >= start:
                total += coeffs[(-k - start) % period]
        return total


def rational_series(gd: GradedDims) -> RationalSeries:
    """Assemble the generating series certified by the window.

    Finite order gives a polynomial of degree < order. Otherwise the
    (cutoff, period) of ``detect_period`` split the window into a central
    Laurent polynomial and two geometric tails; NoPeriod when none fits.
    """
    if gd.finite_order is not None:
        poly = tuple(
            (k, gd.dims[k]) for k in range(gd.finite_order) if gd.dims[k]
        )
        return RationalSeries(poly, None, None, gd.finite_order)
    found = detect_period(gd)
    if found is None:
        raise NoPeriod("no eventual period is visible in the window")
    cutoff, period = found
    start = max(cutoff, 1)
    poly = tuple(
        (k, gd.dims[k])
        for k in range(-(start - 1), start)
        if gd.dims[k]
    )
    pos = tuple(gd.dims[start + i] for i in range(period))
    neg = tuple(gd.dims[-start - i] for i in range(period))
    positive_tail = (pos, period, start) if any(pos) else None
    negative_tail = (neg, period, start) if any(neg) else None
    return RationalSeries(poly, positive_tail, negative_tail, None)


def series_matches_window(gd: GradedDims, series: RationalSeries) -> bool:
    """Exact agreement of the closed form with every computed grade."""
    return all(series.coefficient(k) == d for k, d in gd.dims.items())


def _monomial(exponent: int) -> str:
    if exponent == 0:
        return "1"
    if exponent == 1:
        return "t"
    return f"t^{exponent}"


def _term(exponent: int, coeff: int) -> str:
    if exponent == 0:
        return str(coeff)
    mono = _monomial(exponent)
    return mono if coeff == 1 else f"{coeff}*{mono}"


def _tail_text(coeffs, period: int, start: int, sign: int) -> str:
    terms = [
        _term(sign * (start + i), c) for i, c in enumerate(coeffs) if c
    ]
    numerator = " + ".join(terms)
    if len(terms) > 1:
        numerator = f"({numerator})"
    return f"{numerator}/(1-{_monomial(sign * period)})"


def render_series(series: RationalSeries) -> str:
    """Human-readable closed form, e.g. '3 + t/(1-t) + t^-1/(1-t^-1)'."""
    parts = [
        _term(e, c)
        for e, c in sorted(series.polynomial_part, key=lambda p: abs(p[0]))
        if c
    ]
    if series.positive_tail is not None:
        parts.append(_tail_text(*series.positive_tail, 1))
    if series.negative_tail is not None:
        parts.append(_tail_text(*series.negative_tail, -1))
    return " + ".join(parts) if parts else "0"
