"""Acceptance suite: one test per recorded criterion, all exact.

Each test re-derives its expected values through the library and asserts
them with zero tolerance.  Where a recorded source value is refuted by
exact computation and an independent reckoning (criteria 6 and 7), the
test asserts the computed values, keeps the displayed ones beside them
and asserts that the two differ, so the disagreement stays on record.

Criterion 5 is asserted as recorded and fails: its claim is true, since
the two-parameter scalar-recovery component is prime, but proving that
needs more than the triangular-linear certificate the certifier issues,
which reports "not certified" for it.
"""

import random
from fractions import Fraction

from gderive.algebra import (
    builtin,
    is_automorphism,
)
from gderive.derivations import (
    centroid,
    derivation_space,
    intersection_report,
    is_derivation_pair,
    quasiderivation_witness,
    restrict,
    sigma_bracket,
)
from gderive.hilbert import (
    detect_period,
    graded_dims,
    rational_series,
    render_series,
    series_matches_window,
)
from gderive.linalg import (
    Matrix,
    Subspace,
    exp_nilpotent,
    inverse,
    matrix_to_vec,
    rank,
    square_maps,
    subspace_intersect,
)
from gderive.polynomials import (
    Ideal,
    MultiPoly,
    contains,
    groebner,
    ideal_product,
    poly_from_string,
    remainder,
    triangular_prime_check,
)
from gderive.sl2 import (
    RING_ONE_PARAM,
    Sl2Family,
    classify_derivation,
    derivation_ideal,
    derivation_matrix,
    family_sigma,
    fixed_param_dimension,
    known_components,
    verify_decomposition,
)

F = Fraction

SL2 = builtin("sl2")
HEIS = builtin("heisenberg")
EX46 = builtin("example_4_6")
ID_SL2 = Matrix.identity(SL2.dim)

# Centroid, Der_sigma and intersection dimensions displayed for the
# nilpotent example; refuted by exact computation, which gives (3, 4, 2).
NILPOTENT_DISPLAYED_DIMS = (5, 5, 3)

SIXTEEN_DISPLAYED = [
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


def _span(matrices) -> Matrix:
    return Matrix.from_rows([matrix_to_vec(m) for m in matrices])


def _in_span(stack: Matrix, m: Matrix) -> bool:
    extended = Matrix.from_rows(list(stack.entries) + [matrix_to_vec(m)])
    return rank(stack) == rank(extended)


def _sigma_b(value) -> Matrix:
    return family_sigma(Sl2Family.fixed("b", b=value))


def _sigma_c(value) -> Matrix:
    return family_sigma(Sl2Family.fixed("c", c=value))


def _spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    f_exps, f_coeff = f.leading_term()
    g_exps, g_coeff = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(f_exps, g_exps))
    f_factor = MultiPoly.from_terms(
        f.variables,
        ((tuple(a - b for a, b in zip(lcm, f_exps)), 1 / f_coeff),),
    )
    g_factor = MultiPoly.from_terms(
        g.variables,
        ((tuple(a - b for a, b in zip(lcm, g_exps)), 1 / g_coeff),),
    )
    return f_factor * f - g_factor * g


def _certified_member(p: MultiPoly, basis) -> bool:
    """Membership via the remainder by a reduced basis, cross-checked
    against a term-by-term division whose quotients expand back to p."""
    zero = MultiPoly.zero(p.variables)
    quotients = [zero] * len(basis)
    rest, work = zero, p
    while not work.is_zero:
        exps, coeff = work.leading_term()
        step = MultiPoly.from_terms(p.variables, [(exps, coeff)])
        for i, g in enumerate(basis):
            lead, lead_coeff = g.leading_term()
            if all(a <= b for a, b in zip(lead, exps)):
                shift = tuple(b - a for a, b in zip(lead, exps))
                q = MultiPoly.from_terms(p.variables, [(shift, coeff / lead_coeff)])
                quotients[i] = quotients[i] + q
                work = work - q * g
                break
        else:
            rest = rest + step
            work = work - step
    expansion = rest
    for q, g in zip(quotients, basis):
        expansion = expansion + q * g
    assert expansion == p
    rem = remainder(p, basis)
    assert rem == rest
    return rem.is_zero


class TestAcceptance:
    def test_criterion_01_untwisted_derivation_family(self):
        space = derivation_space(SL2, ID_SL2)
        assert space.dim == 3
        displayed = [
            derivation_matrix(1, 0, 0),
            derivation_matrix(0, 1, 0),
            derivation_matrix(0, 0, 1),
        ]
        solved = _span(space.basis)
        shown = _span(displayed)
        assert all(_in_span(solved, m) for m in displayed)
        assert all(_in_span(shown, m) for m in space.basis)

    def test_criterion_02_nilpotency_dichotomy(self):
        rng = random.Random(2)
        for _ in range(200):
            a, b, c = (
                F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)
            )
            got = classify_derivation(a, b, c)
            nilpotent = (derivation_matrix(a, b, c) @ derivation_matrix(a, b, c) @ derivation_matrix(a, b, c)).is_zero()
            expected = (b * c == 0 and a == 0) or (
                b * c != 0 and a * a == 4 * b * c
            )
            assert nilpotent == expected
            if not nilpotent:
                assert all(got.ranks[n] == 2 for n in (1, 2, 3))

    def test_criterion_03_exponential_families(self):
        for v in (F(1), F(-2), F(3, 5)):
            upper = _sigma_b(v)
            lower = _sigma_c(v)
            assert upper == Matrix.from_rows(
                [[1, v, -v * v], [0, 1, -2 * v], [0, 0, 1]]
            )
            assert lower == Matrix.from_rows(
                [[1, 0, 0], [-2 * v, 1, 0], [-v * v, v, 1]]
            )
            assert is_automorphism(SL2, upper)
            assert is_automorphism(SL2, lower)
        for a, b in ((F(2), F(1)), (F(1), F(3))):
            sig = family_sigma(Sl2Family.fixed("ab", a=a, b=b))
            assert sig == exp_nilpotent(
                derivation_matrix(a, b, a * a / (4 * b))
            )
            assert is_automorphism(SL2, sig)

    def test_criterion_04_one_parameter_upper_decomposition(self):
        report = derivation_ideal(Sl2Family.symbolic("b"))
        p1, p2 = known_components(Sl2Family.symbolic("b"))
        assert contains(p1.ideal, report.raw)
        assert contains(p2.ideal, report.raw)
        assert contains(report.raw, ideal_product(p1.ideal, p2.ideal))
        assert triangular_prime_check(p1.ideal).certified
        assert triangular_prime_check(p2.ideal).certified
        mapping = {}
        for j in range(3):
            for k in range(3):
                mapping[f"x{j + 1}{k + 1}"] = p2.form[k][j]
        for text in SIXTEEN_DISPLAYED:
            image = poly_from_string(RING_ONE_PARAM, text).substitute_polys(
                p2.form_variables, mapping
            )
            assert image.is_zero

    def test_criterion_05_lower_and_two_parameter_decompositions(self):
        for tag, points in (
            ("c", ({"t": F(5), "y": F(-2)}, {"t": F(1), "y": F(1)})),
            (
                "ab",
                (
                    {"t": F(3), "b": F(1), "c": F(1)},
                    {"t": F(1), "b": F(1), "c": F(-2)},
                ),
            ),
        ):
            _, p2 = known_components(Sl2Family.symbolic(tag))
            for point in points:
                m, params = p2.evaluate(point)
                if tag == "c":
                    sig = _sigma_c(params["y"])
                else:
                    sig = family_sigma(
                        Sl2Family.fixed(
                            "ab", a=2 * params["b"] * params["c"], b=params["b"]
                        )
                    )
                assert is_derivation_pair(
                    SL2, m, sig, ID_SL2
                )
        for tag in ("c", "ab"):
            report = verify_decomposition(Sl2Family.symbolic(tag))
            assert report.all_verdicts_true

    def test_criterion_06_fixed_parameter_dimensions(self):
        dims = []
        for v in (0, 1, -2):
            polynomial_pipeline = fixed_param_dimension(
                Sl2Family.fixed("b", b=v)
            )
            linear_pipeline = derivation_space(
                SL2, _sigma_b(F(v))
            )
            assert polynomial_pipeline.dimension == linear_pipeline.dim
            stacked = Matrix.from_rows(
                [
                    matrix_to_vec(m)
                    for m in polynomial_pipeline.basis + linear_pipeline.basis
                ]
            )
            assert rank(stacked) == polynomial_pipeline.dimension
            assert polynomial_pipeline.paper_claim == 4
            assert polynomial_pipeline.matches_claim is False
            dims.append(polynomial_pipeline.dimension)
        assert tuple(dims) == (3, 1, 1)

    def test_criterion_07_nilpotent_example_displayed_dimensions(self):
        shear = Matrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
        cent = centroid(HEIS)
        twisted = derivation_space(HEIS, shear)
        inter = subspace_intersect(cent.subspace, twisted.subspace)
        # Column c holds the image of e_c.  T[x,y] = [Tx,y] = [x,Ty] on
        # (e1,e2) forces a scalar diagonal and T(e3) in <e3>; on (e1,e1)
        # and (e2,e2) it forces T21 = T12 = 0.  So the centroid is the
        # scalars plus Hom(h/[h,h], z), whatever the twist.
        e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        e31 = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        e32 = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
        e11_e33 = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        hand_centroid = [Matrix.identity(3), e31, e32]
        hand_twisted = [e12, e31, e32, e11_e33]
        hand_inter = [e31, e32]
        inter_basis = square_maps(inter.rows, 3)
        for computed, hand in (
            (cent.basis, hand_centroid),
            (twisted.basis, hand_twisted),
            (inter_basis, hand_inter),
        ):
            solved = _span(computed)
            shown = _span(hand)
            assert all(_in_span(solved, m) for m in hand)
            assert all(_in_span(shown, m) for m in computed)
        dims = (cent.dim, twisted.dim, inter.dim)
        assert dims == (3, 4, 2)
        assert dims != NILPOTENT_DISPLAYED_DIMS

    def test_criterion_08_solvable_example_restrictions(self):
        space = derivation_space(EX46, Matrix.identity(EX46.dim))
        assert space.dim == 4
        displayed = [
            Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
            Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
            Matrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
            Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
        ]
        solved = _span(space.basis)
        shown = _span(displayed)
        assert all(_in_span(solved, m) for m in displayed)
        assert all(_in_span(shown, m) for m in space.basis)
        h = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
        restrictions = [restrict(m, h) for m in space.basis]
        assert sorted(r.entries for r in restrictions) == sorted(
            [
                ((0, 0), (0, 0)),
                ((0, 0), (0, 0)),
                ((1, 0), (0, 0)),
                ((0, 0), (0, 1)),
            ]
        )
        plane = builtin("abelian(2)")
        for r in restrictions:
            assert quasiderivation_witness(plane, r) is not None

    def test_criterion_09_twist_bijection(self):
        rng = random.Random(9)

        def sample():
            v = F(rng.randint(-3, 3), rng.randint(1, 3))
            base = _sigma_b(v) if rng.random() < 0.5 else _sigma_c(v)
            if rng.random() < 0.5:
                w = F(rng.randint(-3, 3), rng.randint(1, 3))
                other = _sigma_c(w) if rng.random() < 0.5 else _sigma_b(w)
                return base @ other
            return base

        for _ in range(50):
            sigma = sample()
            tau = sample()
            left = derivation_space(SL2, sigma, tau)
            tau_inv = inverse(tau)
            moved = tau_inv @ sigma
            right = derivation_space(SL2, moved)
            assert left.dim == right.dim
            twisted = [tau_inv @ d for d in left.basis]
            if twisted:
                assert rank(_span(twisted)) == left.dim
                target = _span(right.basis)
                assert all(_in_span(target, m) for m in twisted)

    def test_criterion_10_transported_bracket(self):
        sigma = _sigma_b(F(1))
        space = derivation_space(SL2, sigma, sigma)
        basis = space.basis
        assert space.dim == 3
        inv = inverse(sigma)
        for a in basis:
            for b in basis:
                for c in basis:
                    jac = (
                        sigma_bracket(a, sigma_bracket(b, c, inv), inv)
                        + sigma_bracket(b, sigma_bracket(c, a, inv), inv)
                        + sigma_bracket(c, sigma_bracket(a, b, inv), inv)
                    )
                    assert jac.is_zero()
        untwisted = derivation_space(SL2, ID_SL2)
        target = _span(untwisted.basis)
        moved = [inv @ d for d in basis]
        assert rank(_span(moved)) == 3
        assert all(_in_span(target, m) for m in moved)
        for a in basis:
            for b in basis:
                transported = inv @ sigma_bracket(a, b, inv)
                plain = (inv @ a) @ (inv @ b) - (inv @ b) @ (inv @ a)
                assert transported == plain

    def test_criterion_11_trivial_centroid_intersections(self):
        cent = centroid(SL2)
        samples = [
            _sigma_b(F(1)),
            _sigma_b(F(-2)),
            _sigma_b(F(3, 5)),
            _sigma_c(F(1)),
            _sigma_c(F(-2)),
            family_sigma(Sl2Family.fixed("ab", a=2, b=1)),
            family_sigma(Sl2Family.fixed("ab", a=1, b=3)),
        ]
        bound_applied = False
        for matrix in samples:
            space = derivation_space(SL2, matrix)
            inter = subspace_intersect(cent.subspace, space.subspace)
            assert inter.dim == 0
            for j in range(SL2.dim):
                if not space.basis:
                    break
                images = Matrix.from_rows(
                    [[m[r, j] for r in range(SL2.dim)] for m in space.basis]
                )
                if rank(images) == space.dim:
                    bound_applied = True
                    assert space.dim <= SL2.dim
                    break
        assert bound_applied

    def test_criterion_12_centralizer_counterexample(self):
        tau = _sigma_b(F(1))
        report = intersection_report(
            SL2, ID_SL2, tau, witness=(F(1), F(0), F(0))
        )
        assert report.dimension == 0
        assert report.witness_in_centralizer is True

    def test_criterion_13_graded_window_and_series(self):
        sigma = _sigma_b(F(1))
        gd = graded_dims(SL2, sigma, window=6)
        assert gd.dims == {k: (3 if k == 0 else 1) for k in range(-6, 7)}
        assert detect_period(gd) == (1, 1)
        series = rational_series(gd)
        assert series_matches_window(gd, series)
        flip = Matrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
        flipped = graded_dims(SL2, flip)
        assert flipped.finite_order == 2
        finite = rational_series(flipped)
        assert finite.positive_tail is None and finite.negative_tail is None
        assert finite.polynomial_part == ((0, 3), (1, 1))
        assert render_series(finite) == "3 + t"

    def test_criterion_14_groebner_self_checks(self):
        for tag in ("b", "c", "ab"):
            report = derivation_ideal(Sl2Family.symbolic(tag))
            ideal = report.raw
            basis = report.simplified.generators
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert remainder(_spoly(basis[i], basis[j]), basis).is_zero
            for g in ideal.generators:
                assert _certified_member(g, basis)
            assert contains(report.simplified, ideal)
        rng = random.Random(14)
        names = ("w", "x", "y", "z")
        for _ in range(20):
            nvars = rng.randint(2, 4)
            ring = names[:nvars]
            gens = []
            for _ in range(rng.randint(2, 3)):
                poly = MultiPoly.zero(tuple(ring))
                for _ in range(rng.randint(1, 3)):
                    exps = tuple(
                        rng.randint(0, 3) if rng.random() < 0.5 else 0
                        for _ in range(nvars)
                    )
                    if sum(exps) > 3:
                        continue
                    term = MultiPoly.const(tuple(ring), F(rng.randint(-3, 3)))
                    for name, e in zip(ring, exps):
                        if e:
                            for _ in range(e): term = term * MultiPoly.var(tuple(ring), name)
                    poly = poly + term
                if not poly.is_zero:
                    gens.append(poly)
            if not gens:
                continue
            ideal = Ideal.make(tuple(ring), gens)
            reduced = groebner(ideal)
            basis = reduced.generators
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert remainder(_spoly(basis[i], basis[j]), basis).is_zero
            for g in gens:
                assert _certified_member(g, basis)
            assert contains(reduced, ideal)
