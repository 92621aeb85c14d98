"""Case study: twisted derivations of sl2 over the three families of
inner automorphisms, as affine varieties.

Solution matrices are flattened column-by-column: the symbolic unknown
x_{jk} is the k-th coordinate of the image of the j-th basis vector,
matching the stacked-image vector convention of the linear layer. The
polynomial ring for a family lists the nine unknowns first and the
family parameters last, in lexicographic order.

Each family's automorphism is sigma = exp(G) for a nilpotent derivation
G = D(a, b, c). At fixed parameters it is exp_nilpotent(G); the symbolic
families use closed-form grids of exp(G) over the family ring, which the
test suite proves equal to exp_nilpotent by interpolation. Fixed values
enter a symbolic polynomial through one ring map, ``substitute_polys``
with constant images (``_specialise``).

For each family the module reads the residual ideal J of the twisted
identity off the structure table of sl2, and produces the candidate
components p1 (untwisted slice) and p2 (parametric line family) and a
verification report: containments, prime certificates, and a symbolic
check that the parametric form zeroes every raw generator identically.
Computed forms are authoritative; claimed forms and dimensions are
carried alongside and compared, never silently substituted. A report
holds what was computed, not the family it was asked for.
"""

from __future__ import annotations

from fractions import Fraction

from gderive.algebra import builtin, structure_table
from gderive.errors import InputError, ZeroParameterA
from gderive.linalg import (
    Matrix,
    exp_nilpotent,
    kernel_of_rows,
    rank,
    square_maps,
)
from gderive.polynomials import (
    DEFAULT_GUARD,
    Ideal,
    MultiPoly,
    PrimeCertificate,
    contains,
    groebner,
    ideal_product,
    linear_rows,
    poly_from_string,
    triangular_prime_check,
)
from gderive.record import Record

SL2 = builtin("sl2")

X_VARS = ("x11", "x12", "x13", "x21", "x22", "x23", "x31", "x32", "x33")
RING_ONE_PARAM = X_VARS + ("y",)
RING_TWO_PARAM = X_VARS + ("b", "c")

FAMILY_PARAMS = {"b": ("b",), "c": ("c",), "ab": ("a", "b")}


class Sl2Family(Record):
    """One of the three automorphism families, symbolic or fixed."""

    tag: str
    values: dict = None

    def __post_init__(self):
        if self.tag not in FAMILY_PARAMS:
            raise InputError(f"unknown family {self.tag!r}")
        if self.values is not None:
            expected = set(FAMILY_PARAMS[self.tag])
            if set(self.values) != expected:
                raise InputError(
                    f"family {self.tag!r} needs values for {sorted(expected)}"
                )
            if self.tag == "ab":
                if self.values["a"] == 0:
                    raise ZeroParameterA("the two-parameter family needs a != 0")
                if self.values["b"] == 0:
                    raise ZeroParameterA(
                        "the two-parameter family needs b != 0; its defining "
                        "matrix has b in a denominator"
                    )

    @classmethod
    def symbolic(cls, tag: str) -> "Sl2Family":
        return cls(tag, None)

    @classmethod
    def fixed(cls, tag: str, **values) -> "Sl2Family":
        return cls(tag, {k: Fraction(v) for k, v in values.items()})

    @property
    def ring(self) -> tuple:
        return RING_TWO_PARAM if self.tag == "ab" else RING_ONE_PARAM


def derivation_matrix(a, b, c) -> Matrix:
    """The general derivation of sl2 with the three free coefficients."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return Matrix.from_rows([[a, b, 0], [-2 * c, 0, -2 * b], [0, c, -a]])


class DerivationClassification(Record):
    nilpotent: bool
    predicted_nilpotent: bool
    ranks: dict

    @property
    def consistent(self) -> bool:
        return self.nilpotent == self.predicted_nilpotent


def classify_derivation(a, b, c) -> DerivationClassification:
    """Nilpotency dichotomy and iterated ranks for the derivation family."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    d = derivation_matrix(a, b, c)
    d2 = d @ d
    d3 = d2 @ d
    nilpotent = d3.is_zero()
    if b * c == 0:
        predicted = a == 0
    else:
        predicted = a * a == 4 * b * c
    ranks = {n: rank(m) for n, m in ((1, d), (2, d2), (3, d3))}
    return DerivationClassification(nilpotent, predicted, ranks)


def _generator_matrix(tag: str, values: dict) -> Matrix:
    if tag == "b":
        return derivation_matrix(0, values["b"], 0)
    if tag == "c":
        return derivation_matrix(0, 0, values["c"])
    a, b = values["a"], values["b"]
    return derivation_matrix(a, b, a * a / (4 * b))


# exp(G) = I + G + G^2/2 for each family's nilpotent generator G, as
# polynomials in the family parameters: G = D(0, y, 0), D(0, 0, y) and
# D(2bc, b, bc^2), the last being D(a, b, a^2/4b) at c = a/2b.
SYMBOLIC_SIGMA = {
    "b": (
        ("1", "y", "-y^2"),
        ("0", "1", "-2*y"),
        ("0", "0", "1"),
    ),
    "c": (
        ("1", "0", "0"),
        ("-2*y", "1", "0"),
        ("-y^2", "y", "1"),
    ),
    "ab": (
        ("b^2*c^2 + 2*b*c + 1", "b^2*c + b", "-b^2"),
        ("-2*b^2*c^3 - 2*b*c^2", "-2*b^2*c^2 + 1", "2*b^2*c - 2*b"),
        ("-b^2*c^4", "-b^2*c^3 + b*c^2", "b^2*c^2 - 2*b*c + 1"),
    ),
}


def family_sigma(f: Sl2Family):
    """The automorphism of the family: exp_nilpotent of its generator when
    fixed; when symbolic, the closed-form grid of exp(G) over the family
    ring, which the test suite proves equal to exp_nilpotent."""
    if f.values is not None:
        return exp_nilpotent(_generator_matrix(f.tag, f.values))
    return _matrix_of_strings(f.ring, SYMBOLIC_SIGMA[f.tag])


def _matrix_of_strings(ring, rows):
    return tuple(
        tuple(poly_from_string(ring, e) for e in row) for row in rows
    )


# -- the residual ideal -------------------------------------------------------

class DerivationIdealReport(Record):
    raw: Ideal
    simplified: Ideal


def _residual_polynomials(ring, sigma):
    """Coordinate r of D[e_i, e_j] - [D e_i, sigma e_j] - [e_i, D e_j] is
    sum_m c_ij^m x_mr - sum_pq x_ip sigma_qj c_pq^r - sum_q x_jq c_iq^r,
    read off the structure table, with x_mr the unknown X_VARS[n*m + r]."""
    table, scale = structure_table(SL2)
    n = SL2.dim
    x = [[MultiPoly.var(ring, X_VARS[n * m + r]) for r in range(n)]
         for m in range(n)]
    # The pair order fixes the order of the raw generators.
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = upper + [(j, i) for i, j in upper] + [(i, i) for i in range(n)]
    raw = []
    # Zero is seen from the start, so zero coordinates drop with repeats.
    seen = {MultiPoly.zero(ring)}
    for i, j in pairs:
        residual = [MultiPoly.zero(ring)] * n
        for m, c in table[i].get(j, {}).items():
            for r in range(n):
                residual[r] += x[m][r].scale(c)
        for p in range(n):
            for q, coords in table[p].items():
                term = x[i][p] * sigma[q][j]
                for r, c in coords.items():
                    residual[r] -= term.scale(c)
        for q, coords in table[i].items():
            for r, c in coords.items():
                residual[r] -= x[j][q].scale(c)
        for poly in residual:
            key = poly.monic()
            if key not in seen:
                seen.add(key)
                raw.append(poly.scale(Fraction(1, scale)))
    return raw


def _raw_ideal(f: Sl2Family) -> Ideal:
    """The nonzero residual coordinates over all ordered basis pairs,
    deduplicated up to scale, with fixed parameter values substituted."""
    sigma = family_sigma(Sl2Family.symbolic(f.tag))
    raw = _residual_polynomials(f.ring, sigma)
    if f.values is not None:
        assignment = _parameter_assignment(f.tag, f.values)
        raw = [p for p in _specialise(raw, assignment) if not p.is_zero]
    return Ideal.make(raw[0].variables if raw else X_VARS, raw)


def derivation_ideal(
    f: Sl2Family, guard: int = DEFAULT_GUARD
) -> DerivationIdealReport:
    """Residual ideal of the family, raw and fully reduced.

    Raw generators are the nonzero residual coordinates over all ordered
    basis pairs, deduplicated up to scale. The simplified set is the
    reduced lexicographic basis of the same ideal; plain linear
    interreduction cannot reach it, since some simplifications require
    polynomial, parameter-dependent combinations.
    """
    ideal = _raw_ideal(f)
    return DerivationIdealReport(ideal, groebner(ideal, guard))


def _parameter_assignment(tag: str, values: dict) -> dict:
    if tag == "b":
        return {"y": values["b"]}
    if tag == "c":
        return {"y": values["c"]}
    a, b = values["a"], values["b"]
    return {"b": b, "c": Fraction(a) / (2 * b)}


def _specialise(polys, assignment: dict) -> list:
    """The polynomials of one ring with the assigned variables set to
    rational values: one ring map onto the remaining variables."""
    ring = tuple(v for v in polys[0].variables if v not in assignment)
    images = {name: MultiPoly.const(ring, value) for name, value in assignment.items()}
    return [p.substitute_polys(ring, images) for p in polys]


# -- known components ---------------------------------------------------------

class Component(Record):
    """One candidate irreducible component of the residual variety.

    form: 3x3 grid of polynomials in form_variables giving the general
    member, together with parameter_values pinning the ring parameters.
    claimed_form carries the published grid when it differs from or
    duplicates the computed one; claimed_dimension likewise.
    """

    name: str
    ideal: Ideal
    form: tuple
    form_variables: tuple
    parameter_values: dict
    claimed_dimension: int
    claimed_form: tuple = None

    def evaluate(self, assignment: dict) -> tuple:
        """(derivation matrix, ring-parameter values) at rational points."""
        matrix = Matrix.from_rows([
            [_constant_value(e) for e in _specialise(row, assignment)]
            for row in self.form
        ])
        params = _specialise(list(self.parameter_values.values()), assignment)
        return matrix, dict(zip(self.parameter_values, map(_constant_value, params)))


def _constant_value(p: MultiPoly) -> Fraction:
    if p.is_zero:
        return Fraction(0)
    if len(p.terms) == 1 and not any(p.terms[0][0]):
        return p.terms[0][1]
    raise InputError("assignment does not evaluate the form to a constant")


def _strings(ring, items):
    return tuple(poly_from_string(ring, s) for s in items)


P1_ONE_PARAM = (
    "x13", "x22", "x31", "y",
    "x11 + x33", "x12 + 2*x23", "x21 + 1/2*x32",
)
P2_FAMILY_B = (
    "x11", "x12", "x13", "x22", "x23", "x33",
    "x21 + 1/2*x32", "x31 - 1/2*x32*y",
)
P2_FAMILY_C = (
    "x11", "x21", "x22", "x31", "x32", "x33",
    "x12 + 2*x23", "x13 + x23*y",
)
P1_TWO_PARAM = (
    "x13", "x22", "x31", "b",
    "x11 + x33", "x12 + 2*x23", "x21 + 1/2*x32",
)

# Parameters that must vanish on the untwisted slice of each family.
_VANISHING_PARAMS = ("y", "b")

# Direction vector of the two-parameter line component, as matrix rows.
AB_DIRECTION = (
    ("2*c + b*c^2", "1 + b*c", "-1*b"),
    ("-2*c^2 - 2*b*c^3", "-2*b*c^2", "2*b*c - 2"),
    ("-1*b*c^4", "c^2 - b*c^3", "b*c^2 - 2*c"),
)

# Published grid for the two-parameter component; the denominators make
# it a report-only artifact, excluded locus a*b = 4.
AB_CLAIMED_FORM = (
    ("(ab+4)/(ab-4)*c", "(-a^2b-2a)/(ab^2-4b)*c", "(-a^3/4)/(ab^2-4b)*c"),
    ("(2ab^2+4b)/(a^2b-4a)*c", "(-2ab)/(ab-4)*c", "(a-a^2b/2)/(ab^2-4b)*c"),
    ("(-4b^3)/(a^2b-4a)*c", "(4ab^2-8b)/(a^2b-4a)*c", "c"),
)


def _untwisted_component(ring, gens, param_names):
    # V(p1): the twisting parameter vanishes and the matrix is a plain
    # derivation. In the two-parameter family only b must vanish for the
    # automorphism to collapse to the identity, so c stays free.
    form_vars = ("u1", "u2", "u3") + tuple(
        n for n in param_names if n not in _VANISHING_PARAMS
    )
    zero = MultiPoly.zero(form_vars)
    u = [MultiPoly.var(form_vars, n) for n in ("u1", "u2", "u3")]
    a, b, c = u
    form = (
        (a, b, zero),
        (c.scale(-2), zero, b.scale(-2)),
        (zero, c, a.scale(-1)),
    )
    parameter_values = {}
    for name in param_names:
        if name in form_vars:
            parameter_values[name] = MultiPoly.var(form_vars, name)
        else:
            parameter_values[name] = zero
    return Component(
        "p1", Ideal.make(ring, _strings(ring, gens)), form, form_vars,
        parameter_values, 3,
    )


def known_components(f: Sl2Family) -> tuple:
    """(p1, p2) with their certified generator lists and parametrizations."""
    if f.tag != "ab":
        p1 = _untwisted_component(RING_ONE_PARAM, P1_ONE_PARAM, ("y",))
        form_vars = ("t", "y")
        t = MultiPoly.var(form_vars, "t")
        y = MultiPoly.var(form_vars, "y")
        zero = MultiPoly.zero(form_vars)
        half = Fraction(1, 2)
        if f.tag == "b":
            gens = P2_FAMILY_B
            form = claimed = (
                (zero, t.scale(-half), (t * y).scale(half)),
                (zero, zero, t),
                (zero, zero, zero),
            )
        else:
            # The recorded form of family c fails the identity.
            gens = P2_FAMILY_C
            form = (
                (zero, zero, zero),
                (t.scale(-1), zero, zero),
                ((t * y).scale(-half), t.scale(half), zero),
            )
            claimed = (
                (zero, zero, zero),
                (t.scale(-2), zero, t),
                ((t * y).scale(-2), zero, zero),
            )
        p2 = Component(
            "p2",
            Ideal.make(RING_ONE_PARAM, _strings(RING_ONE_PARAM, gens)),
            form, form_vars, {"y": y}, 2, claimed_form=claimed,
        )
        return p1, p2
    p1 = _untwisted_component(RING_TWO_PARAM, P1_TWO_PARAM, ("b", "c"))
    form_vars = ("t", "b", "c")
    t = MultiPoly.var(form_vars, "t")
    direction = _matrix_of_strings(form_vars, [list(r) for r in AB_DIRECTION])
    form = tuple(
        tuple(t * e for e in row) for row in direction
    )
    scale_t = poly_from_string(RING_TWO_PARAM, "1/2*x21 - 1/4*x32")
    gens = []
    for j in range(3):
        for k in range(3):
            x = MultiPoly.var(RING_TWO_PARAM, X_VARS[3 * j + k])
            n = AB_DIRECTION[k][j]
            n_lifted = poly_from_string(RING_TWO_PARAM, n)
            gens.append(x - n_lifted * scale_t)
    p2 = Component(
        "p2", Ideal.make(RING_TWO_PARAM, gens), form, form_vars,
        {"b": MultiPoly.var(form_vars, "b"), "c": MultiPoly.var(form_vars, "c")},
        3, claimed_form=AB_CLAIMED_FORM,
    )
    return p1, p2


# -- decomposition verification ----------------------------------------------

class ComponentVerdict(Record):
    component: Component
    certificate: PrimeCertificate
    dimension: int
    dimension_source: str
    contains_residuals: bool
    form_satisfies_residuals: bool
    claimed_form_satisfies_residuals: bool


class DecompositionReport(Record):
    raw: Ideal
    simplified: Ideal
    components: tuple
    product_contained: bool

    @property
    def all_verdicts_true(self) -> bool:
        checks = [self.product_contained]
        for c in self.components:
            checks += [
                c.certificate.certified,
                c.contains_residuals,
                c.form_satisfies_residuals,
            ]
        return all(checks)


def _form_satisfies(raw: Ideal, form: tuple, component: Component) -> bool:
    """True when `form` zeroes every raw generator of the family."""
    mapping = {}
    for j in range(3):
        for k in range(3):
            mapping[X_VARS[3 * j + k]] = form[k][j]
    mapping.update(component.parameter_values)
    for gen in raw.generators:
        image = gen.substitute_polys(component.form_variables, mapping)
        if not image.is_zero:
            return False
    return True


def verify_decomposition(
    f: Sl2Family, guard: int = DEFAULT_GUARD
) -> DecompositionReport:
    """Certify the two-component decomposition of the residual variety.

    Three completions in all: the residual ideal J and the two
    components. Each reduced basis then answers the queries on its ideal
    without being completed again: the prime check and the containment
    of J's raw generators run on a component's basis, and the product of
    the components is divided by J's basis.
    """
    report = derivation_ideal(Sl2Family.symbolic(f.tag), guard)
    p1, p2 = known_components(f)
    verdicts = []
    for component in (p1, p2):
        basis = groebner(component.ideal, guard)
        cert = triangular_prime_check(basis)
        if cert.certified:
            dimension = len(cert.free_vars)
            source = "certified free variables"
        else:
            dimension = len(component.form_variables)
            source = "parametrization coordinates"
        claimed = component.claimed_form
        claimed_ok = None
        if claimed is not None and not isinstance(claimed[0][0], str):
            claimed_ok = _form_satisfies(report.raw, claimed, component)
        verdicts.append(
            ComponentVerdict(
                component,
                cert,
                dimension,
                source,
                contains(basis, report.raw),
                _form_satisfies(report.raw, component.form, component),
                claimed_ok,
            )
        )
    product = ideal_product(p1.ideal, p2.ideal)
    product_in = contains(report.simplified, product)
    return DecompositionReport(
        report.raw, report.simplified, tuple(verdicts), product_in
    )


# -- fixed-parameter reports --------------------------------------------------

class FixedDimensionReport(Record):
    dimension: int
    basis: tuple
    paper_claim: int

    @property
    def matches_claim(self) -> bool:
        return self.dimension == self.paper_claim


def fixed_param_dimension(f: Sl2Family) -> FixedDimensionReport:
    """Exact solution space of a fixed family, via the symbolic ideal:
    specialise, linearize, take the kernel.

    The computed dimension is authoritative; the published family-level
    claim (dimension 4 at any fixed parameter) is reported alongside.
    """
    if f.values is None:
        raise InputError("fixed parameter values are required")
    gens = _raw_ideal(f).generators
    space = kernel_of_rows(linear_rows(gens, X_VARS), 9)
    return FixedDimensionReport(space.dim, square_maps(space.rows, 3), 4)
