"""Case study: twisted derivations of sl2 over the three families of
inner automorphisms, as affine varieties.

Solution matrices are flattened column-by-column: the symbolic unknown
x_{jk} is the k-th coordinate of the image of the j-th basis vector,
matching the stacked-image vector convention of the linear layer. The
polynomial ring for a family lists the nine unknowns first and the
family parameters last, in lexicographic order.

Each family's automorphism is sigma = exp(G) for a nilpotent derivation
G: exp_nilpotent(G) at fixed parameters, and a closed-form grid over the
family ring when symbolic, which the test suite proves equal to
exp_nilpotent. Fixed values enter a symbolic polynomial through one ring
map, ``substitute_polys`` with constant images (``_specialise``).

The recorded data of each family is one entry of text in ``FAMILIES``,
parsed by ``_grid``: the grid of sigma, the generators and forms of the
components p1 (untwisted slice) and p2 (parametric line family), and the
recorded dimensions and grids. The residual ideal J of the twisted
identity is read off the structure table of sl2, and the components are
checked against it: containments, prime certificates, and that each
form zeroes every raw generator. Recorded claims are compared with what
is computed, never substituted for it. A report holds what was
computed, not the family it was asked for.
"""

from __future__ import annotations

from fractions import Fraction

from gderive.algebra import builtin
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

# The recorded data of each family, as text: a grid lists its rows
# separated by ";" and the entries of a row by ","; a list is one row.
# "sigma" is exp(G) = I + G + G^2/2 over the family ring, for the
# nilpotent G = D(0, y, 0), D(0, 0, y) and D(2bc, b, bc^2), the last
# being D(a, b, a^2/4b) at c = a/2b. A component's fields are those of
# `Component`, its "params" the values of the ring parameters in ring
# order. A "published" grid has denominators (excluded locus a*b = 4 for
# ab), so it stays text and gets no identity check.

# On p1 the twisting parameter vanishes: a plain derivation D(u1, u2, u3).
_P1_ONE_PARAM = {
    "p1 gens": "x13, x22, x31, y, x11 + x33, x12 + 2*x23, x21 + 1/2*x32",
    "p1 vars": ("u1", "u2", "u3"),
    "p1 form": "u1, u2, 0; -2*u3, 0, -2*u2; 0, u3, -u1",
    "p1 params": "0",
    "p1 dim": 3,
}

FAMILIES = {
    "b": {
        "sigma": "1, y, -y^2; 0, 1, -2*y; 0, 0, 1",
        **_P1_ONE_PARAM,
        "p2 gens": "x11, x12, x13, x22, x23, x33, x21 + 1/2*x32, x31 - 1/2*x32*y",
        "p2 vars": ("t", "y"),
        "p2 form": "0, -1/2*t, 1/2*t*y; 0, 0, t; 0, 0, 0",
        "p2 params": "y",
        "p2 dim": 2,
        "p2 recorded": "0, -1/2*t, 1/2*t*y; 0, 0, t; 0, 0, 0",
        "fixed_claim": 4,
    },
    "c": {
        "sigma": "1, 0, 0; -2*y, 1, 0; -y^2, y, 1",
        **_P1_ONE_PARAM,
        "p2 gens": "x11, x21, x22, x31, x32, x33, x12 + 2*x23, x13 + x23*y",
        "p2 vars": ("t", "y"),
        "p2 form": "0, 0, 0; -t, 0, 0; -1/2*t*y, 1/2*t, 0",
        "p2 params": "y",
        "p2 dim": 2,
        # The recorded form of family c fails the identity.
        "p2 recorded": "0, 0, 0; -2*t, 0, t; -2*t*y, 0, 0",
        "fixed_claim": 4,
    },
    "ab": {
        "sigma": (
            "b^2*c^2 + 2*b*c + 1, b^2*c + b, -b^2; "
            "-2*b^2*c^3 - 2*b*c^2, -2*b^2*c^2 + 1, 2*b^2*c - 2*b; "
            "-b^2*c^4, -b^2*c^3 + b*c^2, b^2*c^2 - 2*b*c + 1"
        ),
        # sigma is the identity at b = 0 for every c, so c stays free on p1.
        "p1 gens": "x13, x22, x31, b, x11 + x33, x12 + 2*x23, x21 + 1/2*x32",
        "p1 vars": ("u1", "u2", "u3", "c"),
        "p1 form": "u1, u2, 0; -2*u3, 0, -2*u2; 0, u3, -u1",
        "p1 params": "0, c",
        "p1 dim": 3,
        # p2 is the line t*n, n the form at t = 1; its generators
        # x_jk - n_kj*(1/2*x21 - 1/4*x32) recover t from x21 and x32.
        "p2 gens": (
            "x11 - 1/2*x21*b*c^2 - x21*c + 1/4*x32*b*c^2 + 1/2*x32*c, "
            "x12 + x21*b*c^3 + x21*c^2 - 1/2*x32*b*c^3 - 1/2*x32*c^2, "
            "x13 + 1/2*x21*b*c^4 - 1/4*x32*b*c^4, "
            "-1/2*x21*b*c + 1/2*x21 + 1/4*x32*b*c + 1/4*x32, "
            "x21*b*c^2 + x22 - 1/2*x32*b*c^2, "
            "1/2*x21*b*c^3 - 1/2*x21*c^2 + x23 - 1/4*x32*b*c^3 + 1/4*x32*c^2, "
            "1/2*x21*b + x31 - 1/4*x32*b, "
            "-x21*b*c + x21 + 1/2*x32*b*c + 1/2*x32, "
            "-1/2*x21*b*c^2 + x21*c + 1/4*x32*b*c^2 - 1/2*x32*c + x33"
        ),
        "p2 vars": ("t", "b", "c"),
        "p2 form": (
            "t*b*c^2 + 2*t*c, t*b*c + t, -t*b; "
            "-2*t*b*c^3 - 2*t*c^2, -2*t*b*c^2, 2*t*b*c - 2*t; "
            "-t*b*c^4, -t*b*c^3 + t*c^2, t*b*c^2 - 2*t*c"
        ),
        "p2 params": "b, c",
        "p2 dim": 3,
        "p2 published": (
            "(ab+4)/(ab-4)*c, (-a^2b-2a)/(ab^2-4b)*c, (-a^3/4)/(ab^2-4b)*c; "
            "(2ab^2+4b)/(a^2b-4a)*c, (-2ab)/(ab-4)*c, (a-a^2b/2)/(ab^2-4b)*c; "
            "(-4b^3)/(a^2b-4a)*c, (4ab^2-8b)/(a^2b-4a)*c, c"
        ),
        "fixed_claim": 4,
    },
}


class Sl2Family(Record):
    """One of the three automorphism families, symbolic (``values`` None)
    or fixed; ``symbolic`` and ``fixed`` check the tag and the values."""

    tag: str
    values: dict

    @classmethod
    def symbolic(cls, tag: str) -> "Sl2Family":
        if tag not in FAMILY_PARAMS:
            raise InputError(f"unknown family {tag!r}")
        return cls(tag, None)

    @classmethod
    def fixed(cls, tag: str, **values) -> "Sl2Family":
        """The family at the given parameter values: exactly the family's
        parameters, with a and b nonzero in the two-parameter family."""
        values = {k: Fraction(v) for k, v in values.items()}
        cls.symbolic(tag)  # checks the tag
        expected = set(FAMILY_PARAMS[tag])
        if set(values) != expected:
            raise InputError(f"family {tag!r} needs values for {sorted(expected)}")
        if tag == "ab":
            if values["a"] == 0:
                raise ZeroParameterA("the two-parameter family needs a != 0")
            if values["b"] == 0:
                raise ZeroParameterA(
                    "the two-parameter family needs b != 0; its defining "
                    "matrix has b in a denominator"
                )
        return cls(tag, values)

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


def family_sigma(f: Sl2Family):
    """The automorphism of the family: exp_nilpotent of its generator when
    fixed; when symbolic, the closed-form grid of exp(G) over the family
    ring, which the test suite proves equal to exp_nilpotent."""
    if f.values is not None:
        return exp_nilpotent(_generator_matrix(f.tag, f.values))
    return _grid(f.ring, FAMILIES[f.tag]["sigma"])


def _grid(ring, text):
    """Recorded text as a grid over the named ring, or of text if None."""
    parse = str.strip if ring is None else lambda e: poly_from_string(ring, e)
    return tuple(tuple(map(parse, row.split(","))) for row in text.split(";"))


# -- the residual ideal -------------------------------------------------------

class DerivationIdealReport(Record):
    raw: Ideal
    simplified: Ideal


def _residual_polynomials(ring, sigma):
    """Coordinate r of D[e_i, e_j] - [D e_i, sigma e_j] - [e_i, D e_j] is
    sum_m c_ij^m x_mr - sum_pq x_ip sigma_qj c_pq^r - sum_q x_jq c_iq^r,
    read off the structure table, with x_mr the unknown X_VARS[n*m + r]."""
    table = SL2.table
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
                raw.append(poly.scale(Fraction(1, SL2.scale)))
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
    claimed_form: tuple

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


def known_components(f: Sl2Family) -> tuple:
    """(p1, p2) of the family, parsed from its recorded data."""
    entry = FAMILIES[f.tag]
    components = []
    for name in ("p1", "p2"):
        variables = entry[name + " vars"]
        text = entry.get(name + " recorded") or entry.get(name + " published")
        ring = variables if name + " recorded" in entry else None
        claimed = text and _grid(ring, text)
        (params,) = _grid(variables, entry[name + " params"])
        components.append(Component(
            name,
            Ideal.make(f.ring, _grid(f.ring, entry[name + " gens"])[0]),
            _grid(variables, entry[name + " form"]),
            variables,
            dict(zip(f.ring[len(X_VARS):], params)),
            entry[name + " dim"],
            claimed,
        ))
    return tuple(components)


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
    claim = FAMILIES[f.tag]["fixed_claim"]
    return FixedDimensionReport(space.dim, square_maps(space.rows, 3), claim)
