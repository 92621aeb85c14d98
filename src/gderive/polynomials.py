"""Multivariate polynomials over Q with lex order, and polynomial ideals.

The monomial order is lexicographic in the declared variable order, which
is an explicit part of every polynomial's identity. A polynomial holds
integer coefficients over one positive denominator, in canonical form, as
a ``linalg.Matrix`` does: sums, products, scaling, ring maps and
S-polynomials run on the integers, and division runs in one integer frame
(the polynomial being reduced is integer coefficients over one
denominator, each divisor a primitive integer polynomial). Fractions are
made only where a caller reads ``terms``. Homogeneous-linear generators
leave as sparse integer rows (``linear_rows``), the form the kernels of
``linalg`` take.

Only `groebner` completes a basis, with Buchberger's algorithm: pairs are
taken smallest lcm first from a heap, the Gebauer-Moeller criteria drop
the pairs whose S-polynomials are known to reduce to zero, and a degree
guard bounds the number of new basis elements. Membership and containment
divide by the reduced basis it returns, never completing it again.
Primality is certified only through the triangular-linear criterion
(leading variables minus free variables), never decided in general.

Polynomial text (``poly_from_string``) is a sum of terms: a rational
coefficient, factors ``name`` or ``name^k`` (k a nonnegative integer)
joined by ``*``, or a coefficient, ``*`` and factors. Every term after the
first needs a sign, ``+`` or ``-``, and a coefficient may carry its own
``-``: ``x-3`` is x - 3, ``x - -3`` is x + 3. Whitespace may surround any
token. Text that is not a run of tokens is rejected first; then terms are
read left to right, each checked against ``MAX_EXPONENT`` as it ends.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, itemgetter, le, mul, neg, sub

from gderive.errors import (
    DegreeGuardExceeded,
    DimensionMismatch,
    InputError,
    UnknownVariable,
)
from gderive.limits import DEFAULT_GUARD, MAX_EXPONENT, MAX_GUARD
from gderive.linalg import _coerce, format_rational, parse_rational
from gderive.record import Record


class MultiPoly(Record):
    """The polynomial sum(c x^e) / den: ``num`` holds the (exponent
    vector, int c) terms sorted descending, without zeros, over one
    ``den`` > 0, in canonical form: the gcd of ``den`` and every
    coefficient is 1, so equal polynomials have equal fields, and the
    record's ``==`` and ``hash`` over (variables, num, den) are exact.

    ``from_terms`` takes exact scalars (ints, Fractions, rational
    strings); ``terms``, the (exponent vector, Fraction) pairs, is built
    on first read and cached.
    """

    variables: tuple
    num: tuple
    den: int

    # Built in bulk by the Groebner engine, so the record's constructor
    # is written out for the three fields.
    def __init__(self, variables: tuple, num: tuple, den: int, /):
        d = self.__dict__
        d["variables"] = variables
        d["num"] = num
        d["den"] = den

    @cached_property
    def terms(self) -> tuple:
        """(exponent vector, Fraction) pairs, sorted descending."""
        den = self.den
        if den == 1:
            return tuple((e, Fraction(c)) for e, c in self.num)
        return tuple((e, Fraction(c, den)) for e, c in self.num)

    @staticmethod
    def from_terms(variables, terms) -> "MultiPoly":
        """The sum of (exponent vector, exact scalar) pairs; repeated
        exponent vectors add up."""
        variables = tuple(variables)
        pairs = []
        for exps, c in terms:
            if len(exps) != len(variables):
                raise DimensionMismatch("exponent vector length differs")
            pairs.append((exps, _coerce(c)))
        den = lcm(*(c.denominator for _, c in pairs))
        coeffs = {}
        for exps, c in pairs:
            coeffs[exps] = (
                coeffs.get(exps, 0) + c.numerator * (den // c.denominator)
            )
        return _from_ints(variables, coeffs, den)

    @staticmethod
    def zero(variables) -> "MultiPoly":
        return MultiPoly(tuple(variables), (), 1)

    @staticmethod
    def const(variables, value) -> "MultiPoly":
        variables = tuple(variables)
        value = _coerce(value)
        if not value:
            return MultiPoly(variables, (), 1)
        zero_exp = (0,) * len(variables)
        return MultiPoly(
            variables, ((zero_exp, value.numerator),), value.denominator
        )

    @staticmethod
    def var(variables, name) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariable(f"variable {name!r} not in ring")
        exps = tuple(int(v == name) for v in variables)
        return MultiPoly(variables, ((exps, 1),), 1)

    def _check_ring(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise DimensionMismatch("polynomials live in different rings")

    @property
    def is_zero(self) -> bool:
        return not self.num

    def leading_term(self):
        """(exponent vector, coefficient) of the lex-largest term."""
        if not self.num:
            return None
        return self.terms[0]

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other over the lcm of the two denominators."""
        self._check_ring(other)
        if not other.num:
            return self
        den = lcm(self.den, other.den)
        s = den // self.den
        t = sign * (den // other.den)
        coeffs = dict(self.num) if s == 1 else {e: s * c for e, c in self.num}
        get = coeffs.get
        for e, c in other.num:
            coeffs[e] = get(e, 0) + t * c
        return _from_ints(self.variables, coeffs, den)

    def scale(self, value) -> "MultiPoly":
        value = _coerce(value)
        if not value or not self.num:
            return MultiPoly.zero(self.variables)
        k = value.numerator
        return _canonical(
            self.variables, [(e, k * c) for e, c in self.num],
            self.den * value.denominator,
        )

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        return _from_ints(
            self.variables, _times(self.num, other.num), self.den * other.den
        )

    def monic(self) -> "MultiPoly":
        """self over its leading coefficient: the leading integer becomes
        the denominator, its sign moves into the coefficients."""
        num = self.num
        if not num:
            return self
        lead = num[0][1]
        if lead == self.den:
            return self
        g = gcd(*[c for _, c in num])
        if lead < 0:
            g = -g
        if g != 1:
            num = tuple((e, c // g) for e, c in num)
        return MultiPoly(self.variables, num, lead // g)

    def substitute_polys(self, target_variables, mapping: dict) -> "MultiPoly":
        """Ring map: each variable goes to a polynomial over the target ring."""
        target_variables = tuple(target_variables)
        images = []
        for name in self.variables:
            if name in mapping:
                image = mapping[name]
                if image.variables != target_variables:
                    raise DimensionMismatch("image lives in the wrong ring")
            else:
                image = MultiPoly.var(target_variables, name)
            images.append(image)
        # powers[i][e - 1] is images[i] ** e, extended as the terms need it.
        powers = [[image] for image in images]
        zero_exp = (0,) * len(target_variables)
        # The sum so far is coeffs / den; each term c x^e maps to the int
        # terms of c times the image powers over the product of their dens.
        coeffs = {}
        den = 1
        for exps, c in self.num:
            term, term_den = ((zero_exp, c),), 1
            for image, known, e in zip(images, powers, exps):
                if e:
                    while len(known) < e:
                        known.append(known[-1] * image)
                    factor = known[e - 1]
                    term = _times(term, factor.num).items()
                    term_den *= factor.den
            common = lcm(den, term_den)
            if common != den:
                s = common // den
                coeffs = {t: s * v for t, v in coeffs.items()}
                den = common
            s = den // term_den
            get = coeffs.get
            for t, v in term:
                coeffs[t] = get(t, 0) + s * v
        return _from_ints(target_variables, coeffs, den * self.den)

    @cached_property
    def _divisor_frame(self):
        """(support, lead, l, tail) for :func:`remainder`: this polynomial
        made primitive over the integers with a positive leading
        coefficient l, its negated exponent vectors, and the (index,
        negated exponent) pairs of the leading monomial's own variables."""
        num = self.num
        content = gcd(*[c for _, c in num])
        if num[0][1] < 0:
            content = -content
        lead = tuple(map(neg, num[0][0]))
        return (
            tuple((k, a) for k, a in enumerate(lead) if a),
            lead,
            num[0][1] // content,
            [(tuple(map(neg, e)), c // content) for e, c in num[1:]],
        )

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_to_string(self)!r})"


_exps_of = itemgetter(0)


def _canonical(variables, num, den: int) -> MultiPoly:
    """The polynomial of int terms ``num`` (sorted descending, no zeros)
    over den > 0, divided by the gcd of den and every coefficient."""
    if not num:
        return MultiPoly(variables, (), 1)
    g = gcd(den, *[c for _, c in num])
    if g > 1:
        num = [(e, c // g) for e, c in num]
        den //= g
    return MultiPoly(variables, tuple(num), den)


def _from_ints(variables, coeffs: dict, den: int) -> MultiPoly:
    """The polynomial of int coefficients {exponent vector: c} over den."""
    return _canonical(
        variables,
        sorted([t for t in coeffs.items() if t[1]], key=_exps_of, reverse=True),
        den,
    )


def _times(a, b) -> dict:
    """{exponent vector: int} of the product of two int term lists."""
    coeffs = {}
    get = coeffs.get
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(map(add, e1, e2))
            coeffs[e] = get(e, 0) + c1 * c2
    return coeffs


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RAT = r"[0-9]+(?:/[0-9]+)?"
# A run of tokens, each taken whole as a scanner takes it: the lookahead
# and its back reference stand in for an atomic group, which needs
# Python 3.11.
_TOKENS = re.compile(rf"(?:\s*(?=(-?{_RAT}|{_NAME}|[-+*^]))\1)*")
_FACTOR = re.compile(rf"({_NAME})(?:\s*\^\s*([0-9]+))?")
_FACTORS = rf"{_NAME}(?:\s*\^\s*[0-9]+)?(?:\s*\*\s*{_NAME}(?:\s*\^\s*[0-9]+)?)*"
# One term: sign, coefficient, factors after it, factors alone. The
# whitespace after the sign sits in the sign's optional group, or two \s*
# could split one run of blanks in quadratically many ways.
_TERM = re.compile(
    rf"\s*(?:([-+])\s*)?(?:(-?{_RAT})(?:\s*\*\s*({_FACTORS}))?|({_FACTORS}))"
)


def poly_from_string(variables, text: str) -> MultiPoly:
    """Parse a sum of terms in the grammar of the module docstring."""
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    end = _TOKENS.match(text).end()
    if text[end:].strip():
        raise InputError(f"bad polynomial syntax at {text[end:]!r}")
    if not end:
        raise InputError("empty polynomial string")
    terms = []
    pos = 0
    while pos < end:
        term = _TERM.match(text, pos)
        # Every term after the first needs its sign.
        if not term or (pos and not term[1]):
            raise InputError(f"bad polynomial syntax at {text[pos:]!r}")
        sign, coeff, tail, factors = term.groups()
        coeff = parse_rational(coeff) if coeff else Fraction(1)
        exps = [0] * len(variables)
        for name, power in _FACTOR.findall(tail or factors or ""):
            if name not in index:
                raise UnknownVariable(f"variable {name!r} not in ring")
            # parse_rational reports digits past Python's int limit as input.
            exps[index[name]] += parse_rational(power).numerator if power else 1
        for name, e in zip(variables, exps):
            if e > MAX_EXPONENT:
                raise InputError(
                    f"exponent of {name} is {e}; at most {MAX_EXPONENT} is accepted"
                )
        terms.append((tuple(exps), -coeff if sign == "-" else coeff))
        pos = term.end()
    return MultiPoly.from_terms(variables, terms)


def poly_to_string(p: MultiPoly) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for exps, coeff in p.terms:
        factors = []
        for name, e in zip(p.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = format_rational(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_rational(abs(coeff))] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _divides(e1, e2) -> bool:
    return all(map(le, e1, e2))


def _exp_sub(e1, e2):
    return tuple(map(sub, e1, e2))


def _exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def remainder(p: MultiPoly, divisors) -> MultiPoly:
    """The remainder of multivariate division of p by the divisors.

    No term of the remainder is divisible by any divisor's leading term;
    the first divisor whose leading term divides is always chosen, so the
    result is deterministic for a fixed divisor list.

    Division runs in one integer frame. The work polynomial is W / d for
    integer coefficients W and one denominator d. Each divisor enters as a
    primitive integer polynomial with a positive leading coefficient l.
    Reducing a leading term w x^e by x^a times that divisor replaces W by
    (l W - w x^a G) / gcd(w, l), with d scaled alike, so every update is
    an integer operation. Exponent vectors are held negated, so that the
    heap pops the lex-largest term first. A remainder term keeps the d it
    was popped at, and the remainder leaves the frame as those terms
    rescaled to the final d.
    """
    divisors = list(divisors)
    for g in divisors:
        p._check_ring(g)
        if g.is_zero:
            raise DimensionMismatch("zero divisor in division")
    frames = [g._divisor_frame for g in divisors]
    d = p.den
    work = {tuple(map(neg, e)): c for e, c in p.num}
    heap = list(work)
    heapify(heap)
    rest = []
    while heap:
        e = heappop(heap)
        w = work.pop(e, 0)
        if not w:
            continue  # cancelled after it was pushed
        for support, lead, l, tail in frames:
            for k, a in support:
                if e[k] > a:
                    break
            else:
                shift = tuple(map(sub, e, lead))
                g = gcd(w, l)
                if g != l:
                    s = l // g
                    work = {t: s * c for t, c in work.items()}
                    d *= s
                m = w // g
                for te, c in tail:
                    t = tuple(map(add, shift, te))
                    c *= m
                    v = work.get(t)
                    if v is None:
                        work[t] = -c
                        heappush(heap, t)
                    elif v == c:
                        del work[t]
                    else:
                        work[t] = v - c
                break
        else:
            rest.append((e, w, d))
    # Popped in descending order, so the terms are sorted already.
    return _canonical(
        p.variables,
        [(tuple(map(neg, e)), w * (d // at)) for e, w, at in rest],
        d,
    )


class Ideal(Record):
    variables: tuple
    generators: tuple

    @staticmethod
    def make(variables, generators) -> "Ideal":
        variables = tuple(variables)
        gens = []
        seen = set()
        for g in generators:
            if g.variables != variables:
                raise DimensionMismatch("generator lives in the wrong ring")
            if not g.is_zero and g not in seen:
                seen.add(g)
                gens.append(g)
        return Ideal(variables, tuple(gens))


def _spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """x^(l - ef) f / lc(f) - x^(l - eg) g / lc(g) for the lcm l of the
    leading monomials. With F and G the integer terms of f and g and m the
    lcm of their leading integers, it is (m/F0 x^uf F - m/G0 x^ug G) / m,
    and the leading terms cancel."""
    f._check_ring(g)
    (ef, cf), (eg, cg) = f.num[0], g.num[0]
    l = _exp_lcm(ef, eg)
    uf, ug = _exp_sub(l, ef), _exp_sub(l, eg)
    m = lcm(cf, cg)
    sf, sg = m // cf, m // cg
    coeffs = {tuple(map(add, uf, e)): sf * c for e, c in f.num[1:]}
    get = coeffs.get
    for e, c in g.num[1:]:
        t = tuple(map(add, ug, e))
        coeffs[t] = get(t, 0) - sg * c
    return _from_ints(f.variables, coeffs, m)


def groebner(ideal: Ideal, guard: int = DEFAULT_GUARD) -> Ideal:
    """Reduced lex Groebner basis (monic, interreduced, sorted descending),
    as an ideal of the same ring; the zero ideal has the empty basis.

    Buchberger completion in the Gebauer-Moeller installation (Becker and
    Weispfenning, *Groebner Bases*, section 5.5, procedure UPDATE). Every
    generator and every nonzero S-pair remainder enters through one
    update, which:

    - drops a new pair whose lcm is a multiple of another new pair's lcm
      (criterion M/F), and one whose leading terms are coprime (product
      criterion);
    - drops an open pair whose lcm the new leading term divides, unless
      the new element shares that lcm with one of its ends (chain
      criterion B_k);
    - retires the elements whose leading term the new one divides. Their
      open pairs stay queued, and S-polynomials are reduced by the
      elements that are not retired.

    Open pairs wait in a heap keyed by (lcm, i, j), smallest lcm first;
    pairs cut by the chain criterion are deleted lazily. The surviving
    elements are minimalized and interreduced. The reduced basis is
    unique, so the pruning changes the work, never the result.

    Raises DegreeGuardExceeded when more than `guard` S-pair remainders
    are nonzero, and InputError when `guard` lies outside 0..MAX_GUARD.
    """
    if not 0 <= guard <= MAX_GUARD:
        raise InputError(f"degree guard must be between 0 and {MAX_GUARD}")
    basis = []   # every element ever added; indices never change
    leads = []   # leading exponent vector of basis[i]
    active = []  # indices of the elements that are not retired
    open_pairs = {}  # (i, j) -> lcm of the leading terms, i < j
    queue = []   # heap of (lcm, i, j); entries gone from open_pairs are stale
    reduced = product_skips = chain_skips = 0

    def update(h):
        nonlocal product_skips, chain_skips
        k = len(basis)
        eh = h.num[0][0]
        for (i, j), l in list(open_pairs.items()):
            if (
                _divides(eh, l)
                and _exp_lcm(leads[i], eh) != l
                and _exp_lcm(leads[j], eh) != l
            ):
                del open_pairs[(i, j)]
                chain_skips += 1
        new = [(i, _exp_lcm(leads[i], eh)) for i in active]
        kept = []
        for pos, (i, l) in enumerate(new):
            coprime = not any(map(mul, leads[i], eh))
            if coprime or not (
                any(_divides(m, l) for _, m in new[pos + 1:])
                or any(_divides(m, l) for _, m, _ in kept)
            ):
                kept.append((i, l, coprime))
            else:
                chain_skips += 1
        for i, l, coprime in kept:
            if coprime:
                product_skips += 1
            else:
                open_pairs[(i, k)] = l
                heappush(queue, (l, i, k))
        active[:] = [i for i in active if not _divides(eh, leads[i])]
        active.append(k)
        basis.append(h)
        leads.append(eh)

    for g in ideal.generators:
        if not g.is_zero:
            update(g.monic())
    if not basis:
        return Ideal(ideal.variables, ())
    generated = 0
    while queue:
        _, i, j = heappop(queue)
        if open_pairs.pop((i, j), None) is None:
            continue  # cut by the chain criterion after it was queued
        reduced += 1
        s = remainder(_spoly(basis[i], basis[j]), [basis[a] for a in active])
        if s.is_zero:
            continue
        generated += 1
        if generated > guard:
            raise DegreeGuardExceeded(
                f"basis completion exceeded {guard} generated polynomials "
                f"(pairs reduced: {reduced}, skipped by the product "
                f"criterion: {product_skips}, skipped by the chain and M "
                f"criteria: {chain_skips}, still queued: {len(open_pairs)}, "
                f"basis size: {len(active)})"
            )
        update(s.monic())
    # Minimalize: survivors have distinct leading terms, but an input
    # generator's leading term may be a multiple of an earlier survivor's.
    keep = [
        basis[i] for i in active
        if not any(j != i and _divides(leads[j], leads[i]) for j in active)
    ]
    # Interreduce tails against the other survivors.
    result = []
    for i, f in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        result.append(remainder(f, others).monic() if others else f)
    result.sort(key=lambda f: f.num[0][0], reverse=True)
    return Ideal(ideal.variables, tuple(result))


def member(p: MultiPoly, basis: Ideal) -> bool:
    """True iff p reduces to zero by the basis. A False means "not in the
    ideal" only when the basis comes from `groebner`."""
    if p.variables != basis.variables:
        raise DimensionMismatch("polynomial and ideal live in different rings")
    return remainder(p, basis.generators).is_zero


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    if a.variables != b.variables:
        raise DimensionMismatch("ideals live in different rings")
    return Ideal.make(a.variables, tuple(
        f * g for f in a.generators for g in b.generators
    ))


def contains(basis: Ideal, inner: Ideal) -> bool:
    """True iff every generator of inner reduces to zero by the basis of
    the outer ideal. A False means "inner is not contained" only when the
    basis comes from `groebner`."""
    if basis.variables != inner.variables:
        raise DimensionMismatch("ideals live in different rings")
    divisors = basis.generators
    return all(remainder(g, divisors).is_zero for g in inner.generators)


class PrimeCertificate(Record):
    certified: bool
    leading_vars: tuple
    free_vars: tuple
    reason: str


def triangular_prime_check(basis: Ideal) -> PrimeCertificate:
    """Certify primality when the basis is triangular-linear.

    Every basis element must be, up to a scalar, a single variable minus
    a polynomial in variables that are not leading variables of any
    element; the quotient is then a polynomial ring over the free
    variables, hence a domain. Such generators have coprime leading
    terms, so they form a Groebner basis already: the check is sound on
    any generating set, and complete on the reduced basis from
    `groebner`: the zero ideal is certified with every variable free, and
    a constant generator is reported as the unit ideal. Anything else
    yields "not certified", never "not prime".
    """
    leading_positions = []
    for f in basis.generators:
        exps = f.num[0][0]
        if not any(exps):
            return PrimeCertificate(False, (), (), "unit ideal")
        if sum(exps) != 1:
            return PrimeCertificate(
                False, (), (), f"nonlinear leading term in {poly_to_string(f)}"
            )
        leading_positions.append(exps.index(1))
    if len(set(leading_positions)) != len(leading_positions):
        return PrimeCertificate(False, (), (), "repeated leading variable")
    lead_set = set(leading_positions)
    for f in basis.generators:
        for exps, _ in f.num[1:]:
            if any(exps[i] for i in lead_set):
                return PrimeCertificate(
                    False, (), (),
                    f"tail of {poly_to_string(f)} touches a leading variable",
                )
    leading_vars = tuple(basis.variables[i] for i in sorted(lead_set))
    free_vars = tuple(
        v for i, v in enumerate(basis.variables) if i not in lead_set
    )
    return PrimeCertificate(True, leading_vars, free_vars, "triangular-linear")


def linear_rows(generators, variables) -> list:
    """Sparse integer rows {column: c} of homogeneous-linear generators,
    read off each generator's integer coefficients: a row scaled by its
    denominator has the same kernel."""
    variables = tuple(variables)
    rows = []
    for g in generators:
        if g.variables != variables:
            raise DimensionMismatch("generator lives in the wrong ring")
        row = {}
        for exps, c in g.num:
            if sum(exps) != 1:
                raise DimensionMismatch(
                    f"generator {poly_to_string(g)} is not homogeneous linear"
                )
            row[exps.index(1)] = c
        rows.append(row)
    return rows


def ideal_from_json_dict(data: dict) -> Ideal:
    try:
        variables = data["vars"]
        gens = data["gens"]
    except (TypeError, KeyError) as exc:
        raise InputError("ideal object needs vars and gens") from exc
    if not isinstance(variables, list) or not all(
        isinstance(v, str) for v in variables
    ):
        raise InputError("vars must be a list of names")
    for name in variables:
        # The parser must read each name whole: "1" would read as the
        # constant, "x-1" as a difference.
        if not re.fullmatch(_NAME, name):
            raise InputError(f"variable name {name!r} is not an identifier")
    if len(set(variables)) != len(variables):
        raise InputError("vars must be distinct")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InputError("gens must be a list of polynomial strings")
    variables = tuple(variables)
    return Ideal.make(variables, tuple(
        poly_from_string(variables, g) for g in gens
    ))
