"""Multivariate polynomials over Q with lex order, and polynomial ideals.

The monomial order is lexicographic in the declared variable order, which
is an explicit part of every polynomial's identity. Coefficients are
Fractions. Division runs in an integer frame instead: the polynomial being
reduced is integer coefficients over one denominator, each divisor a
primitive integer polynomial, and only the remainder's terms (and the
quotients, when `divide` is asked for them) come back as Fractions.

Ideal calculations (membership, containment) divide by the unique reduced
basis, which `groebner` completes with Buchberger's algorithm: pairs are
taken smallest lcm first from a heap, and the Gebauer-Moeller criteria
drop the pairs whose S-polynomials are known to reduce to zero. A degree
guard bounds the number of new basis elements. Primality is certified
only through the triangular-linear criterion (leading variables minus free
variables), never decided in general.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, neg, sub

from gderive.errors import (
    DegreeGuardExceeded,
    DimensionMismatch,
    InputError,
    UnknownVariable,
)
from gderive.limits import DEFAULT_GUARD, MAX_GUARD
from gderive.linalg import Matrix, format_rational, parse_rational
from gderive.record import Record


def _normalize_terms(terms: dict) -> tuple:
    return tuple(sorted(
        ((e, c) for e, c in terms.items() if c != 0), reverse=True
    ))


class MultiPoly(Record):
    """Polynomial as a map exponent-vector -> coefficient, sorted descending."""

    variables: tuple
    terms: tuple

    # Built and compared in bulk by the Groebner engine, so the record
    # methods are written out for the two fields.
    def __init__(self, variables: tuple, terms: tuple):
        d = self.__dict__
        d["variables"] = variables
        d["terms"] = terms

    def __eq__(self, other):
        if other.__class__ is not MultiPoly:
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, self.terms))

    @staticmethod
    def from_dict(variables, terms: dict) -> "MultiPoly":
        variables = tuple(variables)
        for exps in terms:
            if len(exps) != len(variables):
                raise DimensionMismatch("exponent vector length differs")
        return MultiPoly(variables, _normalize_terms(terms))

    @staticmethod
    def zero(variables) -> "MultiPoly":
        return MultiPoly(tuple(variables), ())

    @staticmethod
    def const(variables, value) -> "MultiPoly":
        variables = tuple(variables)
        value = Fraction(value)
        if value == 0:
            return MultiPoly(variables, ())
        zero_exp = tuple(0 for _ in variables)
        return MultiPoly(variables, ((zero_exp, value),))

    @staticmethod
    def var(variables, name, power: int = 1) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariable(f"variable {name!r} not in ring")
        exps = tuple(power if v == name else 0 for v in variables)
        return MultiPoly(variables, ((exps, Fraction(1)),))

    def _check_ring(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise DimensionMismatch("polynomials live in different rings")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self):
        """(exponent vector, coefficient) of the lex-largest term."""
        if not self.terms:
            return None
        return self.terms[0]

    def coefficient(self, exps) -> Fraction:
        for e, c in self.terms:
            if e == exps:
                return c
        return Fraction(0)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms:
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.variables, _normalize_terms(terms))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, tuple((e, -c) for e, c in self.terms))

    def scale(self, value) -> "MultiPoly":
        value = Fraction(value)
        if value == 0:
            return MultiPoly.zero(self.variables)
        return MultiPoly(self.variables, tuple(
            (e, value * c) for e, c in self.terms
        ))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        terms = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
        return MultiPoly(self.variables, _normalize_terms(terms))

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise InputError(f"negative polynomial power {k}")
        result = MultiPoly.const(self.variables, 1)
        for _ in range(k):
            result = result * self
        return result

    def monic(self) -> "MultiPoly":
        if self.is_zero:
            return self
        return self.scale(Fraction(1) / self.terms[0][1])

    def substitute(self, assignments: dict) -> "MultiPoly":
        """Partial evaluation at rational values; assigned variables drop out."""
        for name in assignments:
            if name not in self.variables:
                raise UnknownVariable(f"variable {name!r} not in ring")
        keep = [i for i, v in enumerate(self.variables) if v not in assignments]
        values = {
            i: Fraction(assignments[v])
            for i, v in enumerate(self.variables)
            if v in assignments
        }
        new_vars = tuple(self.variables[i] for i in keep)
        terms = {}
        for exps, coeff in self.terms:
            for i, value in values.items():
                coeff = coeff * value ** exps[i]
            if coeff == 0:
                continue
            new_exps = tuple(exps[i] for i in keep)
            terms[new_exps] = terms.get(new_exps, Fraction(0)) + coeff
        return MultiPoly(new_vars, _normalize_terms(terms))

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
        result = MultiPoly.zero(target_variables)
        for exps, coeff in self.terms:
            term = MultiPoly.const(target_variables, coeff)
            for image, known, e in zip(images, powers, exps):
                if e:
                    while len(known) < e:
                        known.append(known[-1] * image)
                    term = term * known[e - 1]
            result = result + term
        return result

    @cached_property
    def _divisor_frame(self):
        """(support, lead, l, tail) for :func:`_reduce`: this polynomial
        made primitive over the integers with a positive leading
        coefficient l, its negated exponent vectors, and the (index,
        negated exponent) pairs of the leading monomial's own variables."""
        ints, _ = _integer_terms(self.terms)
        content = gcd(*(c for _, c in ints))
        if ints[0][1] < 0:
            content = -content
        lead = ints[0][0]
        return (
            tuple((k, a) for k, a in enumerate(lead) if a),
            lead,
            ints[0][1] // content,
            [(e, c // content) for e, c in ints[1:]],
        )

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_to_string(self)!r})"


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<rat>-?[0-9]+(?:/[0-9]+)?)|(?P<name>{_NAME})|(?P<op>[-+*^]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            raise InputError(f"bad polynomial syntax at {text[pos:]!r}")
        if match.group("rat") is not None:
            tokens.append(("rat", match.group("rat")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


def poly_from_string(variables, text: str) -> MultiPoly:
    """Parse a sum of monomials: rational coefficients, '*', '^', no parens."""
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty polynomial string")
    terms = {}
    pos = 0

    def parse_term(sign: Fraction, pos: int):
        coeff = sign
        exps = [0] * len(variables)
        expect_factor = True
        saw_factor = False
        while pos < len(tokens):
            kind, value = tokens[pos]
            if expect_factor:
                if kind == "rat":
                    if saw_factor:
                        raise InputError("coefficient must lead its term")
                    coeff *= parse_rational(value)
                    saw_factor = True
                    pos += 1
                elif kind == "name":
                    if value not in index:
                        raise UnknownVariable(f"variable {value!r} not in ring")
                    power = 1
                    pos += 1
                    if pos + 1 < len(tokens) and tokens[pos] == ("op", "^"):
                        kind2, value2 = tokens[pos + 1]
                        if kind2 != "rat" or "/" in value2 or value2.startswith("-"):
                            raise InputError("exponent must be a nonnegative integer")
                        power = int(value2)
                        pos += 2
                    exps[index[value]] += power
                    saw_factor = True
                else:
                    raise InputError(f"unexpected {value!r} in polynomial")
                expect_factor = False
            else:
                if kind == "op" and value == "*":
                    expect_factor = True
                    pos += 1
                else:
                    break
        if not saw_factor:
            raise InputError("empty term in polynomial")
        if expect_factor:
            raise InputError("dangling '*' in polynomial")
        return coeff, tuple(exps), pos

    sign = Fraction(1)
    if tokens[0] == ("op", "-"):
        sign = Fraction(-1)
        pos = 1
    elif tokens[0] == ("op", "+"):
        pos = 1
    while True:
        coeff, exps, pos = parse_term(sign, pos)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
        if pos == len(tokens):
            break
        kind, value = tokens[pos]
        if kind == "rat" and value.startswith("-"):
            # A literal like "-3" straight after a term acts as "- 3".
            sign = Fraction(-1)
            tokens[pos] = ("rat", value[1:])
        elif kind == "op" and value in "+-":
            sign = Fraction(1) if value == "+" else Fraction(-1)
            pos += 1
        else:
            raise InputError(f"expected + or - between terms, got {value!r}")
    return MultiPoly(variables, _normalize_terms(terms))


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
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _integer_terms(terms):
    """(negated exponents, int) pairs and the denominator d of the
    polynomial they make over d: d is the lcm of the coefficients'
    denominators."""
    d = lcm(*(c.denominator for _, c in terms))
    return [
        (tuple(map(neg, e)), c.numerator * (d // c.denominator))
        for e, c in terms
    ], d


def _reduce(p: MultiPoly, divisors, with_quotients: bool):
    """Division of p by the divisors in one integer frame.

    The work polynomial is W / d for integer coefficients W and one
    denominator d. Each divisor enters as a primitive integer polynomial
    with a positive leading coefficient l. Reducing a leading term w x^e
    by x^a times that divisor replaces W by (l W - w x^a G) / gcd(w, l),
    with d scaled alike, so every update is an integer operation.
    Exponent vectors are held negated, so that the heap pops the
    lex-largest term first. The remainder's terms leave the frame as
    Fractions when they are popped; the quotients are built only when
    ``with_quotients`` is set.
    """
    divisors = list(divisors)
    for g in divisors:
        p._check_ring(g)
        if g.is_zero:
            raise DimensionMismatch("zero divisor in division")
    frames = [g._divisor_frame for g in divisors]
    work, d = _integer_terms(p.terms)
    heap = [e for e, _ in work]
    heapify(heap)
    work = dict(work)
    quotients = [[] for _ in divisors] if with_quotients else None
    rest = []
    while heap:
        e = heappop(heap)
        w = work.pop(e, 0)
        if not w:
            continue  # cancelled after it was pushed
        for i, (support, lead, l, tail) in enumerate(frames):
            for k, a in support:
                if e[k] > a:
                    break
            else:
                shift = tuple(map(sub, e, lead))
                if with_quotients:
                    quotients[i].append((
                        tuple(map(neg, shift)),
                        Fraction(w, d) / divisors[i].terms[0][1],
                    ))
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
            rest.append((tuple(map(neg, e)), Fraction(w, d)))
    r = MultiPoly(p.variables, tuple(rest))
    if not with_quotients:
        return None, r
    return [MultiPoly(p.variables, tuple(q)) for q in quotients], r


def divide(p: MultiPoly, divisors) -> tuple:
    """Multivariate division: p = sum(q_i * g_i) + r.

    No term of r is divisible by any divisor's leading term; the first
    divisor whose leading term divides is always chosen, so the result is
    deterministic for a fixed divisor list.
    """
    return _reduce(p, divisors, True)


def remainder(p: MultiPoly, divisors) -> MultiPoly:
    """The remainder of :func:`divide`, without building the quotients."""
    return _reduce(p, divisors, False)[1]


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
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    l = _exp_lcm(ef, eg)
    mf = MultiPoly(f.variables, ((_exp_sub(l, ef), Fraction(1) / cf),))
    mg = MultiPoly(g.variables, ((_exp_sub(l, eg), Fraction(1) / cg),))
    return mf * f - mg * g


def _check_guard(guard: int) -> None:
    if not 0 <= guard <= MAX_GUARD:
        raise InputError(f"degree guard must be between 0 and {MAX_GUARD}")


def groebner(ideal: Ideal, guard: int = DEFAULT_GUARD) -> tuple:
    """Reduced lex Groebner basis (monic, interreduced, sorted descending).

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
    _check_guard(guard)
    basis = []   # every element ever added; indices never change
    leads = []   # leading exponent vector of basis[i]
    active = []  # indices of the elements that are not retired
    open_pairs = {}  # (i, j) -> lcm of the leading terms, i < j
    queue = []   # heap of (lcm, i, j); entries gone from open_pairs are stale
    reduced = product_skips = chain_skips = 0

    def update(h):
        nonlocal product_skips, chain_skips
        k = len(basis)
        eh = h.terms[0][0]
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
            coprime = all(a == 0 or b == 0 for a, b in zip(leads[i], eh))
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
        return ()
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
    return tuple(sorted(result, key=lambda f: f.terms[0][0], reverse=True))


def member(p: MultiPoly, ideal: Ideal, guard: int = DEFAULT_GUARD) -> bool:
    return remainder(p, groebner(ideal, guard)).is_zero


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    if a.variables != b.variables:
        raise DimensionMismatch("ideals live in different rings")
    return Ideal.make(a.variables, tuple(
        f * g for f in a.generators for g in b.generators
    ))


def contains(outer: Ideal, inner: Ideal, guard: int = DEFAULT_GUARD) -> bool:
    """True iff inner is a subset of outer (generator-wise membership).

    The outer basis is completed once and divides every inner generator.
    """
    if outer.variables != inner.variables:
        raise DimensionMismatch("ideals live in different rings")
    _check_guard(guard)
    if not inner.generators:
        return True
    basis = groebner(outer, guard)
    return all(remainder(g, basis).is_zero for g in inner.generators)


class PrimeCertificate(Record):
    certified: bool
    leading_vars: tuple
    free_vars: tuple
    reason: str


def triangular_prime_check(
    ideal: Ideal, guard: int = DEFAULT_GUARD
) -> PrimeCertificate:
    """Certify primality when the reduced basis is triangular-linear.

    Every basis element must be a single variable minus a polynomial in
    variables that are not leading variables of any element; the quotient
    is then a polynomial ring over the free variables, hence a domain.
    Anything else yields "not certified", never "not prime".
    """
    basis = groebner(ideal, guard)
    if not basis:
        return PrimeCertificate(False, (), (), "zero ideal not certified")
    leading_positions = []
    for f in basis:
        exps, _ = f.leading_term()
        if sum(exps) != 1:
            return PrimeCertificate(
                False, (), (), f"nonlinear leading term in {poly_to_string(f)}"
            )
        leading_positions.append(exps.index(1))
    if len(set(leading_positions)) != len(leading_positions):
        return PrimeCertificate(False, (), (), "repeated leading variable")
    lead_set = set(leading_positions)
    for f in basis:
        for exps, _ in f.terms[1:]:
            if any(exps[i] for i in lead_set):
                return PrimeCertificate(
                    False, (), (),
                    f"tail of {poly_to_string(f)} touches a leading variable",
                )
    leading_vars = tuple(ideal.variables[i] for i in sorted(lead_set))
    free_vars = tuple(
        v for i, v in enumerate(ideal.variables) if i not in lead_set
    )
    return PrimeCertificate(True, leading_vars, free_vars, "triangular-linear")


def substitute_ideal(ideal: Ideal, assignments: dict) -> Ideal:
    for name in assignments:
        if name not in ideal.variables:
            raise UnknownVariable(f"variable {name!r} not in ring")
    new_vars = tuple(v for v in ideal.variables if v not in assignments)
    gens = tuple(g.substitute(assignments) for g in ideal.generators)
    return Ideal.make(new_vars, gens)


def linear_coefficient_matrix(generators, variables) -> Matrix:
    """Rows of x-coefficients for homogeneous-linear generators."""
    variables = tuple(variables)
    rows = []
    for g in generators:
        if g.variables != variables:
            raise DimensionMismatch("generator lives in the wrong ring")
        row = [Fraction(0)] * len(variables)
        for exps, coeff in g.terms:
            if sum(exps) != 1:
                raise DimensionMismatch(
                    f"generator {poly_to_string(g)} is not homogeneous linear"
                )
            row[exps.index(1)] = coeff
        rows.append(row)
    if not rows:
        return Matrix.zero(0, len(variables))
    return Matrix.from_rows(rows)


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


def ideal_to_json_dict(ideal: Ideal) -> dict:
    return {
        "vars": list(ideal.variables),
        "gens": [poly_to_string(g) for g in ideal.generators],
    }
