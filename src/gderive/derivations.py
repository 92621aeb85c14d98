"""Twisted-derivation spaces and the operator constructions built on them.

Every solver assembles an explicit exact linear system in the n^2 entries
of the unknown map and returns the canonical kernel basis. All systems are
instances of one scaled identity,

    alpha D([x,y]) = beta [D(x), sigma(y)] + gamma [tau(x), D(y)],

assembled from the sparse structure-constant table by ``_identity_rows``.
Its residual is antisymmetric in (x,y) and vanishes on the diagonal
exactly when beta = gamma and sigma = tau; then the identity is imposed on
basis pairs i < j only, and otherwise on every ordered pair including the
diagonal. Every system is a list of sparse integer rows {column: int},
handed to ``kernel_of_rows`` or ``solve_rows`` without a dense grid.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gderive.algebra import (
    Automorphism,
    LieAlgebra,
    ad,
    bracket,
    bracket_images,
    center,
    derived_subalgebra,
    is_abelian,
    require_validated,
    structure_table,
)
from gderive.errors import (
    AbelianAlgebra,
    AdNotInvertibleOnH,
    DimensionMismatch,
    NotSigmaStable,
    SingularMatrix,
)
from gderive.linalg import (
    Matrix,
    Subspace,
    integer_columns,
    inverse,
    kernel_basis,
    kernel_of_rows,
    matrix_order,
    solve_rows,
    subspace_intersect,
    vec_to_matrix,
)
from gderive.record import Record


class DerivationSpace(Record):
    algebra: LieAlgebra
    sigma: Automorphism
    tau: Automorphism
    kind: str
    basis: tuple
    subspace: Subspace

    @property
    def dim(self) -> int:
        return len(self.basis)


def _basis_vectors(n: int):
    return Matrix.identity(n).entries


def _check_shape(g: LieAlgebra, m: Matrix):
    if m.rows != g.dim or m.cols != g.dim:
        raise DimensionMismatch("matrix does not act on the algebra")


def _identity_pairs(n: int, beta, gamma, sigma: Matrix, tau: Matrix):
    """Basis index pairs on which the scaled identity must be imposed."""
    if beta == gamma and sigma == tau:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(n)]


def _identity_rows(g: LieAlgebra, alpha, beta, gamma, sigma: Matrix, tau: Matrix):
    """Sparse integer rows of the scaled identity's residual,
    alpha D[e_i,e_j] - beta [D e_i, sigma e_j] - gamma [tau e_i, D e_j].

    One row per coordinate r of each pair from ``_identity_pairs``, empty
    rows left out; the unknown D[k][m] sits at flat column m*n + k. All rows
    are scaled by one positive integer that clears the denominators of the
    structure constants, sigma, tau and the three coefficients; it depends
    on the coefficients only through their denominators.
    """
    n = g.dim
    table, _ = structure_table(g)
    sig, ds = integer_columns(sigma)
    ta, dt = integer_columns(tau)
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    den = math.lcm(alpha.denominator, beta.denominator, gamma.denominator)
    dst = math.lcm(ds, dt)
    # The common scale is den * dst times the table's own scale.
    a = int(alpha * den) * dst
    # -beta [D e_i, sigma e_j] = sum_m D[m][i] * left[j][m];
    # -gamma [tau e_i, D e_j] = sum_m D[m][j] * right[i][m].
    left = bracket_images(table, sig, -int(beta * den) * (dst // ds))
    right = bracket_images(table, ta, int(gamma * den) * (dst // dt))
    rows = []
    for i, j in _identity_pairs(n, beta, gamma, sigma, tau):
        pair_rows = [{} for _ in range(n)]
        if a:
            for m, x in table[i].get(j, {}).items():
                x *= a
                for r in range(n):
                    pair_rows[r][m * n + r] = x
        for offset, images in ((i * n, left[j]), (j * n, right[i])):
            for m, image in enumerate(images):
                k = offset + m
                for r, x in image.items():
                    row = pair_rows[r]
                    row[k] = row.get(k, 0) + x
        rows.extend(row for row in pair_rows if row)
    return rows


def _integer_row(entries: dict) -> dict:
    """Sparse integer row of the nonzero rational {column: value} entries,
    scaled by the lcm of their denominators."""
    scale = math.lcm(*(a.denominator for a in entries.values()))
    return {
        c: a.numerator * (scale // a.denominator)
        for c, a in entries.items() if a
    }


def _commutation_rows(n: int, sigma: Matrix):
    """Sparse integer rows of D*sigma - sigma*D = 0 in the flattened
    unknowns, read off sigma's integer grid; empty rows left out."""
    s = sigma.num
    rows = []
    for r in range(n):
        for c in range(n):
            row = {}
            for m in range(n):
                row[m * n + r] = row.get(m * n + r, 0) + s[m][c]
                row[c * n + m] = row.get(c * n + m, 0) - s[r][m]
            row = {k: a for k, a in row.items() if a}
            if row:
                rows.append(row)
    return rows


def _solve_rows(n: int, rows) -> tuple:
    space = kernel_of_rows(rows, n * n)
    matrices = tuple(vec_to_matrix(v, n, n) for v in space.basis)
    return matrices, space


def is_derivation_pair(
    g: LieAlgebra, d: Matrix, sigma: Automorphism, tau: Automorphism
) -> bool:
    """Check the defining identity of Der_{sigma,tau} on basis pairs.

    D[e_i,e_j] = [D e_i, sigma e_j] + [tau e_i, D e_j] is evaluated on
    the integer columns of D, sigma and tau and the sparse structure
    table, independently of the assembler ``_identity_rows``. With
    column scales dd, ds, dt and table scale ts, both sides are compared
    times dd * ds * dt * ts.
    """
    require_validated(sigma)
    require_validated(tau)
    _check_shape(g, d)
    table, _ = structure_table(g)
    columns, dd = integer_columns(d)
    sig, ds = integer_columns(sigma.matrix)
    ta, dt = integer_columns(tau.matrix)
    # left[j][p] is [e_p, sigma e_j] and right[i][p] is [e_p, tau e_i].
    left = bracket_images(table, sig, 1)
    right = bracket_images(table, ta, 1)
    for i, j in _identity_pairs(g.dim, 1, 1, sigma.matrix, tau.matrix):
        residual = {}
        for m, x in table[i].get(j, {}).items():
            x *= ds * dt
            for r, y in columns[m].items():
                residual[r] = residual.get(r, 0) + x * y
        # [D e_i, sigma e_j] = sum_p D[p][i] [e_p, sigma e_j], and
        # [tau e_i, D e_j] = -sum_p D[p][j] [e_p, tau e_i].
        for column, images, scale in (
            (columns[i], left[j], -dt), (columns[j], right[i], ds)
        ):
            for p, x in column.items():
                x *= scale
                for r, y in images[p].items():
                    residual[r] = residual.get(r, 0) + x * y
        if any(residual.values()):
            return False
    return True


def derivation_space(
    g: LieAlgebra,
    sigma: Automorphism,
    tau: Automorphism = None,
    kind: str = "plain",
    gens: tuple = (),
) -> DerivationSpace:
    """Solve for Der_{sigma,tau}(g), optionally with interior constraints.

    kind "plus" adds commutation with sigma; kind "minus" adds commutation
    with every automorphism in gens.
    """
    require_validated(sigma)
    if tau is None:
        tau = Automorphism.identity(g)
    require_validated(tau)
    _check_shape(g, sigma.matrix)
    _check_shape(g, tau.matrix)
    n = g.dim
    rows = _identity_rows(g, 1, 1, 1, sigma.matrix, tau.matrix)
    if kind == "plus":
        rows.extend(_commutation_rows(n, sigma.matrix))
    elif kind == "minus":
        for other in gens:
            require_validated(other)
            _check_shape(g, other.matrix)
            rows.extend(_commutation_rows(n, other.matrix))
    elif kind != "plain":
        raise DimensionMismatch(f"unknown kind {kind!r}")
    matrices, space = _solve_rows(n, rows)
    return DerivationSpace(g, sigma, tau, kind, matrices, space)


def plus_interior(g: LieAlgebra, sigma: Automorphism) -> DerivationSpace:
    return derivation_space(g, sigma, kind="plus")


def minus_interior(
    g: LieAlgebra, sigma: Automorphism, gens
) -> DerivationSpace:
    return derivation_space(g, sigma, kind="minus", gens=tuple(gens))


def centroid(g: LieAlgebra) -> DerivationSpace:
    """Maps commuting with all bracket multiplications.

    [D(x), y] = D([x,y]) over all ordered pairs (including the diagonal)
    covers both defining identities, since [x, D(y)] = D([x,y]) at (i,j)
    is the first identity at (j,i) up to sign.
    """
    ident = Automorphism.identity(g)
    rows = _identity_rows(g, 1, 1, 0, ident.matrix, ident.matrix)
    matrices, space = _solve_rows(g.dim, rows)
    return DerivationSpace(g, ident, ident, "centroid", matrices, space)


def twist(d: Matrix, tau: Automorphism) -> Matrix:
    """Compose with the inverse of tau: D -> tau^{-1} D."""
    return tau.inverse_matrix @ d


def sigma_bracket(d: Matrix, t: Matrix, sigma: Automorphism) -> Matrix:
    """sigma [sigma^{-1} D, sigma^{-1} T], the transported commutator."""
    inv = sigma.inverse_matrix
    a, b = inv @ d, inv @ t
    return sigma.matrix @ (a @ b - b @ a)


def left_symmetric_product(
    g: LieAlgebra, d: Matrix, sigma: Automorphism
):
    """Product table x_i * x_j = D^{-1}([sigma e_i, D e_j]).

    Requires invertible D; together with D in Der_{sigma,sigma} this makes
    the table left-symmetric with commutator bracket equal to the original.
    """
    require_validated(sigma)
    _check_shape(g, d)
    try:
        d_inv = inverse(d)
    except SingularMatrix:
        raise SingularMatrix("the twisted derivation is not invertible")
    basis = _basis_vectors(g.dim)
    table = []
    for i in range(g.dim):
        row = []
        sig_i = sigma.matrix.apply(basis[i])
        for j in range(g.dim):
            row.append(d_inv.apply(bracket(g, sig_i, d.apply(basis[j]))))
        table.append(tuple(row))
    return tuple(table)


def phi_x_sigma(
    g: LieAlgebra, d: Matrix, sigma: Automorphism, x
) -> Matrix:
    """The map D -> ad(sigma^{-1} D(x)) underlying the rank bound."""
    return ad(g, sigma.inverse_matrix.apply(d.apply(x)))


def _functionals_vanishing_on(space: Subspace) -> tuple:
    """Rows f with f . v = 0 for every v in the subspace."""
    if not space.basis:
        return tuple(Matrix.identity(space.ambient_dim).entries)
    return kernel_basis(Matrix.from_rows(space.basis)).basis


def _image_constraint_rows(n: int, x, target: Subspace):
    """Sparse integer rows forcing D(x) into the target subspace, empty
    rows left out."""
    rows = []
    for f in _functionals_vanishing_on(target):
        entries = {}
        for r in range(n):
            if f[r]:
                for m in range(n):
                    if x[m]:
                        entries[m * n + r] = f[r] * x[m]
        rows.append(_integer_row(entries))
    return [row for row in rows if row]


def kernel_phi(g: LieAlgebra, sigma: Automorphism, x) -> DerivationSpace:
    """{D in Der_sigma : D(x) lies in the center}."""
    require_validated(sigma)
    tau = Automorphism.identity(g)
    n = g.dim
    rows = _identity_rows(g, 1, 1, 1, sigma.matrix, tau.matrix)
    x = tuple(Fraction(a) if isinstance(a, int) else a for a in x)
    rows.extend(_image_constraint_rows(n, x, center(g)))
    matrices, space = _solve_rows(n, rows)
    return DerivationSpace(g, sigma, tau, "kernel_phi", matrices, space)


def quasiderivation_witness(g: LieAlgebra, d: Matrix):
    """A map T with [D(x),y] + [x,D(y)] = T([x,y]), or None.

    Both sides are antisymmetric bilinear, so basis pairs i < j suffice.
    Row (i, j, r) holds sum_m c_ij^m T[r][m], with the r-th coordinate of
    [D e_i, e_j] + [e_i, D e_j] in column n^2 as its right-hand side.
    """
    _check_shape(g, d)
    n = g.dim
    table, _ = structure_table(g)
    columns, scale = integer_columns(d)
    # images[j][p] is [e_p, D e_j]; both sides carry both scales.
    images = bracket_images(table, columns, 1)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = table[i].get(j, {})
            for r in range(n):
                row = {m * n + r: scale * x for m, x in pair.items()}
                row[n * n] = images[j][i].get(r, 0) - images[i][j].get(r, 0)
                rows.append(row)
    solution = solve_rows(rows, n * n)
    return None if solution is None else vec_to_matrix(solution, n, n)


def abg_space(g: LieAlgebra, alpha, beta, gamma) -> DerivationSpace:
    """Solutions of alpha D[x,y] = beta [D(x),y] + gamma [x,D(y)].

    The two sides have mismatched symmetry when beta != gamma, so the
    system then runs over all ordered pairs including the diagonal.
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    ident = Automorphism.identity(g)
    rows = _identity_rows(g, alpha, beta, gamma, ident.matrix, ident.matrix)
    matrices, space = _solve_rows(g.dim, rows)
    kind = f"abg({alpha},{beta},{gamma})"
    return DerivationSpace(g, ident, ident, kind, matrices, space)


def stabilized_space(
    g: LieAlgebra, sigma: Automorphism, h: Subspace
) -> DerivationSpace:
    """{D in Der_sigma : D(h) inside h} for a sigma-stable subspace h."""
    require_validated(sigma)
    for v in h.basis:
        if not h.contains(sigma.matrix.apply(v)):
            raise NotSigmaStable("sigma does not preserve the subspace")
    tau = Automorphism.identity(g)
    n = g.dim
    rows = _identity_rows(g, 1, 1, 1, sigma.matrix, tau.matrix)
    for v in h.basis:
        rows.extend(_image_constraint_rows(n, v, h))
    matrices, space = _solve_rows(n, rows)
    return DerivationSpace(g, sigma, tau, "stabilized", matrices, space)


def _coords_in(h: Subspace, vector):
    pivots = [next(i for i, a in enumerate(row) if a != 0) for row in h.basis]
    coords = tuple(vector[p] for p in pivots)
    rebuilt = [Fraction(0)] * h.ambient_dim
    for c, row in zip(coords, h.basis):
        for i, a in enumerate(row):
            rebuilt[i] += c * a
    if tuple(rebuilt) != tuple(vector):
        raise NotSigmaStable("vector does not lie in the subspace")
    return coords


def restrict(d: Matrix, h: Subspace) -> Matrix:
    """The induced matrix on h, in h-basis coordinates."""
    if d.cols != h.ambient_dim:
        raise DimensionMismatch("matrix does not act on the ambient space")
    columns = [_coords_in(h, d.apply(v)) for v in h.basis]
    return Matrix(h.dim, h.dim, tuple(
        tuple(col[r] for col in columns) for r in range(h.dim)
    ))


def tilde_map(
    g: LieAlgebra, d: Matrix, sigma: Automorphism, x0, h: Subspace
) -> Matrix:
    """The induced map v -> 2 D(v) + [D(y), sigma x0] + [sigma y, D(x0)].

    Here y solves [x0, y] = v on h; requires ad(x0) to restrict to an
    invertible map of h.
    """
    require_validated(sigma)
    adx = ad(g, x0)
    try:
        restricted = restrict(adx, h)
        restricted_inv = inverse(restricted)
    except (NotSigmaStable, SingularMatrix) as exc:
        raise AdNotInvertibleOnH(
            "ad(x0) does not restrict invertibly to the subspace"
        ) from exc
    x0 = tuple(Fraction(a) if isinstance(a, int) else a for a in x0)
    sig_x0 = sigma.matrix.apply(x0)
    columns = []
    for v in h.basis:
        y_coords = restricted_inv.apply(_coords_in(h, v))
        y = [Fraction(0)] * h.ambient_dim
        for c, row in zip(y_coords, h.basis):
            for i, a in enumerate(row):
                y[i] += c * a
        image = tuple(
            2 * a + b + c
            for a, b, c in zip(
                d.apply(v),
                bracket(g, d.apply(y), sig_x0),
                bracket(g, sigma.matrix.apply(y), d.apply(x0)),
            )
        )
        columns.append(_coords_in(h, image))
    return Matrix(h.dim, h.dim, tuple(
        tuple(col[r] for col in columns) for r in range(h.dim)
    ))


def commutator_with_sigma(d: Matrix, sigma: Automorphism) -> Matrix:
    return d @ sigma.matrix - sigma.matrix @ d


def derived_in_kernel(g: LieAlgebra, d: Matrix, sigma: Automorphism) -> bool:
    comm = commutator_with_sigma(d, sigma)
    return all(
        all(a == 0 for a in comm.apply(v))
        for v in derived_subalgebra(g).basis
    )


class IntersectionReport(Record):
    dimension: int
    intersection: Subspace
    witness: tuple = None
    witness_in_centralizer: bool = None


def intersection_report(
    g: LieAlgebra, sigma: Automorphism, tau: Automorphism, witness=None
) -> IntersectionReport:
    """Dimension of Der_sigma meet Der_tau, plus the centralizer witness."""
    require_validated(sigma)
    require_validated(tau)
    first = derivation_space(g, sigma)
    second = derivation_space(g, tau)
    inter = subspace_intersect(first.subspace, second.subspace)
    witness_ok = None
    if witness is not None:
        witness = tuple(Fraction(a) if isinstance(a, int) else a for a in witness)
        moved = sigma.inverse_matrix.apply(tau.matrix.apply(witness))
        witness_ok = all(a == 0 for a in bracket(g, witness, moved))
    return IntersectionReport(inter.dim, inter, witness, witness_ok)


def _char_poly(m: Matrix):
    """Monic characteristic polynomial coefficients [1, c_{n-1}, ..., c_0]."""
    n = m.rows
    coeffs = [Fraction(1)]
    work = Matrix.zero(n, n)
    for k in range(1, n + 1):
        work = m @ work + Matrix.identity(n).scale(coeffs[-1])
        coeffs.append(-Fraction(1, k) * (m @ work).trace())
    return coeffs


def _rational_roots(coeffs):
    """All rational roots of the polynomial with the given coefficients."""
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return []
    roots = set()
    # Strip trailing zeros: they contribute the root 0.
    tail = list(ints)
    while tail[-1] == 0:
        roots.add(Fraction(0))
        tail.pop()
        if len(tail) == 1:
            break
    lead, const = tail[0], tail[-1]
    if const != 0:
        for p in _divisors(abs(const)):
            for q in _divisors(abs(lead)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    value = Fraction(0)
                    for c in tail:
                        value = value * cand + c
                    if value == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(value: int):
    out = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            out.append(d)
            if d != value // d:
                out.append(value // d)
        d += 1
    return sorted(out)


class PeriodicReport(Record):
    nonabelian: bool
    in_der_sigma: bool
    order: int
    rational_fixed_eigenvector: bool
    verdict: str
    caveat: str = "eigenvector search is over rational eigenvalues only"


def periodic_check(
    g: LieAlgebra, d: Matrix, sigma: Automorphism, max_m: int
) -> PeriodicReport:
    """Verify the divisibility-by-6 conclusion for periodic twisted derivations."""
    if is_abelian(g):
        raise AbelianAlgebra("the periodicity statement needs a nonabelian algebra")
    require_validated(sigma)
    _check_shape(g, d)
    in_space = is_derivation_pair(
        g, d, sigma, Automorphism.identity(g)
    )
    order = matrix_order(d, max_m)
    if order is None:
        if d.power(g.dim).is_zero():
            return PeriodicReport(True, in_space, None, False, "hypothesis not met")
        return PeriodicReport(
            True, in_space, None, False, "order not found within bound"
        )
    fixed = kernel_basis(sigma.matrix - Matrix.identity(g.dim))
    found = False
    for root in _rational_roots(_char_poly(d)):
        eigenspace = kernel_basis(d - Matrix.identity(g.dim).scale(root))
        if subspace_intersect(eigenspace, fixed).dim > 0:
            found = True
            break
    if not (in_space and found):
        return PeriodicReport(True, in_space, order, found, "hypothesis not met")
    verdict = (
        "divisible-by-6 confirmed" if order % 6 == 0
        else "divisibility violated"
    )
    return PeriodicReport(True, in_space, order, found, verdict)
