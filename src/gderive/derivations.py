"""Twisted-derivation spaces and the maps that the reproduce rows build on them.

The solvers are ``derivation_space`` (Der_{sigma,tau} and its two
interiors), ``centroid``, ``abg_space`` and ``quasiderivation_witness``.
Each assembles an explicit exact linear system in the n^2 entries of the
unknown map and returns one solution, or a ``DerivationSpace``: its kind
and the canonical kernel as a ``Subspace`` of Q^(n^2), read as n x n
maps only when a caller reads ``basis``. All kernel systems are
instances of one scaled identity,

    alpha D([x,y]) = beta [D(x), sigma(y)] + gamma [tau(x), D(y)],

assembled from the sparse structure-constant table by ``_identity_rows``.
Its residual is antisymmetric in (x,y) and vanishes on the diagonal
exactly when beta = gamma and sigma = tau; then the identity is imposed on
basis pairs i < j only, and otherwise on every ordered pair including the
diagonal. Every system is a list of sparse integer rows {column: int},
handed to ``kernel_of_rows`` or ``solve_rows`` without a dense grid.

Beside the solvers: ``is_derivation_pair`` checks the defining identity
apart from the assembler; ``sigma_bracket`` and ``restrict`` bracket
and restrict the solved maps; ``intersection_report`` meets two twisted
spaces. sigma, tau and the generators are plain matrices, and every
public function here that meets them with g checks them with
``require_automorphism`` first; the private ``_solve`` trusts its caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from gderive.algebra import (
    LieAlgebra,
    bracket,
    bracket_images,
    require_acts_on,
    require_automorphism,
)
from gderive.errors import DimensionMismatch, InputError, NotSigmaStable
from gderive.linalg import (
    Matrix,
    Subspace,
    _integer_vector,
    _make,
    integer_columns,
    inverse,
    kernel_of_rows,
    solve_rows,
    square_maps,
    subspace_intersect,
)
from gderive.record import Record


class DerivationSpace(Record):
    """The canonical kernel in the n^2 flattened entries; ``basis`` reads
    it as n x n maps on first use."""

    kind: str
    subspace: Subspace

    @cached_property
    def basis(self) -> tuple:
        return square_maps(self.subspace.rows, math.isqrt(self.subspace.ambient_dim))

    @property
    def dim(self) -> int:
        return self.subspace.dim


def _identity_pairs(n: int, beta, gamma, sigma: Matrix, tau: Matrix):
    """Basis index pairs on which the scaled identity must be imposed."""
    if beta == gamma and sigma == tau:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(n)]


def _identity_rows(g: LieAlgebra, alpha, beta, gamma, sigma: Matrix, tau: Matrix):
    """Sparse integer rows of the scaled identity's residual,
    alpha D[e_i,e_j] - beta [D e_i, sigma e_j] - gamma [tau e_i, D e_j].

    One row per coordinate r of each pair from ``_identity_pairs``: an
    entry that cancels to zero is dropped, and so is a row left empty.
    The unknown D[k][m] sits at flat column m*n + k. All rows
    are scaled by one positive integer that clears the denominators of the
    structure constants, sigma, tau and the three coefficients; it depends
    on the coefficients only through their denominators.
    """
    n = g.dim
    table = g.table
    sig, ds = integer_columns(sigma)
    ta, dt = integer_columns(tau)
    # (a, b, c) is (alpha, beta, gamma) times den.
    (a, b, c), den = _integer_vector((alpha, beta, gamma))
    dst = math.lcm(ds, dt)
    # The common scale is den * dst times the table's own scale.
    a *= dst
    # -beta [D e_i, sigma e_j] = sum_m D[m][i] * left[j][m];
    # -gamma [tau e_i, D e_j] = sum_m D[m][j] * right[i][m].
    left = bracket_images(table, sig, -b * (dst // ds))
    right = bracket_images(table, ta, c * (dst // dt))
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
                    x += row.get(k, 0)
                    if x:
                        row[k] = x
                    elif k in row:
                        del row[k]
        rows.extend(row for row in pair_rows if row)
    return rows


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


def is_derivation_pair(
    g: LieAlgebra, d: Matrix, sigma: Matrix, tau: Matrix
) -> bool:
    """Check the defining identity of Der_{sigma,tau} on basis pairs.

    D[e_i,e_j] = [D e_i, sigma e_j] + [tau e_i, D e_j] is evaluated on
    the integer columns of D, sigma and tau and the sparse structure
    table, independently of the assembler ``_identity_rows``. With
    column scales dd, ds, dt and table scale ts, both sides are compared
    times dd * ds * dt * ts. sigma and tau must be automorphisms of g.
    """
    require_acts_on(g, d)
    require_automorphism(g, sigma)
    require_automorphism(g, tau)
    table = g.table
    columns, dd = integer_columns(d)
    sig, ds = integer_columns(sigma)
    ta, dt = integer_columns(tau)
    # left[j][p] is [e_p, sigma e_j] and right[i][p] is [e_p, tau e_i].
    left = bracket_images(table, sig, 1)
    right = bracket_images(table, ta, 1)
    for i, j in _identity_pairs(g.dim, 1, 1, sigma, tau):
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
    sigma: Matrix,
    tau: Matrix = None,
    kind: str = "plain",
    gens: tuple = (),
) -> DerivationSpace:
    """Solve for Der_{sigma,tau}(g) = {D : D[x,y] = [D x, sigma y] +
    [tau x, D y]}, or for one of its interiors; tau defaults to the
    identity.

    - kind "plain": the whole space Der_{sigma,tau}(g).
    - kind "plus": the plus interior, the D in Der_{sigma,tau}(g) with
      D sigma = sigma D.
    - kind "minus": the minus interior relative to the automorphisms in
      gens, the D in Der_{sigma,tau}(g) with D rho = rho D for every rho
      in gens.

    Any other kind is an InputError, raised before the system is built.
    sigma, a given tau and each of gens must be automorphisms of g; the
    identity, tau's default, is one of every g.
    """
    if kind not in ("plain", "plus", "minus"):
        raise InputError(f"unknown kind {kind!r}")
    require_automorphism(g, sigma)
    if tau is None:
        tau = Matrix.identity(g.dim)
    else:
        require_automorphism(g, tau)
    if kind == "minus":
        for other in gens:
            require_automorphism(g, other)
    return _solve(g, sigma, tau, kind, gens)


def _solve(
    g: LieAlgebra, sigma: Matrix, tau: Matrix, kind: str, gens: tuple
) -> DerivationSpace:
    """``derivation_space`` for a known kind and automorphisms of g that
    the caller has checked: assemble the rows and reduce them."""
    n = g.dim
    rows = _identity_rows(g, 1, 1, 1, sigma, tau)
    if kind == "plus":
        rows.extend(_commutation_rows(n, sigma))
    elif kind == "minus":
        for other in gens:
            rows.extend(_commutation_rows(n, other))
    return DerivationSpace(kind, kernel_of_rows(rows, n * n))


def centroid(g: LieAlgebra) -> DerivationSpace:
    """Maps commuting with all bracket multiplications.

    [D(x), y] = D([x,y]) over all ordered pairs (including the diagonal)
    covers both defining identities, since [x, D(y)] = D([x,y]) at (i,j)
    is the first identity at (j,i) up to sign.
    """
    ident = Matrix.identity(g.dim)
    rows = _identity_rows(g, 1, 1, 0, ident, ident)
    return DerivationSpace("centroid", kernel_of_rows(rows, g.dim ** 2))


def sigma_bracket(d: Matrix, t: Matrix, sigma_inv: Matrix) -> Matrix:
    """sigma [sigma^{-1} D, sigma^{-1} T], the transported commutator,
    computed as D sigma^{-1} T - T sigma^{-1} D from the caller's inverse."""
    return d @ sigma_inv @ t - t @ sigma_inv @ d


def quasiderivation_witness(g: LieAlgebra, d: Matrix):
    """A map T with [D(x),y] + [x,D(y)] = T([x,y]), or None.

    Both sides are antisymmetric bilinear, so basis pairs i < j suffice.
    Row (i, j, r) holds sum_m c_ij^m T[r][m], with the r-th coordinate of
    [D e_i, e_j] + [e_i, D e_j] in column n^2 as its right-hand side.
    """
    require_acts_on(g, d)
    n = g.dim
    table = g.table
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
    return None if solution is None else square_maps(solution, n)[0]


def abg_space(g: LieAlgebra, alpha, beta, gamma) -> DerivationSpace:
    """Solutions of alpha D[x,y] = beta [D(x),y] + gamma [x,D(y)].

    The two sides have mismatched symmetry when beta != gamma, so the
    system then runs over all ordered pairs including the diagonal.
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    ident = Matrix.identity(g.dim)
    rows = _identity_rows(g, alpha, beta, gamma, ident, ident)
    kind = f"abg({alpha},{beta},{gamma})"
    return DerivationSpace(kind, kernel_of_rows(rows, g.dim ** 2))


def restrict(d: Matrix, h: Subspace) -> Matrix:
    """The induced matrix on h, in h-basis coordinates. Each basis row of
    h is 1 at its own pivot and 0 at the others, so the coordinates of an
    image are its entries at the pivot columns."""
    if d.cols != h.ambient_dim:
        raise DimensionMismatch("matrix does not act on the ambient space")
    images = h.rows @ d.transpose()
    if not all(map(h.contains, images.num)):
        raise NotSigmaStable("vector does not lie in the subspace")
    return _make(h.dim, h.dim, tuple(
        tuple(image[p] for image in images.num) for p in h.pivots
    ), images.den)


class IntersectionReport(Record):
    dimension: int
    intersection: Subspace
    witness: tuple
    witness_in_centralizer: bool


def intersection_report(
    g: LieAlgebra, sigma: Matrix, tau: Matrix, witness=None
) -> IntersectionReport:
    """Dimension of Der_sigma meet Der_tau, plus the centralizer witness.
    Each ``derivation_space`` call checks its automorphism."""
    first = derivation_space(g, sigma)
    second = derivation_space(g, tau)
    inter = subspace_intersect(first.subspace, second.subspace)
    witness_ok = None
    if witness is not None:
        witness = tuple(Fraction(a) if isinstance(a, int) else a for a in witness)
        moved = inverse(sigma).apply(tau.apply(witness))
        witness_ok = all(a == 0 for a in bracket(g, witness, moved))
    return IntersectionReport(inter.dim, inter, witness, witness_ok)
