"""Independent output checks: none of this imports gderive.

A job's stdout is checked once per distinct byte string. ``check_output``
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _bracket(table: dict, u: dict, v: dict) -> dict:
    """[u, v] for sparse vectors {index: coeff} under table {(a, b): {k: c}},
    a < b, extended by antisymmetry."""
    out = {}
    for a, ua in u.items():
        for b, vb in v.items():
            if a == b:
                continue
            vec = table.get((a, b)) if a < b else table.get((b, a))
            if not vec:
                continue
            coeff = ua * vb if a < b else -ua * vb
            for k, c in vec.items():
                out[k] = out.get(k, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


def _columns(entries) -> list:
    """Sparse columns of a square grid: column c is the image of e_c."""
    n = len(entries)
    cols = [{} for _ in range(n)]
    for r, row in enumerate(entries):
        for c, a in enumerate(row):
            a = Fraction(a)
            if a:
                cols[c][r] = a
    return cols


def _apply(cols: list, vec: dict) -> dict:
    out = {}
    for k, a in vec.items():
        for r, b in cols[k].items():
            out[r] = out.get(r, 0) + a * b
    return {r: c for r, c in out.items() if c}


def _combine(*terms) -> dict:
    out = {}
    for scale, vec in terms:
        for k, a in vec.items():
            out[k] = out.get(k, 0) + scale * a
    return {k: c for k, c in out.items() if c}


def _rank(rows: list) -> int:
    """Rank of a list of equal-length Fraction rows by plain elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / p[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def check_space(report: dict, spec: dict):
    """Every basis matrix satisfies the job's identity; the basis is
    independent; untwisted derivation dimensions match the closed forms."""
    n = spec["dim"]
    table = {(a, b): {k: Fraction(c) for k, c in vec}
             for a, b, vec in spec["structure"]}
    basis = report.get("basis")
    if not isinstance(basis, list) or report.get("dimension") != len(basis):
        return "dimension does not match the basis length"
    units = [{i: Fraction(1)} for i in range(n)]
    sigma = _columns(spec["sigma"]) if spec["sigma"] is not None else None
    if spec["kind"] == "abg":
        alpha, beta, gamma = (Fraction(x) for x in spec["abg"])
    for index, mat in enumerate(basis):
        entries = mat["entries"]
        if mat["rows"] != n or mat["cols"] != n or len(entries) != n:
            return f"basis matrix {index} is not {n}x{n}"
        d = _columns(entries)
        for i in range(n):
            for j in range(n):
                lhs = _apply(d, _bracket(table, units[i], units[j]))
                if spec["kind"] in ("plain", "plus"):
                    rhs = _combine(
                        (1, _bracket(table, d[i], sigma[j])),
                        (1, _bracket(table, units[i], d[j])),
                    )
                elif spec["kind"] == "centroid":
                    rhs = _bracket(table, d[i], units[j])
                else:
                    lhs = _combine((alpha, lhs))
                    rhs = _combine(
                        (beta, _bracket(table, d[i], units[j])),
                        (gamma, _bracket(table, units[i], d[j])),
                    )
                if lhs != rhs:
                    return f"basis matrix {index} fails the identity at ({i + 1}, {j + 1})"
        if spec["kind"] == "plus":
            for j in range(n):
                if _apply(d, sigma[j]) != _apply(sigma, d[j]):
                    return f"basis matrix {index} does not commute with sigma"
    flat = [
        [Fraction(mat["entries"][r][c]) for c in range(n) for r in range(n)]
        for mat in basis
    ]
    if flat and _rank(flat) != len(flat):
        return "basis matrices are linearly dependent"
    if spec["expected_dim"] is not None and len(basis) != spec["expected_dim"]:
        return f"dimension {len(basis)}, expected {spec['expected_dim']}"
    return None


def _sympy_polys(sp, texts, symbols):
    names = {str(s): s for s in symbols}
    return {
        sp.Poly(sp.sympify(t.replace("^", "**"), locals=names), *symbols,
                domain="QQ").monic()
        for t in texts
    }


def check_groebner(report: dict, spec: dict):
    """The reduced basis equals the monic form of sympy's lex basis."""
    import sympy as sp

    ideal = spec["ideal"]
    symbols = sp.symbols(ideal["vars"])
    if report.get("vars") != ideal["vars"]:
        return "variables differ from the input"
    gens = list(_sympy_polys(sp, ideal["gens"], symbols))
    expected = sp.groebner(gens, *symbols, order="lex", domain="QQ")
    want = {sp.Poly(g, *symbols, domain="QQ").monic() for g in expected.exprs}
    if _sympy_polys(sp, report["basis"], symbols) != want:
        return "basis differs from sympy's reduced lex basis"
    return None


_X_VARS = [f"x{j}{k}" for j in (1, 2, 3) for k in (1, 2, 3)]
# The sl2 basis of the sl2 subcommand: [e1,e2] = -e1, [e1,e3] = 2e2, [e2,e3] = -e3.
_SL2 = {(0, 1): {0: -1}, (0, 2): {1: 2}, (1, 2): {2: -1}}


def _sl2_family(sp, tag):
    """Ring and symbolic automorphism of one sl2 family."""
    if tag in ("b", "c"):
        y = sp.Symbol("y")
        if tag == "b":
            sigma = sp.Matrix([[1, y, -y**2], [0, 1, -2 * y], [0, 0, 1]])
        else:
            sigma = sp.Matrix([[1, 0, 0], [-2 * y, 1, 0], [-y**2, y, 1]])
        return _X_VARS + ["y"], sigma
    b, c = sp.symbols("b c")
    gen = sp.Matrix([[2 * b * c, b, 0], [-2 * b * c**2, 0, -2 * b],
                     [0, b * c**2, -2 * b * c]])
    return _X_VARS + ["b", "c"], sp.eye(3) + gen + gen * gen / 2


def check_sl2(report: dict, spec: dict):
    """The printed ideal basis equals sympy's reduced lex basis of the
    residual ideal of D[x,y] = [Dx, sigma y] + [x, Dy], built here."""
    import sympy as sp

    ring, sigma = _sl2_family(sp, spec["family"])
    symbols = sp.symbols(ring)
    names = dict(zip(ring, symbols))
    # Entry (row k, column j) of D is the unknown x_{(j+1)(k+1)}.
    d = sp.Matrix(3, 3, lambda k, j: names[f"x{j + 1}{k + 1}"])

    def bracket(u, v):
        out = [0, 0, 0]
        for (a, b), vec in _SL2.items():
            coeff = u[a] * v[b] - u[b] * v[a]
            for k, c in vec.items():
                out[k] += coeff * c
        return out

    units = [[int(i == k) for k in range(3)] for i in range(3)]
    residuals = []
    for i in range(3):
        for j in range(3):
            image = d * sp.Matrix(bracket(units[i], units[j]))
            left = bracket(list(d[:, i]), list(sigma[:, j]))
            right = bracket(units[i], list(d[:, j]))
            for r in range(3):
                e = sp.expand(image[r] - left[r] - right[r])
                if e != 0:
                    residuals.append(e)
    expected = sp.groebner(residuals, *symbols, order="lex", domain="QQ")
    want = {sp.Poly(g, *symbols, domain="QQ").monic() for g in expected.exprs}
    if report.get("family") != spec["family"]:
        return "wrong family in the report"
    if _sympy_polys(sp, report["ideal_generators"], symbols) != want:
        return "ideal basis differs from sympy's reduced lex basis"
    if not (report.get("containments") or {}).get("product_contained"):
        return "component product is not reported contained"
    return None


def check_reproduce(report: dict, spec: dict):
    rows = report.get("rows") or []
    if len(rows) != spec["rows"]:
        return f"{len(rows)} rows, expected {spec['rows']}"
    if not report.get("all_ok") or not all(r.get("ok") for r in rows):
        return "not every row passes"
    return None


_CHECKS = {
    "space": check_space,
    "groebner": check_groebner,
    "sl2": check_sl2,
    "reproduce": check_reproduce,
}


def check_output(stdout: bytes, spec: dict):
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(report, dict):
        return "stdout is not a JSON object"
    try:
        return _CHECKS[spec["type"]](report, spec)
    except Exception as exc:  # a malformed output fails its job, not the run
        return f"malformed report: {type(exc).__name__}: {exc}"
