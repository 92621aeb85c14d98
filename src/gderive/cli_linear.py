"""Handlers of the linear subcommands: check, derive, centroid, quasider,
abg, intersect and hilbert.

Each handler and loader imports the engine names it uses when it runs,
so a run loads only the engines it needs; none loads the polynomial,
sl2 or ``reproduce`` modules, and only ``hilbert`` loads the Hilbert
module. The engine types named in signatures are never evaluated.
"""

from __future__ import annotations

from .cli_io import basis_dicts, emit, matrix_line, read_json
from .errors import InputError, UnknownName

# ---------------------------------------------------------------------------
# input loading


def load_algebra(spec: str, require_valid: bool = True) -> LieAlgebra:
    """An algebra from a JSON file, or a built-in by name."""
    from .algebra import algebra_from_json_dict, builtin, validate_lie

    try:
        g = builtin(spec)
    except UnknownName:
        g = algebra_from_json_dict(read_json(spec))
    if require_valid and validate_lie(g):
        raise InputError(f"algebra {g.name!r} fails the Jacobi identity")
    return g


def load_matrix(path: str) -> Matrix:
    from .linalg import Matrix

    return Matrix.from_json_dict(read_json(path))


def _parse_vector(text: str) -> tuple:
    from .linalg import parse_rational

    return tuple(parse_rational(piece.strip()) for piece in text.split(","))


# ---------------------------------------------------------------------------
# output rendering


def _vector_list(vec) -> list:
    from .linalg import format_rational

    return [format_rational(a) for a in vec]


def _space_report(space, kind: str) -> dict:
    return {
        "dimension": space.dim,
        "basis": basis_dicts(space.basis),
        "kind": kind,
    }


def _space_lines(report: dict) -> list:
    lines = [f"dimension: {report['dimension']}"]
    for m in report["basis"]:
        lines.append("  " + matrix_line(m))
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    from .algebra import validate_lie

    g = load_algebra(args.algebra, require_valid=False)
    violations = validate_lie(g)
    out = {
        "name": g.name,
        "dim": g.dim,
        "valid": not violations,
        "violations": [
            {
                "triple": [i, j, k],
                "residual": _vector_list(residual),
            }
            for i, j, k, residual in violations
        ],
    }

    def lines(rep):
        if rep["valid"]:
            return [f"{rep['name']}: valid Lie algebra of dimension {rep['dim']}"]
        body = [f"{rep['name']}: {len(rep['violations'])} Jacobi violations"]
        for item in rep["violations"]:
            triple = ", ".join(str(x) for x in item["triple"])
            body.append(f"  ({triple}): [" + ", ".join(item["residual"]) + "]")
        return body

    emit(out, args.format, lines)
    return 0


def cmd_derive(args) -> int:
    from .derivations import derivation_space

    g = load_algebra(args.algebra)
    sigma = load_matrix(args.sigma)
    tau = load_matrix(args.tau) if args.tau else None
    if args.gens and args.kind != "minus":
        raise InputError(f"--gens applies to kind minus only, not kind {args.kind}")
    gens = tuple(load_matrix(path) for path in args.gens or [])
    if args.kind == "minus" and not gens:
        raise InputError("kind minus needs at least one --gens automorphism")
    space = derivation_space(g, sigma, tau, kind=args.kind, gens=gens)
    emit(_space_report(space, args.kind), args.format, _space_lines)
    return 0


def cmd_centroid(args) -> int:
    from .derivations import centroid

    g = load_algebra(args.algebra)
    space = centroid(g)
    emit(_space_report(space, "centroid"), args.format, _space_lines)
    return 0


def cmd_quasider(args) -> int:
    from .derivations import quasiderivation_witness

    g = load_algebra(args.algebra)
    mapping = load_matrix(args.map)
    witness = quasiderivation_witness(g, mapping)
    out = {
        "quasiderivation": witness is not None,
        "witness": witness.to_json_dict() if witness is not None else None,
    }

    def lines(rep):
        if rep["witness"] is None:
            return ["not a quasiderivation"]
        return ["quasiderivation with witness:", "  " + matrix_line(rep["witness"])]

    emit(out, args.format, lines)
    return 0


def cmd_abg(args) -> int:
    from .derivations import abg_space
    from .linalg import format_rational, parse_rational

    g = load_algebra(args.algebra)
    alpha = parse_rational(args.alpha)
    beta = parse_rational(args.beta)
    gamma = parse_rational(args.gamma)
    space = abg_space(g, alpha, beta, gamma)
    out = _space_report(space, f"abg({alpha},{beta},{gamma})")
    out["alpha"], out["beta"], out["gamma"] = (
        format_rational(alpha),
        format_rational(beta),
        format_rational(gamma),
    )
    emit(out, args.format, _space_lines)
    return 0


def cmd_intersect(args) -> int:
    from .derivations import intersection_report

    g = load_algebra(args.algebra)
    sigma = load_matrix(args.sigma)
    tau = load_matrix(args.tau)
    witness = _parse_vector(args.witness) if args.witness is not None else None
    report = intersection_report(g, sigma, tau, witness)
    out = {
        "dimension": report.intersection.dim,
        "basis": [_vector_list(v) for v in report.intersection.basis],
        "witness": _vector_list(witness) if witness else None,
        "witness_in_centralizer": report.witness_in_centralizer,
    }

    def lines(rep):
        body = [f"dimension: {rep['dimension']}"]
        for vec in rep["basis"]:
            body.append("  [" + ", ".join(vec) + "]")
        if rep["witness"] is not None:
            body.append(
                "witness in centralizer: " + str(rep["witness_in_centralizer"])
            )
        return body

    emit(out, args.format, lines)
    return 0


def cmd_hilbert(args) -> int:
    from .hilbert import detect_period, graded_dims, rational_series, render_series

    g = load_algebra(args.algebra)
    sigma = load_matrix(args.sigma)
    gd = graded_dims(
        g, sigma, kind=args.kind, window=args.window, order_bound=args.order_bound
    )
    period = None
    series_text = None
    if gd.finite_order is not None:
        series_text = render_series(rational_series(gd))
    else:
        found = detect_period(gd)
        if found is not None:
            period = {"cutoff": found[0], "period": found[1]}
            series_text = render_series(rational_series(gd))
    out = {
        "kind": args.kind,
        "window": gd.window,
        "finite_order": gd.finite_order,
        "dims": {str(k): v for k, v in sorted(gd.dims.items())},
        "period": period,
        "series": series_text,
    }

    def lines(rep):
        body = [f"kind: {rep['kind']}  window: {rep['window']}"]
        if rep["finite_order"] is not None:
            body.append(f"finite order: {rep['finite_order']}")
        for k in sorted(rep["dims"], key=int):
            body.append(f"  {k:>4}  {rep['dims'][k]}")
        if rep["period"] is not None:
            body.append(
                "period: cutoff {cutoff}, period {period}".format(**rep["period"])
            )
        if rep["series"] is not None:
            body.append("series: " + rep["series"])
        return body

    emit(out, args.format, lines)
    return 0
