"""Command line interface.

Every subcommand reads exact-rational inputs, runs one of the engines,
and prints a deterministic report: JSON with sorted keys by default, or
a text rendering with matrices in bracketed rows.  Identical inputs
always produce byte-identical output.

Exit codes: 0 success, 2 invalid input, 1 internal guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DimensionMismatch, GDeriveError, InputError, UnknownName
from .limits import (
    DEFAULT_GUARD,
    DEFAULT_ORDER_BOUND,
    DEFAULT_WINDOW,
    MAX_GUARD,
    MAX_ORDER_BOUND,
    MAX_WINDOW,
)

# Each handler and loader imports the engine names it uses when it runs,
# so building the parser (and --help) loads no engine, and a subcommand
# loads only the engines it needs. The engine types named in signatures
# are never evaluated.


# ---------------------------------------------------------------------------
# input loading


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is an error, where
    json.load would keep the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"key {key!r} appears twice in one JSON object")
        out[key] = value
    return out


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        # JSONDecodeError, bytes that are not UTF-8, or an integer literal
        # past Python's int/str digit limit.
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests arrays or objects too deeply") from exc


def load_algebra(spec: str, require_valid: bool = True) -> LieAlgebra:
    """An algebra from a JSON file, or a built-in by name."""
    from .algebra import algebra_from_json_dict, builtin, validate_lie

    try:
        g = builtin(spec)
    except UnknownName:
        g = algebra_from_json_dict(_read_json(spec))
    if require_valid and validate_lie(g):
        raise InputError(f"algebra {g.name!r} fails the Jacobi identity")
    return g


def load_matrix(path: str) -> Matrix:
    from .linalg import Matrix

    return Matrix.from_json_dict(_read_json(path))


def _parse_bindings(items) -> dict:
    from .linalg import parse_rational

    out = {}
    for item in items or []:
        for piece in item.split(","):
            if not piece:
                continue
            name, eq, value = piece.partition("=")
            name = name.strip()
            if not eq or not name:
                raise InputError(f"--fix expects name=value, got {piece!r}")
            if name in out:
                raise InputError(f"--fix gives {name!r} twice")
            out[name] = parse_rational(value.strip())
    return out


def _parse_vector(text: str) -> tuple:
    from .linalg import parse_rational

    return tuple(parse_rational(piece.strip()) for piece in text.split(","))


# ---------------------------------------------------------------------------
# output rendering


def _emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines(report)) + "\n")


def _matrix_line(m: dict) -> str:
    rows = m["entries"]
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _vector_list(vec) -> list:
    from .linalg import format_rational

    return [format_rational(a) for a in vec]


def _basis_dicts(matrices) -> list:
    return [m.to_json_dict() for m in matrices]


def _space_report(space, kind: str) -> dict:
    return {
        "dimension": space.dim,
        "basis": _basis_dicts(space.basis),
        "kind": kind,
    }


def _space_lines(report: dict) -> list:
    lines = [f"dimension: {report['dimension']}"]
    for m in report["basis"]:
        lines.append("  " + _matrix_line(m))
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

    _emit(out, args.format, lines)
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
    _emit(_space_report(space, args.kind), args.format, _space_lines)
    return 0


def cmd_centroid(args) -> int:
    from .derivations import centroid

    g = load_algebra(args.algebra)
    space = centroid(g)
    _emit(_space_report(space, "centroid"), args.format, _space_lines)
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
        return ["quasiderivation with witness:", "  " + _matrix_line(rep["witness"])]

    _emit(out, args.format, lines)
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
    _emit(out, args.format, _space_lines)
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

    _emit(out, args.format, lines)
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

    _emit(out, args.format, lines)
    return 0


def cmd_groebner(args) -> int:
    from .polynomials import groebner, ideal_from_json_dict

    ideal = ideal_from_json_dict(_read_json(args.ideal))
    basis = groebner(ideal, args.degree_guard)
    out = {
        "vars": list(ideal.variables),
        "basis": [str(p) for p in basis.generators],
    }
    _emit(out, args.format, lambda rep: rep["basis"] or ["0"])
    return 0


def cmd_member(args) -> int:
    from .polynomials import groebner, ideal_from_json_dict, member, poly_from_string

    ideal = ideal_from_json_dict(_read_json(args.ideal))
    p = poly_from_string(ideal.variables, args.poly)
    verdict = member(p, groebner(ideal, args.degree_guard))
    out = {"poly": str(p), "member": verdict}
    _emit(out, args.format, lambda rep: [str(rep["member"]).lower()])
    return 0


def cmd_contain(args) -> int:
    from .polynomials import contains, groebner, ideal_from_json_dict

    outer = ideal_from_json_dict(_read_json(args.outer))
    inner = ideal_from_json_dict(_read_json(args.inner))
    # A ring mismatch is an input error, reported before any completion.
    if outer.variables != inner.variables:
        raise DimensionMismatch("ideals live in different rings")
    verdict = contains(groebner(outer, args.degree_guard), inner)
    out = {"contains": verdict}
    _emit(out, args.format, lambda rep: [str(rep["contains"]).lower()])
    return 0


def cmd_prime_check(args) -> int:
    from .polynomials import groebner, ideal_from_json_dict, triangular_prime_check

    ideal = ideal_from_json_dict(_read_json(args.ideal))
    cert = triangular_prime_check(groebner(ideal, args.degree_guard))
    out = {
        "certified": cert.certified,
        "leading_vars": list(cert.leading_vars),
        "free_vars": list(cert.free_vars),
        "reason": cert.reason,
    }

    def lines(rep):
        if rep["certified"]:
            return [
                "certified prime; free variables: " + ", ".join(rep["free_vars"])
            ]
        return ["not certified: " + rep["reason"]]

    _emit(out, args.format, lines)
    return 0


def _form_grid(form) -> list:
    return [[x if isinstance(x, str) else str(x) for x in row] for row in form]


def cmd_sl2(args) -> int:
    from .linalg import format_rational
    from .polynomials import groebner
    from .sl2 import (
        RECORDED_FIXED_DIMENSION,
        Sl2Family,
        fixed_param_dimension,
        residual_ideal,
        verify_decomposition,
    )

    bindings = _parse_bindings(args.fix)
    if bindings:
        family = Sl2Family.fixed(args.family, **bindings)
    else:
        family = Sl2Family.symbolic(args.family)

    out = {
        "family": args.family,
        "components": [],
        "containments": None,
        "fixed": None,
    }

    if bindings:
        raw = residual_ideal(family)
        simplified = groebner(raw, args.degree_guard)
        fixed = fixed_param_dimension(raw)
        out["fixed"] = {
            "params": {
                name: format_rational(value)
                for name, value in sorted(family.values.items())
            },
            "dimension": fixed.dim,
            "basis": _basis_dicts(fixed.basis),
            "paper_claim": RECORDED_FIXED_DIMENSION,
            "matches_claim": fixed.dim == RECORDED_FIXED_DIMENSION,
        }
    else:
        report = verify_decomposition(family, args.degree_guard)
        raw, simplified = report.raw, report.simplified
        for verdict in report.components:
            component = verdict.component
            out["components"].append(
                {
                    "name": component.name,
                    "generators": [str(p) for p in component.ideal.generators],
                    "prime_certified": verdict.certificate.certified,
                    "free_vars": list(verdict.certificate.free_vars),
                    "dimension": verdict.dimension,
                    "dimension_source": verdict.dimension_source,
                    "claimed_dimension": component.claimed_dimension,
                    "contains_ideal": verdict.contains_residuals,
                    "form_identity": verdict.form_satisfies_residuals,
                    "claimed_form_identity": verdict.claimed_form_satisfies_residuals,
                    "parametric_form": _form_grid(component.form),
                    "form_variables": list(component.form_variables),
                    "claimed_form": (
                        _form_grid(component.claimed_form)
                        if component.claimed_form is not None
                        else None
                    ),
                }
            )
        out["containments"] = {
            "product_contained": report.product_contained,
            "all_verdicts": report.all_verdicts_true,
        }
    out["ideal_generators"] = [str(p) for p in simplified.generators]
    out["raw_generator_count"] = len(raw.generators)

    def lines(rep):
        body = [f"family {rep['family']}: ideal basis"]
        for text in rep["ideal_generators"]:
            body.append("  " + text)
        for comp in rep["components"]:
            body.append(
                "{name}: dimension {dimension} (recorded {claimed}), "
                "prime certified: {cert}".format(
                    name=comp["name"],
                    dimension=comp["dimension"],
                    claimed=comp["claimed_dimension"],
                    cert=comp["prime_certified"],
                )
            )
            for row in comp["parametric_form"]:
                body.append("    [" + ", ".join(row) + "]")
        if rep["containments"] is not None:
            body.append(
                "product contained: "
                + str(rep["containments"]["product_contained"])
            )
        if rep["fixed"] is not None:
            fixed = rep["fixed"]
            params = ", ".join(
                f"{k}={v}" for k, v in sorted(fixed["params"].items())
            )
            body.append(
                f"fixed {params}: dimension {fixed['dimension']} "
                f"(recorded claim {fixed['paper_claim']})"
            )
            for m in fixed["basis"]:
                body.append("  " + _matrix_line(m))
        return body

    _emit(out, args.format, lines)
    return 0


def cmd_reproduce(args) -> int:
    from .reproduce import run

    keys = None
    if args.only:
        keys = []
        for item in args.only:
            keys.extend(piece.strip() for piece in item.split(",") if piece.strip())
        if not keys:
            raise InputError("--only names no row key")
    rows = run(keys)
    out = {
        "rows": [
            {
                "key": row.key,
                "title": row.title,
                "ok": row.ok,
                "status": row.status,
                "detail": row.detail,
            }
            for row in rows
        ],
        "all_ok": all(row.ok for row in rows),
    }

    def lines(rep):
        width = max(len(r["key"]) for r in rep["rows"])
        body = []
        for r in rep["rows"]:
            verdict = "pass" if r["ok"] else "FAIL"
            body.append(
                f"{r['key']:<{width}}  {verdict}  {r['status']:<11}  {r['detail']}"
            )
        total = len(rep["rows"])
        passed = sum(1 for r in rep["rows"] if r["ok"])
        body.append(f"{passed}/{total} rows pass")
        return body

    _emit(out, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_format(sub):
    sub.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default %(default)s)",
    )


def _add_guard(sub):
    sub.add_argument(
        "--degree-guard",
        type=int,
        default=DEFAULT_GUARD,
        help="abort polynomial runs after this many generated polynomials, "
        f"0..{MAX_GUARD} (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gderive",
        description="Exact computation of twisted derivation spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("--algebra", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="solve a twisted derivation space")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau")
    p.add_argument("--kind", choices=("plain", "plus", "minus"), default="plain")
    p.add_argument("--gens", nargs="*", metavar="FILE")
    _add_format(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("centroid", help="commuting maps of the bracket")
    p.add_argument("--algebra", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_centroid)

    p = sub.add_parser("quasider", help="quasiderivation witness for a map")
    p.add_argument("--algebra", required=True)
    p.add_argument("--map", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_quasider)

    p = sub.add_parser("abg", help="scaled derivation identity solver")
    p.add_argument("--algebra", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_abg)

    p = sub.add_parser("intersect", help="intersection of two twisted spaces")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--witness", help="comma-separated coordinates")
    _add_format(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("hilbert", help="graded dimensions across powers")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--kind", choices=("plain", "plus"), default="plain")
    p.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help=f"half-width K of the exponent window, 1..{MAX_WINDOW} "
        "(default %(default)s)",
    )
    p.add_argument(
        "--order-bound",
        type=int,
        default=DEFAULT_ORDER_BOUND,
        help=f"largest automorphism order searched, 1..{MAX_ORDER_BOUND} "
        "(default %(default)s)",
    )
    _add_format(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("groebner", help="reduced basis of an ideal")
    p.add_argument("--ideal", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("member", help="ideal membership of a polynomial")
    p.add_argument("--ideal", required=True)
    p.add_argument("--poly", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("contain", help="ideal containment")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("prime-check", help="triangular primality certificate")
    p.add_argument("--ideal", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=cmd_prime_check)

    p = sub.add_parser("sl2", help="twisted derivation report for sl2 families")
    p.add_argument("--family", required=True, choices=("b", "c", "ab"))
    p.add_argument(
        "--fix",
        action="append",
        metavar="NAME=VALUE",
        help="fix family parameters, repeatable or comma-separated",
    )
    _add_format(p)
    _add_guard(p)
    p.set_defaults(func=cmd_sl2)

    p = sub.add_parser("reproduce", help="rerun the recorded result suite")
    p.add_argument(
        "--only",
        action="append",
        metavar="KEY",
        help="restrict to these row keys, repeatable or comma-separated",
    )
    _add_format(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except GDeriveError as exc:
        sys.stderr.write(f"gderive: error[{exc.code}]: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
