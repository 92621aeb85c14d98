"""Handlers of the ideal-side subcommands: groebner, member, contain,
prime-check, sl2 and reproduce.

Each handler imports the engine names it uses when it runs, so a run
loads only the engines it needs and never the linear handlers.
"""

from __future__ import annotations

from .cli_io import basis_dicts, emit, matrix_line, read_json
from .errors import DimensionMismatch, InputError


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


def cmd_groebner(args) -> int:
    from .polynomials import groebner, ideal_from_json_dict

    ideal = ideal_from_json_dict(read_json(args.ideal))
    basis = groebner(ideal, args.degree_guard)
    out = {
        "vars": list(ideal.variables),
        "basis": [str(p) for p in basis.generators],
    }
    emit(out, args.format, lambda rep: rep["basis"] or ["0"])
    return 0


def cmd_member(args) -> int:
    from .polynomials import groebner, ideal_from_json_dict, member, poly_from_string

    ideal = ideal_from_json_dict(read_json(args.ideal))
    p = poly_from_string(ideal.variables, args.poly)
    verdict = member(p, groebner(ideal, args.degree_guard))
    out = {"poly": str(p), "member": verdict}
    emit(out, args.format, lambda rep: [str(rep["member"]).lower()])
    return 0


def cmd_contain(args) -> int:
    from .polynomials import contains, groebner, ideal_from_json_dict

    outer = ideal_from_json_dict(read_json(args.outer))
    inner = ideal_from_json_dict(read_json(args.inner))
    # A ring mismatch is an input error, reported before any completion.
    if outer.variables != inner.variables:
        raise DimensionMismatch("ideals live in different rings")
    verdict = contains(groebner(outer, args.degree_guard), inner)
    out = {"contains": verdict}
    emit(out, args.format, lambda rep: [str(rep["contains"]).lower()])
    return 0


def cmd_prime_check(args) -> int:
    from .polynomials import groebner, ideal_from_json_dict, triangular_prime_check

    ideal = ideal_from_json_dict(read_json(args.ideal))
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

    emit(out, args.format, lines)
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
            "basis": basis_dicts(fixed.basis),
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
                body.append("  " + matrix_line(m))
        return body

    emit(out, args.format, lines)
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

    emit(out, args.format, lines)
    return 0
