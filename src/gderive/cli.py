"""Command line interface.

Every subcommand reads exact-rational inputs, runs one of the engines,
and prints a deterministic report: JSON with sorted keys by default, or
a text rendering with matrices in bracketed rows.  Identical inputs
always produce byte-identical output.

Exit codes: 0 success, 2 invalid input, 1 internal guard tripped.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GDeriveError
from .limits import (
    DEFAULT_GUARD,
    DEFAULT_ORDER_BOUND,
    DEFAULT_WINDOW,
    MAX_GUARD,
    MAX_ORDER_BOUND,
    MAX_WINDOW,
)

# This module is the argument surface only. The handlers live in two
# families: cli_linear (check, derive, centroid, quasider, abg, intersect,
# hilbert) and cli_ideals (groebner, member, contain, prime-check, sl2,
# reproduce), with the JSON reading and report writing they share in
# cli_io. A subcommand loads its family when it runs, and each handler
# loads the engines it uses, so building the parser (and --help) loads no
# handler, no engine and no json.


def _linear():
    from . import cli_linear

    return cli_linear


def _ideals():
    from . import cli_ideals

    return cli_ideals


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
    p.set_defaults(func=lambda args: _linear().cmd_check(args))

    p = sub.add_parser("derive", help="solve a twisted derivation space")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau")
    p.add_argument("--kind", choices=("plain", "plus", "minus"), default="plain")
    p.add_argument("--gens", nargs="*", metavar="FILE")
    _add_format(p)
    p.set_defaults(func=lambda args: _linear().cmd_derive(args))

    p = sub.add_parser("centroid", help="commuting maps of the bracket")
    p.add_argument("--algebra", required=True)
    _add_format(p)
    p.set_defaults(func=lambda args: _linear().cmd_centroid(args))

    p = sub.add_parser("quasider", help="quasiderivation witness for a map")
    p.add_argument("--algebra", required=True)
    p.add_argument("--map", required=True)
    _add_format(p)
    p.set_defaults(func=lambda args: _linear().cmd_quasider(args))

    p = sub.add_parser("abg", help="scaled derivation identity solver")
    p.add_argument("--algebra", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    _add_format(p)
    p.set_defaults(func=lambda args: _linear().cmd_abg(args))

    p = sub.add_parser("intersect", help="intersection of two twisted spaces")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--witness", help="comma-separated coordinates")
    _add_format(p)
    p.set_defaults(func=lambda args: _linear().cmd_intersect(args))

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
    p.set_defaults(func=lambda args: _linear().cmd_hilbert(args))

    p = sub.add_parser("groebner", help="reduced basis of an ideal")
    p.add_argument("--ideal", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=lambda args: _ideals().cmd_groebner(args))

    p = sub.add_parser("member", help="ideal membership of a polynomial")
    p.add_argument("--ideal", required=True)
    p.add_argument("--poly", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=lambda args: _ideals().cmd_member(args))

    p = sub.add_parser("contain", help="ideal containment")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=lambda args: _ideals().cmd_contain(args))

    p = sub.add_parser("prime-check", help="triangular primality certificate")
    p.add_argument("--ideal", required=True)
    _add_guard(p)
    _add_format(p)
    p.set_defaults(func=lambda args: _ideals().cmd_prime_check(args))

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
    p.set_defaults(func=lambda args: _ideals().cmd_sl2(args))

    p = sub.add_parser("reproduce", help="rerun the recorded result suite")
    p.add_argument(
        "--only",
        action="append",
        metavar="KEY",
        help="restrict to these row keys, repeatable or comma-separated",
    )
    _add_format(p)
    p.set_defaults(func=lambda args: _ideals().cmd_reproduce(args))

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
