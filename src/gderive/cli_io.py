"""JSON input and report output shared by the subcommand handlers.

Loaded when a subcommand runs, never when the parser is built, so
``--help`` and a usage error load no ``json``.
"""

from __future__ import annotations

import json
import sys

from .errors import InputError


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is an error, where
    json.load would keep the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"key {key!r} appears twice in one JSON object")
        out[key] = value
    return out


def read_json(path: str) -> dict:
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


def emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines(report)) + "\n")


def matrix_line(m: dict) -> str:
    rows = m["entries"]
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def basis_dicts(matrices) -> list:
    return [m.to_json_dict() for m in matrices]
