"""End-to-end tests of the command line interface.

Subcommands run in-process through main(); expected values repeat the
frozen oracles from the engine test files, so any drift between the CLI
plumbing and the engines shows up here.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gderive
from gderive import errors, reproduce, sl2
from gderive.algebra import algebra_to_json_dict, builtin
from gderive.cli import main
from gderive.limits import MAX_EXPONENT
from gderive.linalg import Matrix
from gderive.sl2 import Sl2Family, family_sigma

F = Fraction


@pytest.fixture()
def files(tmp_path):
    """Fixture JSON inputs shared by the subcommand tests."""
    def dump(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    ids = Matrix.identity(3)
    sigma = family_sigma(Sl2Family.fixed("b", b=F(1)))
    return {
        "sl2": dump("sl2.json", algebra_to_json_dict(builtin("sl2"))),
        "heis": dump("heis.json", algebra_to_json_dict(builtin("heisenberg"))),
        "bad_algebra": dump(
            "bad_algebra.json",
            {
                "name": "broken",
                "dim": 3,
                "brackets": [
                    {"left": 1, "right": 2, "result": [["1", 2]]},
                    {"left": 1, "right": 3, "result": [["1", 3]]},
                    {"left": 2, "right": 3, "result": [["1", 1]]},
                ],
            },
        ),
        "identity": dump("identity.json", ids.to_json_dict()),
        "sigma": dump("sigma.json", sigma.to_json_dict()),
        "flip": dump(
            "flip.json",
            Matrix.from_rows(
                [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]
            ).to_json_dict(),
        ),
        "bad_sigma": dump(
            "bad_sigma.json",
            Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]]).to_json_dict(),
        ),
        "projection": dump(
            "projection.json",
            Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]).to_json_dict(),
        ),
        "ideal": dump(
            "ideal.json", {"vars": ["x", "y"], "gens": ["x^2 - y", "x*y - x"]}
        ),
        "inner": dump("inner.json", {"vars": ["x", "y"], "gens": ["x^3 - x"]}),
        "tmp": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- malformed documents for the fuzz test ------------------------------------

_SCALARS = (
    st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
)
_LEAVES = _SCALARS | st.integers() | st.text(max_size=3)
# Object keys have at most three characters, so a garbage object never
# carries a field name such as "left" or "vars".
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_LISTS = st.lists(_NESTED, max_size=3)
_DICTS = st.dictionaries(st.text(max_size=3), _NESTED, max_size=3)
# Values that no slot of the given type accepts.
_NOT_INT = _SCALARS | st.text(max_size=3) | _LISTS | _DICTS
_NOT_STR = _SCALARS | st.integers() | _LISTS | _DICTS
_NOT_LIST = _SCALARS | st.integers() | st.text(max_size=3) | _DICTS
_NOT_RATIONAL = _SCALARS | _LISTS | _DICTS
_NOT_OBJECT = _LEAVES | _LISTS

_DOCUMENTS = {
    "algebra": (
        ["check", "--algebra", "{doc}"],
        {
            "name": "h",
            "dim": 3,
            "brackets": [{"left": 1, "right": 2, "result": [["1", 3]]}],
        },
    ),
    "matrix": (
        ["derive", "--algebra", "sl2", "--sigma", "{doc}"],
        Matrix.identity(3).to_json_dict(),
    ),
    "ideal": (
        ["groebner", "--ideal", "{doc}"],
        {"vars": ["x", "y"], "gens": ["x^2 - y"]},
    ),
}

# (document, path of the slot to overwrite, values invalid in that slot)
_BAD_SLOTS = [
    ("algebra", (), _NOT_OBJECT),
    ("algebra", ("name",), _NOT_STR),
    ("algebra", ("dim",), _NOT_INT),
    ("algebra", ("brackets",), _NOT_LIST),
    ("algebra", ("brackets", 0), _NOT_OBJECT | _DICTS),
    ("algebra", ("brackets", 0, "left"), _NOT_INT),
    ("algebra", ("brackets", 0, "right"), _NOT_INT),
    ("algebra", ("brackets", 0, "result"), _NOT_LIST),
    ("algebra", ("brackets", 0, "result", 0), _NOT_LIST),
    ("algebra", ("brackets", 0, "result", 0, 0), _NOT_STR),
    ("algebra", ("brackets", 0, "result", 0, 1), _NOT_INT),
    ("matrix", (), _NOT_OBJECT),
    ("matrix", ("rows",), _NOT_INT),
    ("matrix", ("cols",), _NOT_INT),
    ("matrix", ("entries",), _NOT_LIST),
    ("matrix", ("entries", 1), _NOT_LIST),
    ("matrix", ("entries", 1, 2), _NOT_RATIONAL),
    ("ideal", (), _NOT_OBJECT),
    ("ideal", ("vars",), _NOT_LIST),
    ("ideal", ("vars", 0), _NOT_STR),
    ("ideal", ("gens",), _NOT_LIST),
    ("ideal", ("gens", 0), _NOT_STR),
]


@st.composite
def _malformed_document(draw):
    """(argv template, document) with exactly one defect."""
    if draw(st.booleans()):
        kind, path, values = draw(st.sampled_from(_BAD_SLOTS))
        argv, doc = _DOCUMENTS[kind]
        doc = json.loads(json.dumps(doc))
        value = draw(values)
        if not path:
            return argv, value
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return argv, doc
    if draw(st.booleans()):
        argv, _ = _DOCUMENTS["ideal"]
        names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3))
        return argv, {"vars": names + names[:1], "gens": []}
    argv, _ = _DOCUMENTS["algebra"]
    left = draw(st.integers(1, 2))
    right = draw(st.integers(left + 1, 3))
    entries = [
        {
            "left": left,
            "right": right,
            "result": [[draw(st.sampled_from(["1", "-2", "1/3"])), k]],
        }
        for k in draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    ]
    return argv, {"name": "h", "dim": 3, "brackets": entries}


# A rational literal past Python's 4300-digit int/str conversion limit.
_LONG = "9" * 5000

_ERROR_CODES = {
    cls.code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.GDeriveError)
}


class TestCheck:
    def test_valid_builtin(self, capsys):
        report = run_json(capsys, "check", "--algebra", "sl2")
        assert report == {
            "name": "sl2", "dim": 3, "valid": True, "violations": [],
        }

    def test_valid_file_text(self, capsys, files):
        code, out, _ = run(
            capsys, "check", "--algebra", files["sl2"], "--format", "text"
        )
        assert code == 0
        assert out == "sl2: valid Lie algebra of dimension 3\n"

    def test_violations_reported(self, capsys, files):
        report = run_json(capsys, "check", "--algebra", files["bad_algebra"])
        assert report["valid"] is False
        assert report["violations"] == [
            {"triple": [1, 2, 3], "residual": ["2", "0", "0"]}
        ]

    @pytest.mark.parametrize("algebra, fmt, expected", [
        ("sl2", "json", '{\n  "dim": 3,\n  "name": "sl2",\n  "valid": true,\n'
                        '  "violations": []\n}\n'),
        ("sl2", "text", "sl2: valid Lie algebra of dimension 3\n"),
        ("bad_algebra", "json",
         '{\n  "dim": 3,\n  "name": "broken",\n  "valid": false,\n'
         '  "violations": [\n    {\n      "residual": [\n'
         '        "2",\n        "0",\n        "0"\n      ],\n'
         '      "triple": [\n        1,\n        2,\n        3\n'
         '      ]\n    }\n  ]\n}\n'),
        ("bad_algebra", "text",
         "broken: 1 Jacobi violations\n  (1, 2, 3): [2, 0, 0]\n"),
    ], ids=["sl2-json", "sl2-text", "violations-json", "violations-text"])
    def test_exact_stdout(self, capsys, files, algebra, fmt, expected):
        code, out, _ = run(
            capsys, "check", "--algebra", files[algebra], "--format", fmt
        )
        assert code == 0
        assert out == expected

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--algebra", "no-such-file.json")
        assert code == 2
        assert "gderive: error[InvalidInput]" in err


class TestDerive:
    def test_twisted_space(self, capsys, files):
        report = run_json(
            capsys, "derive", "--algebra", files["sl2"], "--sigma", files["sigma"]
        )
        assert report["dimension"] == 1
        assert report["kind"] == "plain"
        assert report["basis"] == [
            {
                "rows": 3,
                "cols": 3,
                "entries": [
                    ["0", "1", "-1"],
                    ["0", "0", "-2"],
                    ["0", "0", "0"],
                ],
            }
        ]

    def test_rejects_non_automorphism(self, capsys, files):
        code, _, err = run(
            capsys,
            "derive", "--algebra", files["sl2"], "--sigma", files["bad_sigma"],
        )
        assert code == 2
        assert "error[UnvalidatedAutomorphism]" in err

    @pytest.mark.parametrize("bad", ["bad_sigma", "projection"])
    @pytest.mark.parametrize("slot", ["--tau", "--gens"])
    def test_rejects_non_automorphism_in_each_slot(self, capsys, files, slot, bad):
        argv = {"--sigma": files["identity"], "--tau": files["identity"],
                "--kind": "minus", "--gens": files["flip"]}
        argv[slot] = files[bad]
        code, out, err = run(
            capsys, "derive", "--algebra", files["sl2"],
            *(a for pair in argv.items() for a in pair),
        )
        assert (code, out) == (2, "")
        assert "error[UnvalidatedAutomorphism]" in err

    @pytest.mark.parametrize("slot", ["--sigma", "--tau", "--gens"])
    def test_rejects_matrix_of_the_wrong_size(self, capsys, files, slot):
        nine = files["tmp"] / "identity9.json"
        nine.write_text(json.dumps(Matrix.identity(9).to_json_dict()))
        argv = {"--sigma": files["identity"], "--tau": files["identity"]}
        argv[slot] = str(nine)
        if slot == "--gens":
            argv["--kind"] = "minus"
        code, out, err = run(
            capsys, "derive", "--algebra", files["sl2"],
            *(a for pair in argv.items() for a in pair),
        )
        assert code == 2
        assert out == ""
        assert (
            "error[DimensionMismatch]: matrix does not act on the algebra: "
            "a 9x9 matrix on an algebra of dimension 3"
        ) in err

    def test_minus_kind_needs_generators(self, capsys, files):
        code, _, err = run(
            capsys,
            "derive", "--algebra", files["sl2"], "--sigma", files["identity"],
            "--kind", "minus",
        )
        assert code == 2
        assert "error[InvalidInput]" in err

    @pytest.mark.parametrize("kind", ["plain", "plus"])
    def test_generators_need_kind_minus(self, capsys, files, kind):
        code, out, err = run(
            capsys,
            "derive", "--algebra", files["sl2"], "--sigma", files["identity"],
            "--kind", kind, "--gens", files["flip"],
        )
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]" in err

    def test_rejects_invalid_algebra(self, capsys, files):
        code, _, err = run(
            capsys,
            "derive",
            "--algebra", files["bad_algebra"],
            "--sigma", files["identity"],
        )
        assert code == 2
        assert "Jacobi" in err


class TestMalformedInput:
    """Malformed documents and oversized built-ins end with exit 2 and a
    stable error code, never a traceback."""

    @pytest.mark.parametrize("argv, doc, message", [
        (
            ["check", "--algebra", "{doc}"],
            {"name": "x", "dim": 2, "brackets": 5},
            "error[InvalidInput]: brackets must be a list",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {
                "name": "x",
                "dim": 2,
                "brackets": [{"left": 1, "right": 2, "result": [["1"]]}],
            },
            "error[InvalidInput]: bracket result must be a list of",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {
                "name": "x",
                "dim": 2,
                "brackets": [{"left": 1, "right": 2, "result": "1"}],
            },
            "error[InvalidInput]: bracket result must be a list of",
        ),
        (
            ["derive", "--algebra", "sl2", "--sigma", "{doc}"],
            {"rows": 3, "cols": 3, "entries": 5},
            "error[InvalidInput]: entries must be a list of rows",
        ),
        (
            ["derive", "--algebra", "sl2", "--sigma", "{doc}"],
            {"rows": 1, "cols": 1, "entries": [5]},
            "error[InvalidInput]: entries must be a list of rows",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {"name": "x", "dim": 65, "brackets": []},
            "error[InvalidInput]: dim is too large",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {"name": "x", "dim": True, "brackets": []},
            "error[InvalidInput]: dim must be a nonnegative integer",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {
                "name": "x",
                "dim": 2,
                "brackets": [{"left": True, "right": 2, "result": []}],
            },
            "error[InvalidInput]: bracket pair (True,2) must satisfy",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {
                "name": "x",
                "dim": 2,
                "brackets": [{"left": 1, "right": 2, "result": [["1", True]]}],
            },
            "error[InvalidInput]: component index True out of range",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {
                "name": "x",
                "dim": 2,
                "brackets": [
                    {"left": 1, "right": 2, "result": [["1", 1]]},
                    {"left": 1, "right": 2, "result": [["1", 2]]},
                ],
            },
            "error[InvalidInput]: bracket pair (1,2) is listed twice",
        ),
        (
            ["check", "--algebra", "{doc}"],
            {"name": ["x"], "dim": 1, "brackets": []},
            "error[InvalidInput]: name must be a string",
        ),
        (
            ["derive", "--algebra", "sl2", "--sigma", "{doc}"],
            {"rows": True, "cols": 1, "entries": [["1"]]},
            "error[InvalidInput]: rows and cols must be integers",
        ),
        (
            ["derive", "--algebra", "sl2", "--sigma", "{doc}"],
            {"rows": 3, "cols": 3, "entries": [
                [True, "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
            ]},
            "error[InvalidInput]: matrix entries must be rationals",
        ),
    ])
    def test_malformed_document(self, capsys, files, argv, doc, message):
        path = files["tmp"] / "malformed.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "{doc}" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        b'{"name": "x", "dim": ' + b"9" * 5000 + b', "brackets": []}',
        b'{"name": "\xff", "dim": 1, "brackets": []}',
        b"[" * 100000,
    ], ids=["integer-past-digit-limit", "invalid-utf8", "nested-too-deep"])
    def test_undecodable_document(self, capsys, files, content):
        path = files["tmp"] / "undecodable.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "check", "--algebra", str(path))
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, doc", [
        (
            ["derive", "--algebra", "sl2", "--sigma", "{doc}"],
            {"rows": 3, "cols": 3, "entries": [
                [_LONG, "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
            ]},
        ),
        (
            ["check", "--algebra", "{doc}"],
            {"name": "x", "dim": 2,
             "brackets": [{"left": 1, "right": 2, "result": [[_LONG, 1]]}]},
        ),
        (["abg", "--algebra", "sl2", "--alpha", _LONG, "--beta", "1",
          "--gamma", "1"], None),
        (["sl2", "--family", "b", "--fix", f"b={_LONG}"], None),
        (
            ["intersect", "--algebra", "sl2", "--sigma", "{id}", "--tau", "{id}",
             "--witness", f"{_LONG},0,0"],
            None,
        ),
        (["groebner", "--ideal", "{doc}"], {"vars": ["x"], "gens": [f"{_LONG}*x"]}),
        (["groebner", "--ideal", "{doc}"], {"vars": ["x"], "gens": [f"x^{_LONG}"]}),
        (["member", "--ideal", "{ideal}", "--poly", f"{_LONG}*x"], None),
    ], ids=[
        "sigma-entry", "bracket-coefficient", "abg-alpha", "sl2-fix",
        "intersect-witness", "poly-coefficient", "poly-exponent", "member-poly",
    ])
    def test_literal_past_digit_limit(self, capsys, files, argv, doc):
        path = files["tmp"] / "long.json"
        path.write_text(json.dumps(doc))
        slots = {"{doc}": str(path), "{id}": files["identity"],
                 "{ideal}": files["ideal"]}
        code, out, err = run(capsys, *(slots.get(a, a) for a in argv))
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]" in err
        assert "Traceback" not in err

    # json.dumps cannot repeat a key, so these documents are raw text.
    @pytest.mark.parametrize("argv, content, key", [
        (
            ["check", "--algebra", "{doc}"],
            '{"name": "x", "dim": 3, "dim": 2, "brackets": []}',
            "dim",
        ),
        (
            ["check", "--algebra", "{doc}"],
            '{"name": "x", "dim": 2, "brackets": '
            '[{"left": 1, "right": 2, "left": 2, "result": []}]}',
            "left",
        ),
        (
            ["derive", "--algebra", "sl2", "--sigma", "{doc}"],
            '{"rows": 2, "cols": 3, "rows": 3, '
            '"entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}',
            "rows",
        ),
        (
            ["groebner", "--ideal", "{doc}"],
            '{"vars": ["x", "y"], "gens": ["x^2 - y"], "gens": []}',
            "gens",
        ),
    ], ids=["algebra", "algebra-bracket", "matrix", "ideal"])
    def test_repeated_key(self, capsys, files, argv, content, key):
        path = files["tmp"] / "repeated.json"
        path.write_text(content)
        argv = [str(path) if a == "{doc}" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error[InvalidInput]: key {key!r} appears twice" in err
        assert "Traceback" not in err

    def test_oversized_abelian(self, capsys, files):
        code, out, err = run(
            capsys,
            "derive", "--algebra", "abelian(1000000)",
            "--sigma", files["identity"],
        )
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]: abelian(1000000) is too large" in err
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(case=_malformed_document())
    def test_malformed_document_fuzz(self, tmp_path_factory, case):
        argv, doc = case
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "{doc}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2
        assert out.getvalue() == ""
        match = re.match(r"gderive: error\[(\w+)\]: ", err.getvalue())
        assert match and match.group(1) in _ERROR_CODES
        assert "Traceback" not in err.getvalue()


class TestSmallSolvers:
    def test_centroid(self, capsys, files):
        report = run_json(capsys, "centroid", "--algebra", files["heis"])
        assert report["dimension"] == 3

    def test_quasider(self, capsys, files):
        report = run_json(
            capsys,
            "quasider", "--algebra", files["heis"], "--map", files["projection"],
        )
        assert report["quasiderivation"] is True
        assert report["witness"]["entries"] == [
            ["0", "0", "0"], ["0", "0", "0"], ["0", "0", "2"],
        ]

    def test_quasider_rejects_map_of_the_wrong_size(self, capsys, files):
        two = files["tmp"] / "identity2.json"
        two.write_text(json.dumps(Matrix.identity(2).to_json_dict()))
        code, out, err = run(
            capsys, "quasider", "--algebra", files["sl2"], "--map", str(two),
        )
        assert code == 2
        assert out == ""
        assert (
            "error[DimensionMismatch]: matrix does not act on the algebra: "
            "a 2x2 matrix on an algebra of dimension 3"
        ) in err

    def test_abg(self, capsys):
        report = run_json(
            capsys,
            "abg", "--algebra", "heisenberg",
            "--alpha", "0", "--beta", "1", "--gamma", "-1",
        )
        assert report["dimension"] == 4
        assert (report["alpha"], report["beta"], report["gamma"]) == ("0", "1", "-1")

    def test_intersect_with_witness(self, capsys, files):
        report = run_json(
            capsys,
            "intersect", "--algebra", files["sl2"],
            "--sigma", files["identity"], "--tau", files["sigma"],
            "--witness", "1,0,0",
        )
        assert report["dimension"] == 0
        assert report["basis"] == []
        assert report["witness"] == ["1", "0", "0"]
        assert report["witness_in_centralizer"] is True

    @pytest.mark.parametrize("bad", ["bad_sigma", "projection"])
    @pytest.mark.parametrize("slot", ["--sigma", "--tau"])
    def test_intersect_rejects_non_automorphism(self, capsys, files, slot, bad):
        argv = {"--sigma": files["identity"], "--tau": files["sigma"]}
        argv[slot] = files[bad]
        code, out, err = run(
            capsys, "intersect", "--algebra", files["sl2"],
            *(a for pair in argv.items() for a in pair), "--witness", "1,0,0",
        )
        assert (code, out) == (2, "")
        assert "error[UnvalidatedAutomorphism]" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_intersect_empty_witness_is_rejected(self, capsys, files, fmt):
        code, out, err = run(
            capsys,
            "intersect", "--algebra", files["sl2"],
            "--sigma", files["identity"], "--tau", files["sigma"],
            "--witness", "", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]" in err


class TestHilbert:
    def test_window_report(self, capsys, files):
        report = run_json(
            capsys,
            "hilbert", "--algebra", files["sl2"], "--sigma", files["sigma"],
            "--window", "6",
        )
        assert report["finite_order"] is None
        assert report["dims"] == {
            str(k): (3 if k == 0 else 1) for k in range(-6, 7)
        }
        assert report["period"] == {"cutoff": 1, "period": 1}
        assert report["series"] == "3 + t/(1-t) + t^-1/(1-t^-1)"

    def test_finite_order_report(self, capsys, files):
        report = run_json(
            capsys,
            "hilbert", "--algebra", files["sl2"], "--sigma", files["flip"],
        )
        assert report["finite_order"] == 2
        assert report["dims"] == {"0": 3, "1": 1}
        assert report["period"] is None
        assert report["series"] == "3 + t"

    @pytest.mark.parametrize("bad", ["bad_sigma", "projection"])
    def test_rejects_non_automorphism(self, capsys, files, bad):
        # The projection is singular: it is reported as no automorphism,
        # not as a matrix without an inverse.
        code, out, err = run(
            capsys, "hilbert", "--algebra", files["sl2"], "--sigma", files[bad],
        )
        assert (code, out) == (2, "")
        assert "error[UnvalidatedAutomorphism]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("window", ["0", "65", "1000000"])
    def test_window_out_of_range(self, capsys, files, window):
        code, out, err = run(
            capsys,
            "hilbert", "--algebra", files["sl2"], "--sigma", files["sigma"],
            "--window", window,
        )
        assert (code, out) == (2, "")
        assert "error[InvalidInput]: window must be between 1 and 64" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bound", ["0", "-3", "1025"])
    def test_order_bound_out_of_range(self, capsys, files, bound):
        code, out, err = run(
            capsys,
            "hilbert", "--algebra", files["sl2"], "--sigma", files["flip"],
            "--order-bound", bound,
        )
        assert (code, out) == (2, "")
        assert "error[InvalidInput]: order bound must be between 1 and 1024" in err
        assert "Traceback" not in err


class TestPolynomialCommands:
    def test_groebner(self, capsys, files):
        report = run_json(capsys, "groebner", "--ideal", files["ideal"])
        assert report == {
            "vars": ["x", "y"],
            "basis": ["x^2 - y", "x*y - x", "y^2 - y"],
        }

    def test_member(self, capsys, files):
        report = run_json(
            capsys, "member", "--ideal", files["ideal"], "--poly", "x^3 - x"
        )
        assert report == {"poly": "x^3 - x", "member": True}
        report = run_json(
            capsys, "member", "--ideal", files["ideal"], "--poly", "x + 1"
        )
        assert report["member"] is False
        report = run_json(
            capsys, "member", "--ideal", files["ideal"], "--poly", "x^3 - x "
        )
        assert report == {"poly": "x^3 - x", "member": True}

    @pytest.mark.parametrize("poly", [
        f"x^{MAX_EXPONENT + 1}", "x^1000000000", "x^60000*x^60000", "y*x^99999*x^2",
    ])
    def test_member_rejects_an_exponent_past_the_bound(self, capsys, files, poly):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "member", "--ideal", files["ideal"], "--poly", poly
        )
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]: exponent of x is" in err
        assert "Traceback" not in err

    def test_member_answers_at_the_exponent_bound(self, capsys, files):
        # x^n reduces to y for even n >= 2, so it is not in the ideal.
        report = run_json(
            capsys, "member", "--ideal", files["ideal"], "--poly", f"x^{MAX_EXPONENT}"
        )
        assert report["member"] is False

    def test_contain(self, capsys, files):
        report = run_json(
            capsys,
            "contain", "--outer", files["ideal"], "--inner", files["inner"],
        )
        assert report == {"contains": True}

    def test_prime_check(self, capsys, files):
        report = run_json(capsys, "prime-check", "--ideal", files["ideal"])
        assert report["certified"] is False
        assert "nonlinear" in report["reason"]

    def test_degree_guard_trips(self, capsys, files):
        path = files["tmp"] / "guarded.json"
        path.write_text(
            json.dumps({"vars": ["x", "y"], "gens": ["x^2", "x*y + y^2"]})
        )
        code, _, err = run(
            capsys,
            "groebner", "--ideal", str(path), "--degree-guard", "0",
        )
        assert code == 1
        assert "error[DegreeGuardExceeded]" in err
        assert "exceeded 0 generated polynomials" in err
        for counter in (
            "pairs reduced: 1", "skipped by the product criterion: 0",
            "skipped by the chain and M criteria: 0", "still queued: 0",
            "basis size: 2",
        ):
            assert counter in err

    @pytest.mark.parametrize("argv", [
        ("groebner", "--ideal", "ideal", "--degree-guard", "-1"),
        ("groebner", "--ideal", "ideal", "--degree-guard", "1000001"),
        ("contain", "--outer", "ideal", "--inner", "empty", "--degree-guard", "-1"),
        ("sl2", "--family", "b", "--degree-guard", "1000001"),
    ])
    def test_degree_guard_out_of_range(self, capsys, files, argv):
        empty = files["tmp"] / "empty.json"
        empty.write_text(json.dumps({"vars": ["x", "y"], "gens": []}))
        paths = {"ideal": files["ideal"], "empty": str(empty)}
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert (code, out) == (2, "")
        assert "error[InvalidInput]: degree guard must be between 0 and 1000000" in err
        assert "Traceback" not in err

    # The handler compares the rings first, so a ring mismatch is reported
    # as the input error it is, before the guard's range or a tripped
    # guard; then it completes the outer ideal, so a tripped guard comes
    # before reading the inner ideal, even when that is zero.
    @pytest.mark.parametrize("outer, inner, guard, code, message", [
        ("trip", "empty", "0", 1, "error[DegreeGuardExceeded]"),
        ("trip", "other", "0", 2,
         "error[DimensionMismatch]: ideals live in different rings"),
        ("ideal", "other", "-1", 2,
         "error[DimensionMismatch]: ideals live in different rings"),
        ("ideal", "other", "5000", 2,
         "error[DimensionMismatch]: ideals live in different rings"),
        ("trip", "ideal", "0", 1, "error[DegreeGuardExceeded]"),
    ])
    def test_contain_completes_the_outer_ideal_first(
        self, capsys, files, outer, inner, guard, code, message
    ):
        docs = {
            "trip": {"vars": ["x", "y"], "gens": ["x^2", "x*y + y^2"]},
            "empty": {"vars": ["x", "y"], "gens": []},
            "other": {"vars": ["x", "y", "z"], "gens": ["x"]},
        }
        paths = {"ideal": files["ideal"]}
        for name, doc in docs.items():
            paths[name] = str(files["tmp"] / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        got, out, err = run(
            capsys, "contain", "--outer", paths[outer], "--inner",
            paths[inner], "--degree-guard", guard,
        )
        assert (got, out) == (code, "")
        assert message in err
        assert "Traceback" not in err

    def test_malformed_ideal_file(self, capsys, files):
        path = files["tmp"] / "broken.json"
        path.write_text('{"vars": ["x"]}')
        code, _, err = run(capsys, "groebner", "--ideal", str(path))
        assert code == 2
        assert "error[InvalidInput]" in err

    @pytest.mark.parametrize("doc, message", [
        ({"vars": ["x", "x"], "gens": ["x"]}, "vars must be distinct"),
        ({"vars": ["x"], "gens": 5}, "gens must be a list"),
        ({"vars": ["1", "x"], "gens": ["x - 1"]}, "variable name '1' is not"),
        ({"vars": ["", "x"], "gens": ["x - 1"]}, "variable name '' is not"),
        ({"vars": ["x y", "x"], "gens": ["x"]}, "variable name 'x y' is not"),
        ({"vars": ["x-1", "x"], "gens": ["x"]}, "variable name 'x-1' is not"),
    ])
    def test_ideal_rejected_like_the_library(self, capsys, files, doc, message):
        path = files["tmp"] / "rejected.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "groebner", "--ideal", str(path))
        assert code == 2
        assert out == ""
        assert f"error[InvalidInput]: {message}" in err
        assert "Traceback" not in err


# --fix bindings for the fuzz test: the families' parameter names, the
# factory's own argument names and other identifiers, bound to rationals
# or to junk text.
_FIX_NAMES = st.sampled_from(
    ["tag", "cls", "values", "self", "a", "b", "c", "y"]
) | st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_FIX_VALUES = st.fractions(min_value=-100, max_value=100, max_denominator=50).map(
    str
) | st.text(max_size=12)


class TestSl2Command:
    def test_symbolic_family_b(self, capsys):
        report = run_json(capsys, "sl2", "--family", "b")
        assert report["family"] == "b"
        assert report["fixed"] is None
        assert report["raw_generator_count"] == 20
        assert report["ideal_generators"] == [
            "x11 + x33",
            "x12 + 2*x23",
            "x13",
            "x21 + 1/2*x32",
            "x22",
            "x23*y",
            "x31 - 1/2*x32*y",
            "x33*y",
        ]
        first, second = report["components"]
        assert first["prime_certified"] is True
        assert first["dimension"] == 3 == first["claimed_dimension"]
        assert second["prime_certified"] is True
        assert second["free_vars"] == ["x32", "y"]
        assert second["parametric_form"] == [
            ["0", "-1/2*t", "1/2*t*y"],
            ["0", "0", "t"],
            ["0", "0", "0"],
        ]
        assert second["claimed_form_identity"] is True
        assert report["containments"] == {
            "product_contained": True,
            "all_verdicts": True,
        }

    def test_symbolic_family_ab_verdicts(self, capsys):
        report = run_json(capsys, "sl2", "--family", "ab")
        first, second = report["components"]
        assert first["dimension"] == 4
        assert first["claimed_dimension"] == 3
        assert second["prime_certified"] is False
        assert second["dimension_source"] == "parametrization coordinates"
        assert isinstance(second["claimed_form"][0][0], str)
        assert report["containments"]["product_contained"] is True
        assert report["containments"]["all_verdicts"] is False

    def test_fixed_family_ab(self, capsys):
        report = run_json(
            capsys, "sl2", "--family", "ab", "--fix", "a=2,b=1"
        )
        assert report["components"] == []
        assert report["containments"] is None
        fixed = report["fixed"]
        assert fixed["params"] == {"a": "2", "b": "1"}
        assert fixed["dimension"] == 1
        assert fixed["paper_claim"] == 4
        assert fixed["matches_claim"] is False
        assert fixed["basis"][0]["entries"] == [
            ["1", "2/3", "-1/3"],
            ["-4/3", "-2/3", "0"],
            ["-1/3", "0", "-1/3"],
        ]

    def test_fixed_family_b_repeatable_fix_flag(self, capsys):
        report = run_json(
            capsys, "sl2", "--family", "b", "--fix", "b=1"
        )
        assert report["fixed"]["dimension"] == 1

    def test_format_is_the_one_output_option(self, capsys):
        code, out, _ = run(capsys, "sl2", "--family", "b", "--format", "text")
        assert code == 0 and out.startswith("family b: ideal basis\n")
        code, out, err = run(capsys, "sl2", "--family", "b", "--report", "text")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --report" in err

    def test_bad_fix_values(self, capsys):
        code, _, err = run(capsys, "sl2", "--family", "b", "--fix", "c=1")
        assert code == 2
        code, _, err = run(capsys, "sl2", "--family", "b", "--fix", "nonsense")
        assert code == 2
        code, _, err = run(capsys, "sl2", "--family", "ab", "--fix", "a=0,b=1")
        assert code == 2
        assert "error[ZeroParameterA]" in err

    @pytest.mark.parametrize(
        "family, fixes",
        [("b", ("b=1", "b=0")), ("ab", ("a=2,b=1,b=3",)), ("b", ("b=1, b =1",))],
    )
    def test_parameter_fixed_twice_is_rejected(self, capsys, family, fixes):
        argv = ["sl2", "--family", family]
        for item in fixes:
            argv += ["--fix", item]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]" in err and "twice" in err

    @pytest.mark.parametrize("family", ["b", "c", "ab"])
    @pytest.mark.parametrize("fix", ["tag=1", "cls=1", "b=1,tag=2"])
    def test_factory_argument_names_are_wrong_parameters(
        self, capsys, family, fix
    ):
        code, out, err = run(capsys, "sl2", "--family", family, "--fix", fix)
        assert code == 2
        assert out == ""
        assert f"error[InvalidInput]: family {family!r} needs values for" in err
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["b", "c", "ab"]),
        fixes=st.lists(st.tuples(_FIX_NAMES, _FIX_VALUES), min_size=1, max_size=3),
    )
    def test_fix_fuzz(self, family, fixes):
        argv = ["sl2", "--family", family, "--fix",
                ",".join(f"{name}={value}" for name, value in fixes)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert json.loads(out.getvalue())["fixed"]["dimension"] in (1, 3)
        else:
            assert code == 2
            assert out.getvalue() == ""
            match = re.match(r"gderive: error\[(\w+)\]: ", err.getvalue())
            assert match and match.group(1) in _ERROR_CODES

    def test_byte_identical_reruns(self, capsys):
        code, first, _ = run(capsys, "sl2", "--family", "c")
        assert code == 0
        code, second, _ = run(capsys, "sl2", "--family", "c")
        assert code == 0
        assert first == second


class TestReproduce:
    def test_full_table(self, capsys):
        report = run_json(capsys, "reproduce")
        assert report["all_ok"] is True
        rows = report["rows"]
        assert [row["key"] for row in rows] == sorted(
            [
                "thm5.1", "thm5.2", "thm5.3", "thm1.6", "cor5.10",
                "thm5.11", "thm5.12", "ex4.2", "ex4.6", "prop2.1",
                "thm1.3", "prop4.1", "rem3.7", "thm1.4",
            ]
        )
        assert all(row["ok"] for row in rows)
        discrepancies = {
            row["key"] for row in rows if row["status"] == "discrepancy"
        }
        assert discrepancies == {"cor5.10", "ex4.2", "thm5.11", "thm5.12"}
        confirmed = {row["key"] for row in rows if row["status"] == "confirmed"}
        assert len(confirmed) == 10

    def test_only_filter(self, capsys):
        report = run_json(capsys, "reproduce", "--only", "thm5.3")
        assert [row["key"] for row in report["rows"]] == ["thm5.3"]
        assert report["all_ok"] is True

    def test_thm53_checks_the_symbolic_two_parameter_grid(self, monkeypatch):
        entry = sl2.FAMILIES["ab"]
        wrong = entry["sigma"].replace(", -b^2;", ", -b^2 + 1;", 1)
        assert wrong != entry["sigma"]
        monkeypatch.setitem(entry, "sigma", wrong)
        assert reproduce.run(["thm5.3"])[0].ok is False

    def test_unknown_key(self, capsys):
        code, _, err = run(capsys, "reproduce", "--only", "nope")
        assert code == 2
        assert "error[InvalidInput]" in err

    @pytest.mark.parametrize("only", ["", ",", " , "])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_only_naming_no_key_is_rejected(self, capsys, only, fmt):
        code, out, err = run(capsys, "reproduce", "--only", only, "--format", fmt)
        assert code == 2
        assert out == ""
        assert "error[InvalidInput]" in err

    def test_text_table_always_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "reproduce", "--only", "rem3.7", "--format", "text"
        )
        assert code == 0
        assert "rem3.7" in out and "pass" in out


# sha256 of stdout for the sl2 case study and the reproduce table. The
# bytes are the specification: a refactor keeps them, and a change that
# alters them on purpose records the new digests here.
PINNED_STDOUT = {
    ("sl2", "--family", "b"):
        "66d8f462145dfd47aad577d8d516eb4783b3c23b30e3db622c1b48e3fa46130f",
    ("sl2", "--family", "b", "--format", "text"):
        "e1379482914881d283cd32992c6904088b42562b9abcf71129b5b99a0f3d8b51",
    ("sl2", "--family", "c"):
        "c96a6d7eb3275113ea3c1a18b847c5bd54d51bb59d6b49aa97d6ad76969dbea5",
    ("sl2", "--family", "c", "--format", "text"):
        "3a159f7f11afbd644c1f9c4389a4570c70dd39c23c83183baeeb64e79dd2c80b",
    ("sl2", "--family", "ab"):
        "702889c8e25546d6178f844ebdd5218f1f047dfd76f16212025df65fb106c61d",
    ("sl2", "--family", "ab", "--format", "text"):
        "0f748b374b140b934e8dda265e8b37636895e1ae03d5a122ed0021cd733634a0",
    ("sl2", "--family", "b", "--fix", "b=1"):
        "cf097a6d9c7bd227ae0785f99538e9e014fd7667e8e92cccab9a687f61a0c56d",
    ("sl2", "--family", "ab", "--fix", "a=2,b=1", "--format", "text"):
        "cbf0b532279d1500a86cf64fc7acf958bf8817c164d757395e718e52d2b562e8",
    ("sl2", "--family", "ab", "--fix", "a=2,b=1"):
        "3f585eb5483724122bb473042416720cb84abc1f9fb0403e272bc4115b2f7ec8",
    ("sl2", "--family", "c", "--fix", "c=-2"):
        "86a67f3a3bb28fe284b7db7eaf1775584175b5c70edd8e3240e5b1e0a65da4e4",
    ("sl2", "--family", "c", "--fix", "c=-2", "--format", "text"):
        "29f2c999aad4f6cdb68ca6c860c431ba7a9445c2456e929f76c659769ed02ae0",
    ("reproduce",):
        "f0c09c8ab1c52aa2c38753d0988358fe87fbe5ba16d1535f4989a69dd2461116",
    ("reproduce", "--format", "text"):
        "a5cbdd79442aef301323a7d55216aa2e680a3cd8196405f12d0fa60eafaa9ee3",
}


# The linear commands on built-in algebras. "@name" stands for a matrix
# file written from the literal grid in PINNED_SIGMAS, or an algebra file
# written from the literal document in PINNED_ALGEBRAS, so no library code
# makes the input.
PINNED_SIGMAS = {
    "sl2_b1": [["1", "1", "-1"], ["0", "1", "-2"], ["0", "0", "1"]],
    "sl2_c2": [["1", "0", "0"], ["-4", "1", "0"], ["-4", "2", "1"]],
    "heis_shear": [["1", "-1", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}

# A four-dimensional bracket table that fails the Jacobi identity on three
# triples, with fractional residuals.
PINNED_ALGEBRAS = {
    "broken": {
        "name": "broken",
        "dim": 4,
        "brackets": [
            {"left": 1, "right": 2, "result": [["1", 3]]},
            {"left": 1, "right": 3, "result": [["1", 4]]},
            {"left": 2, "right": 3, "result": [["1", 1]]},
            {"left": 2, "right": 4, "result": [["-1/2", 2]]},
        ],
    },
}

PINNED_LINEAR_STDOUT = {
    ("check", "--algebra", "sl2"):
        "8cacdd3bf123f79164e30894ac45db57d6725cf1d6d981ce6a128c5863e6aca0",
    ("check", "--algebra", "sl2", "--format", "text"):
        "241d8f2ab6310293381e798facb6c4c246bfc28e7376620d023233c33937702d",
    ("check", "--algebra", "@broken"):
        "23f6634f984aef7f1d8c9006024408275cf87b1900198ddacdc79a914551e018",
    ("check", "--algebra", "@broken", "--format", "text"):
        "63684ca6e967354ac411e1edea88fed45ce0d1ffdc84e88c7ab94416ce42ac0e",
    # sl2_b1 is a quasiderivation of sl2, and of the Heisenberg algebra it
    # is not.
    ("quasider", "--algebra", "sl2", "--map", "@sl2_b1"):
        "a0f4993166eb53a8263ca8b2c2d45b57a6a9ec52d3646bd6dccc6b494d449780",
    ("quasider", "--algebra", "sl2", "--map", "@sl2_b1", "--format", "text"):
        "e779905ba8701619cef555162b9324167c4f3989f8ad365b0b01b98eec5771ed",
    ("quasider", "--algebra", "heisenberg", "--map", "@sl2_b1"):
        "b6e28246801fc14c2387ea89bd7c793cd3fc237a458e177e9ca6b67c6dcdbd40",
    ("quasider", "--algebra", "heisenberg", "--map", "@sl2_b1", "--format",
     "text"):
        "796d5ebf18807266ff07ce3fa1933d93d6b0f550b76d0e4b63826816d6583fac",
    ("centroid", "--algebra", "sl2"):
        "c9eabca67b25ce81e029e2a183a5f2ea7418500cbd36d0abd9c881cb0809453c",
    ("centroid", "--algebra", "heisenberg"):
        "b6de82c1eeafd5509b5ad94661ecc9fee3a7917a8e0806e63426aefc8e8b8fbb",
    ("centroid", "--algebra", "example_4_6", "--format", "text"):
        "b793452ce042816cd9dfbeb8c221d908f7cdcb6ae9e8b78a9d95c0bb83513131",
    ("abg", "--algebra", "heisenberg", "--alpha", "2", "--beta", "1",
     "--gamma", "1"):
        "22b3b41b31c978b59a723618c091828c68d6e79c25eff0c05f71af41210fe403",
    ("abg", "--algebra", "sl2", "--alpha", "1/2", "--beta", "1",
     "--gamma=-1", "--format", "text"):
        "61d07ed8440b8ca06b24f264eee2ddd4436065d778fdcd260f41359651a3fc26",
    ("abg", "--algebra", "example_4_6", "--alpha", "2", "--beta", "1",
     "--gamma", "1"):
        "c20434488dfca2c7c034f320b99d73ce8a981fff7acecffa032f8aa464fa5c18",
    ("abg", "--algebra", "sl2", "--alpha", "1", "--beta", "1", "--gamma",
     "1", "--format", "text"):
        "d52f4469ed23b4ad5c690d529ca319a7630f7ec6da377eeb0d237915c9ae6056",
    ("derive", "--algebra", "sl2", "--sigma", "@sl2_b1", "--kind", "plus"):
        "43bc4f378315196e6228cd81328b4707a2f6aba28e4c7887dcc6f115e5c9ff8a",
    ("derive", "--algebra", "heisenberg", "--sigma", "@heis_shear", "--kind",
     "plus", "--format", "text"):
        "aaad95102e5d535831f294fe54a58c675f0f7e12e57e72decc9c31530746d10b",
    ("hilbert", "--algebra", "sl2", "--sigma", "@sl2_b1"):
        "5ddb3d857ab0d05195d96ea35e9f80c74308290946a768862bd3ce43c197c3ce",
    ("hilbert", "--algebra", "sl2", "--sigma", "@sl2_c2", "--kind", "plus",
     "--format", "text"):
        "d2cb46d4cc30cf11b1df06e410501fc7f37187bea2429dceea2e3fdb3535ce1a",
    ("hilbert", "--algebra", "heisenberg", "--sigma", "@heis_shear"):
        "36ae98680b55b8305bb349f90a48e2665e0b484d89091fd6c1a61aad4f535d4b",
    ("derive", "--algebra", "sl2", "--sigma", "@sl2_b1", "--tau", "@sl2_c2"):
        "014209e702895e0d95c8dfc582ebebffc3a57eeb1d9368eb15acdafdba88f4ce",
    ("derive", "--algebra", "heisenberg", "--sigma", "@heis_shear", "--tau",
     "@heis_shear", "--format", "text"):
        "b4c3e19a46edb8305e80dc58817a050e8c163aeeda1bcad9db78ec4f08819929",
    ("derive", "--algebra", "sl2", "--sigma", "@sl2_b1", "--kind", "minus",
     "--gens", "@sl2_c2"):
        "212473fc3b8aebe33ce2f5d864d246d5a4b087a8313b53e63bd4627a956b9a75",
    ("derive", "--algebra", "heisenberg", "--sigma", "@heis_shear", "--kind",
     "minus", "--gens", "@heis_shear"):
        "82820e13dccd399d89bd5d389c4f33515d4c1bec67187baa8d549efcb4f97c4a",
    ("intersect", "--algebra", "sl2", "--sigma", "@sl2_b1", "--tau",
     "@sl2_c2"):
        "aa550f5eea6b682b250066aa1b6f9a66213bd5094b781db795bfc4c0aee0d4cf",
    ("intersect", "--algebra", "sl2", "--sigma", "@sl2_b1", "--tau",
     "@sl2_c2", "--witness", "1,0,0"):
        "20bccf83426bf16996b1e3b40b63fb8ac3a9733290f049aa3167a45a10619ee0",
    ("intersect", "--algebra", "heisenberg", "--sigma", "@heis_shear",
     "--tau", "@heis_shear", "--witness", "0,1,0", "--format", "text"):
        "74f91db0fc5fbfff0572202a0483a2cc03e20d61e953f89b9b13e8ab045fcc18",
}

# Three dense quadrics in x, y, z (perfbench's dense_quadric_ideal drawn
# with random.Random(0)): a lex basis of degrees 7, 7 and 8 whose
# coefficients have about fifty digits, the heavy coefficient growth of
# the integer frame.
PINNED_QUADRICS = {
    "vars": ["x", "y", "z"],
    "gens": [
        "3*x^2 + 7*x*y + x*z + 4*x + 7*y^2 + 8*y*z - y - 8*z^2 + 5*z + 4",
        "x^2 - 5*x*y + 9*x*z - x - 6*y^2 - 5*y*z + y - 5*z^2 + 8*z - 3",
        "-3*x^2 + 2*x*y + 5*x*z + 3*x - 6*y^2 + 9*y*z + 7*y + 2*z^2 - 7*z - 6",
    ],
}
PINNED_QUADRICS_STDOUT = (
    "47421aec9969b023b39aa96bf1ff2621c795d92d9dc37de59287f94b7e0b5eed"
)

# The ideal queries. "@name" stands for an ideal file written from the
# literal document in PINNED_IDEALS; "zero" is the zero ideal.
PINNED_IDEALS = {
    "ideal": {"vars": ["x", "y"], "gens": ["x^2 - y", "x*y - x"]},
    "inner": {"vars": ["x", "y"], "gens": ["x^3 - x"]},
    "zero": {"vars": ["x", "y"], "gens": []},
    "linear": {"vars": ["x", "y", "z"], "gens": ["3*y - 2*z", "2*x + y*z^2"]},
}

PINNED_IDEAL_STDOUT = {
    ("member", "--ideal", "@ideal", "--poly", "x^3 - x"):
        "fd299085998863a31b07d3af8712b229b3bc9a8bc4474e787708a21a26b10d3e",
    ("member", "--ideal", "@ideal", "--poly", "x + 1", "--format", "text"):
        "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
    ("member", "--ideal", "@zero", "--poly", "x"):
        "5b0d2a07f0af845ec43d12d1cc7f12dac7b6b19fdb795e9689a59a03f00366ea",
    ("member", "--ideal", "@zero", "--poly", "0", "--format", "text"):
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ("contain", "--outer", "@ideal", "--inner", "@inner"):
        "fbbc861702acfa598247c32d2c947ee1372a7e0c05f3266e01e58e33c0139077",
    ("contain", "--outer", "@ideal", "--inner", "@inner", "--format", "text"):
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ("contain", "--outer", "@zero", "--inner", "@inner"):
        "51a388bd656ada7485b2d8f94576c044f9e95c9138c7915d41c0bfa78f65b7ad",
    ("contain", "--outer", "@ideal", "--inner", "@zero", "--format", "text"):
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ("prime-check", "--ideal", "@ideal"):
        "a52dcab0e145b833be6e060bed7ab5331eaee301f3d946634672b784103ed961",
    ("prime-check", "--ideal", "@linear"):
        "0f87cf42f7b4358bc813a8f7cec67a4b512b727cde958527d8a69cd0ea4421b6",
    ("prime-check", "--ideal", "@linear", "--format", "text"):
        "5baeb3017309452c45a851eaae359de813fbd258eefa2de3fe7baa759793f0db",
    ("prime-check", "--ideal", "@zero", "--format", "text"):
        "d24bce958ca331f41840b855245ac9116cf768c89b641aae9c5749c26f764a78",
    ("groebner", "--ideal", "@zero"):
        "1d8f308a583f03e920d18af6eb5c4e3be04aa12a98ab9bb1c29bd365d8225c8b",
    ("groebner", "--ideal", "@zero", "--format", "text"):
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
    def test_stdout_digest(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]

    @pytest.mark.parametrize("argv", list(PINNED_LINEAR_STDOUT), ids=" ".join)
    def test_linear_stdout_digest(self, capsys, tmp_path, argv):
        paths = {}
        for name, grid in PINNED_SIGMAS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": grid}))
            paths[f"@{name}"] = str(path)
        for name, doc in PINNED_ALGEBRAS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths[f"@{name}"] = str(path)
        code, out, _ = run(capsys, *(paths.get(a, a) for a in argv))
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == PINNED_LINEAR_STDOUT[argv]

    def test_groebner_quadrics_stdout_digest(self, capsys, tmp_path):
        path = tmp_path / "quadrics.json"
        path.write_text(json.dumps(PINNED_QUADRICS))
        code, out, _ = run(capsys, "groebner", "--ideal", str(path))
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == PINNED_QUADRICS_STDOUT

    @pytest.mark.parametrize("argv", list(PINNED_IDEAL_STDOUT), ids=" ".join)
    def test_ideal_stdout_digest(self, capsys, tmp_path, argv):
        paths = {}
        for name, doc in PINNED_IDEALS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths[f"@{name}"] = str(path)
        code, out, _ = run(capsys, *(paths.get(a, a) for a in argv))
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == PINNED_IDEAL_STDOUT[argv]


# The linear commands on abelian(0) and on the one-dimensional abelian(1),
# where every kernel runs over 0 or 1 columns. "@name" stands for a map
# file written from the literal grid in SMALLEST_MAPS.
SMALLEST_MAPS = {"id0": [], "id1": [["1"]], "neg1": [["-1"]], "half3": [["3/2"]]}
_EMPTY = {"basis": [], "dimension": 0}
_UNIT = {"basis": [{"cols": 1, "entries": [["1"]], "rows": 1}], "dimension": 1}

SMALLEST_STDOUT = [
    (("derive", "--algebra", "abelian(0)", "--sigma", "@id0"),
     {**_EMPTY, "kind": "plain"}),
    (("derive", "--algebra", "abelian(0)", "--sigma", "@id0", "--kind", "plus"),
     {**_EMPTY, "kind": "plus"}),
    (("centroid", "--algebra", "abelian(0)"), {**_EMPTY, "kind": "centroid"}),
    (("abg", "--algebra", "abelian(0)", "--alpha", "1", "--beta", "1",
      "--gamma", "1"),
     {**_EMPTY, "alpha": "1", "beta": "1", "gamma": "1", "kind": "abg(1,1,1)"}),
    (("intersect", "--algebra", "abelian(0)", "--sigma", "@id0", "--tau", "@id0"),
     {**_EMPTY, "witness": None, "witness_in_centralizer": None}),
    (("hilbert", "--algebra", "abelian(0)", "--sigma", "@id0"),
     {"dims": {"0": 0}, "finite_order": 1, "kind": "plain", "period": None,
      "series": "0", "window": 1}),
    (("quasider", "--algebra", "abelian(0)", "--map", "@id0"),
     {"quasiderivation": True,
      "witness": {"cols": 0, "entries": [], "rows": 0}}),
    (("derive", "--algebra", "abelian(1)", "--sigma", "@neg1"),
     {**_UNIT, "kind": "plain"}),
    (("derive", "--algebra", "abelian(1)", "--sigma", "@neg1", "--kind", "plus"),
     {**_UNIT, "kind": "plus"}),
    (("centroid", "--algebra", "abelian(1)"), {**_UNIT, "kind": "centroid"}),
    (("abg", "--algebra", "abelian(1)", "--alpha", "2", "--beta", "1",
      "--gamma", "1"),
     {**_UNIT, "alpha": "2", "beta": "1", "gamma": "1", "kind": "abg(2,1,1)"}),
    (("intersect", "--algebra", "abelian(1)", "--sigma", "@id1", "--tau",
      "@neg1", "--witness", "1"),
     {"basis": [["1"]], "dimension": 1, "witness": ["1"],
      "witness_in_centralizer": True}),
    (("hilbert", "--algebra", "abelian(1)", "--sigma", "@neg1"),
     {"dims": {"0": 1, "1": 1}, "finite_order": 2, "kind": "plain",
      "period": None, "series": "1 + t", "window": 2}),
    (("quasider", "--algebra", "abelian(1)", "--map", "@half3"),
     {"quasiderivation": True,
      "witness": {"cols": 1, "entries": [["0"]], "rows": 1}}),
]


class TestSmallestAlgebras:
    @pytest.mark.parametrize(
        "argv, report", SMALLEST_STDOUT, ids=[" ".join(a) for a, _ in SMALLEST_STDOUT]
    )
    def test_stdout(self, capsys, tmp_path, argv, report):
        paths = {}
        for name, grid in SMALLEST_MAPS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"rows": len(grid), "cols": len(grid),
                                        "entries": grid}))
            paths[f"@{name}"] = str(path)
        code, out, _ = run(capsys, *(paths.get(a, a) for a in argv))
        assert code == 0
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "check", "--algebra", "sl2", "--bogus")[0] == 2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gderive.cli", "check", "--algebra", "sl2"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True


def _child_env(**extra) -> dict:
    """Environment for a fresh interpreter that imports the same gderive as
    this process, installed or found through pytest's pythonpath setting."""
    package_root = str(Path(gderive.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    pythonpath = os.pathsep.join(filter(None, paths))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def _modules_after(code: str) -> set:
    """The modules loaded in a fresh interpreter after running `code`."""
    script = code + "\nimport sys\nsys.stderr.write('\\n' + ' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


# sha256 of the help text at 80 columns, as Python 3.11's argparse lays it
# out; the defaults and bounds shown come from gderive.limits.
PINNED_HELP = {
    ("--help",):
        "524ff151a27772e72080dd067c1f6828397b99ff746f2393a2a16164a2acd7f6",
    ("check", "--help"):
        "3da3d0ce7c89eb1d7c1485c579e4d027e236947827995a4dc90af97d0b6e950e",
    ("derive", "--help"):
        "3bc446e6728c869ef7b3b83f9004c53480657e7b30c67c31e6488a82f06b3c1e",
    ("centroid", "--help"):
        "a761b9d5de29497cfc7667680684fe2605b06e613ddf813cc20dd932b4b51c35",
    ("quasider", "--help"):
        "d7d311eb42b786bc568ba1f9e4fb96f738aa2a982a8a7c28f38530c24a45e7c9",
    ("abg", "--help"):
        "f3d0f0740af1eb418ff39628cfe7d2c868993c3a8655836fcf2393fbc88878be",
    ("intersect", "--help"):
        "e2ef64b2aff4a8ab4731da33f58fb0f48e401243df7848e78494aac90090685e",
    ("hilbert", "--help"):
        "054bf9f962f9c6c1c6a08e96e9a5c1e4e85480eba5fa0ffb0adfcdc9d15304a0",
    ("groebner", "--help"):
        "582d4e8c0fa99f39f364d85a4163e29d5da6ed8fb01a3464c51243a94d9bab7e",
    ("member", "--help"):
        "aa6c90c435ab0f48ac904b9f9cb0b6ecf3da4e1e98398ee01a2720bd64186f14",
    ("contain", "--help"):
        "e294f49aec419dd5dab0db36c73a8631efc5a6f1092fadecd75d2abc8dd278aa",
    ("prime-check", "--help"):
        "6bc6a9256a42aeaa29dcf9b56664dd94c0fc47efa8b8934887fc697031d5c5c5",
    ("sl2", "--help"):
        "10371ca17a7e078f2d666d02bd87ad07f8cf15109b7bb7524e2ea5b1c3263b4c",
    ("reproduce", "--help"):
        "dce4014cc0a9a8b9c21113bf7a8d7c2f91fa09a41bac4985e9353283f5d75707",
}

# sha256 of stderr for three usage errors, which exit 2 before any handler
# runs: an unknown subcommand, an unrecognised argument and a missing
# required argument. Laid out like PINNED_HELP.
PINNED_USAGE_ERRORS = {
    ("deriv",):
        "41650a05ac69834d91bf305185235bdd6ff423993dba9fdce83f3fc5a37189fa",
    ("sl2", "--family", "b", "--report"):
        "fd638ab64bcf231e2a3eac9497397e630c1d09345a8890be251d270468ed35a9",
    ("derive", "--sigma", "s.json"):
        "9450fce859f4a2a375a531a52f94fe2c93e9fade751bfde2fd980833d26db78b",
}


class TestStartup:
    """Building the parser loads no engine, no handler module and no
    `json`, a subcommand loads only its own family of handlers and the
    engines it runs, no run loads `dataclasses` or `inspect`, and
    `reproduce` loads no process pool or `pickle`."""

    def test_parser_loads_no_engine(self):
        loaded = _modules_after("import gderive.cli; gderive.cli.build_parser()")
        assert {m for m in loaded if m.partition(".")[0] == "gderive"} == {
            "gderive", "gderive.cli", "gderive.errors", "gderive.limits",
        }
        assert not loaded & {
            "json", "fractions", "dataclasses", "inspect", "gderive.record",
        }

    # Every linear subcommand, the `ladder` benchmark's among them. "{name}"
    # stands for the fixture file of that name.
    @pytest.mark.parametrize("argv", [
        ["check", "--algebra", "sl2"],
        ["derive", "--algebra", "sl2", "--sigma", "{sigma}"],
        ["centroid", "--algebra", "sl2"],
        ["abg", "--algebra", "heisenberg", "--alpha", "2", "--beta", "1",
         "--gamma", "1"],
        ["quasider", "--algebra", "heisenberg", "--map", "{projection}"],
        ["intersect", "--algebra", "sl2", "--sigma", "{sigma}", "--tau",
         "{identity}"],
        ["hilbert", "--algebra", "sl2", "--sigma", "{sigma}"],
    ], ids=["check", "derive", "centroid", "abg", "quasider", "intersect",
            "hilbert"])
    def test_linear_subcommand_footprint(self, files, argv):
        argv = [files[a[1:-1]] if a.startswith("{") else a for a in argv]
        loaded = _modules_after(
            f"from gderive.cli import main\nassert main({argv!r}) == 0"
        )
        assert {"gderive.algebra", "gderive.cli_linear"} <= loaded
        unused = {
            "gderive.polynomials", "gderive.sl2", "gderive.reproduce",
            "gderive.cli_ideals", "dataclasses", "inspect",
        }
        if argv[0] != "hilbert":
            unused.add("gderive.hilbert")
        assert not loaded & unused

    @pytest.mark.parametrize("argv", [
        ["groebner", "--ideal", "{ideal}"],
        ["sl2", "--family", "b"],
    ], ids=["groebner", "sl2"])
    def test_ideal_subcommand_footprint(self, files, argv):
        argv = [files[a[1:-1]] if a.startswith("{") else a for a in argv]
        loaded = _modules_after(
            f"from gderive.cli import main\nassert main({argv!r}) == 0"
        )
        assert {"gderive.polynomials", "gderive.cli_ideals"} <= loaded
        assert not loaded & {
            "gderive.cli_linear", "gderive.reproduce", "dataclasses", "inspect",
        }

    def test_reproduce_footprint(self):
        loaded = _modules_after(
            "from gderive.cli import main\nassert main(['reproduce']) == 0"
        )
        assert {"gderive.reproduce", "gderive.cli_ideals"} <= loaded
        # The workers use only os and json: a process pool would cost
        # about as much to import as the workers save.
        assert not loaded & {
            "gderive.cli_linear", "dataclasses", "inspect", "multiprocessing",
            "concurrent.futures", "pickle",
        }

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="argparse lays out help differently in other Python versions",
    )
    @pytest.mark.parametrize("argv", list(PINNED_HELP), ids=" ".join)
    def test_help_digest(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gderive.cli", *argv],
            capture_output=True,
            env=_child_env(COLUMNS="80"),
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_HELP[argv]

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="argparse words usage errors differently in other Python versions",
    )
    @pytest.mark.parametrize("argv", list(PINNED_USAGE_ERRORS), ids=" ".join)
    def test_usage_error_digest(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gderive.cli", *argv],
            capture_output=True,
            env=_child_env(COLUMNS="80"),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        digest = hashlib.sha256(proc.stderr).hexdigest()
        assert digest == PINNED_USAGE_ERRORS[argv]
