"""The frozen value records: construction, equality, hashing, repr,
immutability and cached members, for every record class."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gderive import algebra, derivations, hilbert, linalg, polynomials, reproduce, sl2
from gderive.algebra import builtin
from gderive.errors import InputError
from gderive.linalg import Matrix
from gderive.polynomials import poly_from_string
from gderive.record import Record
from gderive.sl2 import Sl2Family

ENGINES = (algebra, derivations, hilbert, linalg, polynomials, reproduce, sl2)
RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__qualname__)


def _fields(cls) -> tuple:
    return tuple(cls.__annotations__)


def _values(cls) -> tuple:
    """Field values for a sample instance; records check nothing but
    Sl2Family's tag and values."""
    if cls is Sl2Family:
        return ("b", None)
    return tuple(f"{name}-0" for name in _fields(cls))


def _variants(cls):
    """Value tuples that differ from _values(cls) in one field each."""
    if cls is Sl2Family:
        return [("c", None), ("b", {"b": Fraction(2)})]
    base = _values(cls)
    return [base[:i] + (f"{base[i]}'",) + base[i + 1:] for i in range(len(base))]


def test_every_annotated_engine_class_is_a_record():
    for module in ENGINES:
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and obj.__dict__.get("__annotations__")
            ):
                assert issubclass(obj, Record), obj.__qualname__
    assert len(RECORDS) == len(set(RECORDS)) >= 19


def test_only_records_define_value_methods():
    # A second mechanism for immutable values (slots, an assignment guard,
    # an equality or a hash of its own) belongs in a Record instead.
    value_methods = {"__slots__", "__setattr__", "__delattr__", "__eq__", "__hash__"}
    classes = [
        obj
        for module in ENGINES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    assert len(classes) >= len(RECORDS)
    for cls in classes:
        own = sorted(value_methods & vars(cls).keys())
        assert not own or issubclass(cls, Record), (cls.__qualname__, own)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestEveryRecord:
    def test_fields_positional_and_keyword(self, cls):
        values = _values(cls)
        r = cls(*values)
        assert tuple(getattr(r, name) for name in _fields(cls)) == values
        assert cls(**dict(zip(_fields(cls), values))) == r

    def test_equality_and_hash_follow_the_field_tuple(self, cls):
        values = _values(cls)
        r, twin = cls(*values), cls(*values)
        assert r is not twin
        assert r == twin and not r != twin
        assert hash(r) == hash(twin) == hash(values)
        for other in _variants(cls):
            assert r != cls(*other)

    def test_never_equal_to_another_class(self, cls):
        values = _values(cls)
        r = cls(*values)
        assert r != values
        for other_cls in RECORDS:
            if other_cls is cls or len(_fields(other_cls)) != len(values):
                continue
            try:
                other = other_cls(*values)
            except InputError:
                continue
            assert r != other and other != r

    def test_assignment_and_deletion_raise(self, cls):
        values = _values(cls)
        r = cls(*values)
        for name in _fields(cls):
            with pytest.raises(AttributeError):
                setattr(r, name, "changed")
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.not_a_field = 1
        assert tuple(getattr(r, name) for name in _fields(cls)) == values

    def test_defaults_and_argument_errors(self, cls):
        fields = _fields(cls)
        values = _values(cls)
        required = [name for name in fields if name not in vars(cls)]
        r = cls(*values[: len(required)])
        for name in fields[len(required):]:
            assert getattr(r, name) == vars(cls)[name]
        with pytest.raises(TypeError):
            cls(*values, "one too many")
        with pytest.raises(TypeError):
            cls(*values[:-1], not_a_field=1)
        if required:
            with pytest.raises(TypeError):
                cls(*values[: len(required) - 1])


@pytest.mark.parametrize(
    "cls",
    [cls for cls in RECORDS if "__repr__" not in vars(cls)],
    ids=lambda cls: cls.__qualname__,
)
def test_repr_names_each_field(cls):
    r = cls(*_values(cls))
    shown = ", ".join(f"{name}={getattr(r, name)!r}" for name in _fields(cls))
    assert repr(r) == f"{cls.__qualname__}({shown})"


def test_unhashable_field_makes_an_unhashable_record():
    with pytest.raises(TypeError):
        hash(builtin("sl2"))


def test_sl2_family_checks_its_tag():
    with pytest.raises(InputError):
        Sl2Family("zz")
    with pytest.raises(InputError):
        Sl2Family("b", {"c": Fraction(1)})


def test_cached_property_computed_once_per_instance(monkeypatch):
    calls = []
    real_square_maps = derivations.square_maps

    def counting_square_maps(rows, n):
        calls.append(rows)
        return real_square_maps(rows, n)

    monkeypatch.setattr(derivations, "square_maps", counting_square_maps)
    space = derivations.derivation_space(builtin("sl2"), Matrix.identity(3))
    first = space.basis
    assert space.basis is first
    assert len(calls) == 1
    assert first == real_square_maps(space.subspace.rows, 3) and len(first) == 3
    twin = derivations.DerivationSpace(space.kind, space.subspace)
    assert twin == space
    assert twin.basis == first
    assert len(calls) == 2

    p = poly_from_string(("x", "y"), "2*x*y - 4*y")
    assert p._divisor_frame is p._divisor_frame
