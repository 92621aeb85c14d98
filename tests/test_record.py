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
    """Field values for a sample instance; records check none."""
    return tuple(f"{name}-0" for name in _fields(cls))


def _variants(cls):
    """Value tuples that differ from _values(cls) in one field each."""
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
    assert len(RECORDS) == len(set(RECORDS)) >= 16


def test_only_records_define_value_methods():
    # A second mechanism for immutable values (slots or an assignment
    # guard of its own) belongs in a Record instead.
    value_methods = {"__slots__", "__setattr__", "__delattr__"}
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


def test_only_record_compares_hashes_and_checks():
    # Every record compares and hashes as its field tuple, and a check
    # belongs in a named factory, not in a hook the constructor runs.
    assert not hasattr(Record, "__post_init__")
    for module in ENGINES:
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                own = {"__eq__", "__hash__", "__post_init__"} & vars(obj).keys()
                assert not own, (obj.__qualname__, sorted(own))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestEveryRecord:
    def test_fields_positional_and_keyword(self, cls):
        # Fields are taken by position only.
        fields, values = _fields(cls), _values(cls)
        r = cls(*values)
        assert tuple(getattr(r, name) for name in fields) == values
        with pytest.raises(TypeError):
            cls(**dict(zip(fields, values)))
        with pytest.raises(TypeError):
            cls(*values[:-1], **{fields[-1]: values[-1]})

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
            other = other_cls(*values)
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
        # No field has a default: a class attribute named like a field
        # would only shadow it, and every value is passed.
        fields, values = _fields(cls), _values(cls)
        assert not set(fields) & vars(cls).keys()
        for wrong in ((), values[:-1], values + ("one too many",)):
            with pytest.raises(TypeError):
                cls(*wrong)
        with pytest.raises(TypeError):
            cls(*values, not_a_field=1)


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
        Sl2Family.symbolic("zz")
    with pytest.raises(InputError):
        Sl2Family.fixed("zz", b=1)
    with pytest.raises(InputError):
        Sl2Family.fixed("b", c=1)
    assert Sl2Family.fixed("b", b=2) == Sl2Family("b", {"b": Fraction(2)})


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
    twin = derivations.DerivationSpace(space.subspace)
    assert twin == space
    assert twin.basis == first
    assert len(calls) == 2

    p = poly_from_string(("x", "y"), "2*x*y - 4*y")
    assert p._divisor_frame is p._divisor_frame
