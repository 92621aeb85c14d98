"""Frozen value records.

A record class lists its fields as class annotations, in order;
:class:`Record` reads them once, when the class is made. Instances take
exactly their fields, by position, and trust them: the checks a value
needs live in the named factory it enters through (``Matrix.from_rows``,
``make_algebra``, ``Sl2Family.fixed`` ...). Instances compare equal only
to instances of the same class with equal fields, hash as the tuple of
their fields, print as ``Name(field=value, ...)`` and refuse assignment
and deletion. They keep a ``__dict__``, so a ``functools.cached_property``
member (which writes to the instance dict directly) still works.

The base generates no code: it reads the field list once per class and
runs the same few methods for every record, so defining the records
costs no start-up time in a command-line run.
"""

from __future__ import annotations


class Record:
    """Base of the immutable records; subclasses only annotate fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} fields, "
                f"got {len(values)}"
            )
        self.__dict__.update(zip(fields, values))

    def _values(self) -> tuple:
        get = self.__dict__.__getitem__
        return tuple(map(get, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot delete {name!r}"
        )
