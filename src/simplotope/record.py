"""Immutable records that check their fields when they are built.

A Record subclass names its fields in `__slots__`, checks its arguments in
`__init__` and stores them with `object.__setattr__`.  After that no field
can be set or deleted, and equality, hashing and repr go by the fields, in
order, between records of the same class: what `@dataclass(frozen=True)`
generates.  The `dataclasses` module is not used because importing it
pulls in `inspect`, and building each class executes generated code, which
together cost a short command 15–20 ms of its start-up.  Records with
nothing to check are `typing.NamedTuple`s instead.
"""

from __future__ import annotations

import operator


class Record:
    """Base of an immutable record with the fields named in `__slots__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of the fields, hashed as a dataclass hashes it
        get = operator.attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
