"""Frozen records: the package's immutable value types.

A record is a ``__slots__`` class whose instances compare, hash and print
by their field values.  Records stand in for frozen dataclasses, whose
module import and per-class processing took most of the time of importing
the package.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of an immutable value type.

    A subclass names its fields, in order, in ``_fields`` and lists them in
    ``__slots__`` (with any slots that are not fields, such as caches), and
    its ``__init__`` sets each slot with ``object.__setattr__``.  Instances
    compare equal when they are of the same class and their field tuples are
    equal, hash as their field tuple, print as ``Name(field=value, ...)``
    and refuse assignment.  They pickle and copy by their fields, which
    `dataclasses.asdict` needs for a record held in a dataclass.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Equality and hashing read the fields inline, as dataclasses do.
        # The first evaluation of every new FuncSpec hashes its body for the
        # code memo, and a loop over ``_fields`` hashed a tree four times
        # more slowly.
        mine = "".join(f"self.{name}, " for name in cls._fields)
        theirs = "".join(f"other.{name}, " for name in cls._fields)
        namespace: dict = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n",
            {},
            namespace,
        )
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]
        cls.__match_args__ = cls._fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def as_dict(self) -> dict:
        """The fields as a dict, in field order."""
        return {name: getattr(self, name) for name in self._fields}
