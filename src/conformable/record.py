"""Frozen records: the package's immutable value types.

A record class lists its fields as annotated class attributes, in order,
each with an optional default.  Where it needs them it adds a
``_check(self)`` validator, run once the fields are set, and a
``__slots__`` tuple of slots that are not fields, such as caches, which
start as None.  The base derives ``__slots__``, ``_fields``, ``__init__``,
``__eq__`` and ``__hash__`` from that declaration.
"""

from __future__ import annotations

__all__ = ["Record"]


def _build(cls: type, method: str):
    """Compile `method` for record class `cls` and install it on the class."""
    fields = cls._fields
    # Equality and hashing read the fields inline: `verify`'s results table
    # hashes its FuncSpec keys on each of its 5,184 lookups a run, and a loop
    # over ``_fields`` hashed a registry FuncSpec several times more slowly.
    mine = "".join(f"self.{name}, " for name in fields)
    if method == "__init__":
        params = "".join(
            f", {name}=_defaults[{name!r}]" if name in cls._defaults else f", {name}"
            for name in fields
        )
        # Each slot is set through its own descriptor, which is faster than
        # object.__setattr__.
        lines = [f"_set_{name}(self, {name})" for name in fields]
        lines += [f"_set_{name}(self, None)" for name in cls.__slots__[len(fields):]]
        if hasattr(cls, "_check"):
            lines.append("_check(self)")
        source = f"def __init__(self{params}):\n" + "".join(
            f"    {line}\n" for line in lines or ["pass"]
        )
    elif method == "__eq__":
        theirs = "".join(f"other.{name}, " for name in fields)
        source = (
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
        )
    else:
        source = f"def __hash__(self):\n    return hash(({mine}))\n"
    namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in cls.__slots__}
    namespace.update(_defaults=cls._defaults, _check=getattr(cls, "_check", None))
    exec(source, namespace)
    setattr(cls, method, namespace[method])
    return namespace[method]


def _stub(method: str):
    def stub(self, *args, **kwargs):
        return _build(type(self), method)(self, *args, **kwargs)

    return stub


class _Declared(type):
    """Metaclass of `Record`: reads the declaration of a record class."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["_fields"] = fields
        namespace["__slots__"] = fields + tuple(namespace.get("__slots__", ()))
        # Each generated method is compiled on its first call for the class,
        # so a class pays only for what it uses: compiling them all at class
        # creation made the package import a tenth slower.
        for method in ("__init__", "__eq__", "__hash__"):
            namespace.setdefault(method, _stub(method))
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_Declared):
    """Base of an immutable value type.

    A subclass derives from Record directly and declares its fields as
    above.  Instances compare equal when they are of the same class and
    their field tuples are equal, hash as their field tuple, print as
    ``Name(field=value, ...)`` and refuse assignment and deletion.  They
    pickle and copy by their fields.
    """

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
