"""`Node`, an immutable record that generates no code at import.

A subclass declares its fields as annotations, each with an optional
default, and `Node` gives it the behaviour of `@dataclass(frozen=True)`
through methods that all classes share: a constructor that takes the
fields positionally or by keyword, read-only attributes, a
`Class(field=value, ...)` repr, and equality and hashing over the
fields.  A `dataclass` compiles its methods from strings in every
process, bytecode cache or not; this base compiles nothing.  The AST
nodes and the frontend's, properties' and catalog's frozen records
derive from it.
"""

from __future__ import annotations


class Node:
    """Base of an immutable record.  Each subclass gets `_fields` (every
    field, its bases' first, in declaration order), `_defaults` (field ->
    default value) and `_compared` (the fields that equality and hashing
    read: all but those named in `_uncompared`, by default `line`)."""

    _fields = _compared = ()
    _defaults = {}
    _uncompared = ("line",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, defaults = {}, {}
        for base in reversed(cls.__mro__):
            own = base.__dict__
            for name in own.get("__annotations__", ()):
                fields[name] = None
                if name in own:
                    defaults[name] = own[name]
        cls._fields = tuple(fields)
        cls._defaults = defaults
        cls._compared = tuple(f for f in fields
                              if f not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value from a call's arguments, bound as a
        dataclass constructor binds them."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        rest = fields[len(args):]
        extra = kwargs.keys() - set(rest)
        if extra:
            raise TypeError(f"{name}() got an unexpected or repeated "
                            f"argument {min(extra)!r}")
        values = list(args)
        for f in rest:
            if f in kwargs:
                values.append(kwargs[f])
            elif f in cls._defaults:
                values.append(cls._defaults[f])
            else:
                raise TypeError(f"{name}() missing required argument {f!r}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        d = self.__dict__
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={d[f]!r}" for f in self._fields) + ")")


def replace(node: Node, **changes) -> Node:
    """`node` with the fields named in `changes` set to new values, as
    `dataclasses.replace` gives it."""
    d = node.__dict__
    return type(node)(*[changes.pop(f, d[f]) for f in node._fields],
                      **changes)
