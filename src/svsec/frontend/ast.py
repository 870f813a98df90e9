"""AST for the SystemVerilog subset.

Every node class derives from `Node`, an immutable record.  A class
declares its fields as annotations, each with an optional default, and
`Node` gives it the behaviour of `@dataclass(frozen=True)` through
methods that all classes share, so no code is generated at import: a
constructor that takes the fields positionally or by keyword, read-only
attributes, a `Class(field=value, ...)` repr, and equality and hashing
over the fields.  Nodes carry source locations (`line`) where a
downstream diagnostic may need to point at them.  Equality deliberately
ignores locations so that round-trip tests can compare trees.
"""

from __future__ import annotations


class Node:
    """Base of every AST node.  Each subclass gets `_fields` (every
    field, its bases' first, in declaration order), `_defaults` (field ->
    default value) and `_compared` (the fields that equality and hashing
    read: all but `line`)."""

    _fields = _compared = ()
    _defaults = {}

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
        cls._compared = tuple(f for f in fields if f != "line")

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


# --------------------------------------------------------------------------
# Expressions

class Expr(Node):
    pass


class Number(Expr):
    """Integer literal.  width is None for unsized forms."""
    value: int
    width: int | None = None
    base: str | None = None  # 'b, 'h, 'd, 'o as written, for printing


class Ident(Expr):
    name: str


class Unary(Expr):
    op: str  # ~ ! - + & | ^
    operand: Expr


class Binary(Expr):
    op: str
    left: Expr
    right: Expr


class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


class Index(Expr):
    base: Expr
    index: Expr


class RangeSelect(Expr):
    base: Expr
    msb: Expr
    lsb: Expr


class Concat(Expr):
    parts: tuple[Expr, ...]


class Replicate(Expr):
    count: Expr
    value: Expr


class SysCall(Expr):
    """$-prefixed call such as $past(x, 2).

    Only meaningful inside property text; the elaborator rejects it in
    module context.
    """
    name: str
    args: tuple[Expr, ...]


# Sub-expression fields of each node class; a tuple field holds several.
_SUBEXPRS: dict[type, tuple[str, ...]] = {
    Unary: ("operand",),
    Binary: ("left", "right"),
    Ternary: ("cond", "then", "other"),
    Index: ("base", "index"),
    RangeSelect: ("base", "msb", "lsb"),
    Concat: ("parts",),
    Replicate: ("count", "value"),
    SysCall: ("args",),
}


def children(e: Expr) -> list[Expr]:
    """The direct sub-expressions of `e`, in field order."""
    out: list[Expr] = []
    for name in _SUBEXPRS.get(type(e), ()):
        sub = getattr(e, name)
        if isinstance(sub, tuple):
            out.extend(sub)
        else:
            out.append(sub)
    return out


def map_children(e: Expr, fn) -> Expr:
    """`e` with each direct sub-expression replaced by `fn` of it; `e`
    itself when `fn` returns every sub-expression unchanged."""
    changed = {}
    for name in _SUBEXPRS.get(type(e), ()):
        sub = getattr(e, name)
        if isinstance(sub, tuple):
            new = tuple(fn(s) for s in sub)
            if any(a is not b for a, b in zip(new, sub)):
                changed[name] = new
        else:
            new = fn(sub)
            if new is not sub:
                changed[name] = new
    return replace(e, **changed) if changed else e


# --------------------------------------------------------------------------
# Statements

class Stmt(Node):
    pass


class LValue(Node):
    """Assignment target: name with optional index/part select."""
    name: str
    index: Expr | None = None
    msb: Expr | None = None
    lsb: Expr | None = None
    line: int = 0


class Assign(Stmt):
    target: LValue
    value: Expr
    nonblocking: bool
    line: int = 0


class Block(Stmt):
    stmts: tuple[Stmt, ...]


class If(Stmt):
    cond: Expr
    then: Stmt
    other: Stmt | None
    line: int = 0


class CaseItem(Node):
    patterns: tuple[Expr, ...]  # empty tuple = default
    body: Stmt


class Case(Stmt):
    kind: str  # case | casez
    subject: Expr
    items: tuple[CaseItem, ...]
    line: int = 0


# --------------------------------------------------------------------------
# Module items

class EdgeEvent(Node):
    edge: str  # posedge | negedge
    signal: str


class AlwaysBlock(Stmt):
    kind: str  # always_ff | always_comb | always
    # None = combinational (@* or always_comb); otherwise edge list
    sensitivity: tuple[EdgeEvent, ...] | None
    body: Stmt
    line: int = 0


class ContinuousAssign(Node):
    target: LValue
    value: Expr
    line: int = 0


class PortConn(Node):
    port: str
    expr: Expr | None


class Instance(Node):
    module: str
    name: str
    conns: tuple[PortConn, ...]
    param_overrides: tuple[tuple[str, Expr], ...] = ()
    line: int = 0


class NetDecl(Node):
    """Variable/net declaration, possibly an unpacked array."""
    name: str
    net_kind: str  # logic | reg | wire | bit | byte | int | integer
    msb: Expr | None  # packed range; None = the width of net_kind (1 bit for most)
    lsb: Expr | None
    unpacked: tuple[Expr, Expr] | None = None  # [lo:hi] bounds as written
    line: int = 0


class ParamDecl(Node):
    name: str
    value: Expr
    local: bool
    line: int = 0


class Port(Node):
    name: str
    direction: str  # input | output | inout
    net_kind: str
    msb: Expr | None
    lsb: Expr | None
    line: int = 0


ModuleItem = ParamDecl | NetDecl | ContinuousAssign | AlwaysBlock | Instance


class ModuleDecl(Node):
    name: str
    ports: tuple[Port, ...]
    params: tuple[ParamDecl, ...]  # the header's #(...) list
    items: tuple[ModuleItem, ...]  # the body, in source order
    line: int = 0


class SourceUnit(Node):
    modules: tuple[ModuleDecl, ...]
