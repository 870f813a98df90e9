"""AST for the SystemVerilog subset.

Every node class derives from `Node` (`svsec.node`), an immutable
record that behaves as `@dataclass(frozen=True)` without generating
code at import.  A class declares its fields as annotations, each with
an optional default.  Nodes carry source locations (`line`) where a
downstream diagnostic may need to point at them.  Equality deliberately
ignores locations so that round-trip tests can compare trees.
"""

from __future__ import annotations

from svsec.node import Node, replace


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


def walk(e: Expr):
    """`e` and every expression under it in pre-order, on a stack of its
    own: an operator chain may be thousands of nodes deep."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack += reversed(children(e))


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
