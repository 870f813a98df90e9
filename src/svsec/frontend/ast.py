"""AST for the SystemVerilog subset.

Nodes are plain dataclasses with source locations where a downstream
diagnostic may need to point at them.  Structural equality deliberately
ignores locations so that round-trip tests can compare trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


# --------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Number(Expr):
    """Integer literal.  width is None for unsized forms."""
    value: int
    width: int | None = None
    base: str | None = None  # 'b, 'h, 'd, 'o as written, for printing


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # ~ ! - + & | ^
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class RangeSelect(Expr):
    base: Expr
    msb: Expr
    lsb: Expr


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class Replicate(Expr):
    count: Expr
    value: Expr


@dataclass(frozen=True)
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

@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class LValue:
    """Assignment target: name with optional index/part select."""
    name: str
    index: Expr | None = None
    msb: Expr | None = None
    lsb: Expr | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Assign(Stmt):
    target: LValue
    value: Expr
    nonblocking: bool
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...]


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Stmt | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CaseItem:
    patterns: tuple[Expr, ...]  # empty tuple = default
    body: Stmt


@dataclass(frozen=True)
class Case(Stmt):
    kind: str  # case | casez
    subject: Expr
    items: tuple[CaseItem, ...]
    line: int = field(default=0, compare=False)


# --------------------------------------------------------------------------
# Module items

@dataclass(frozen=True)
class EdgeEvent:
    edge: str  # posedge | negedge
    signal: str


@dataclass(frozen=True)
class AlwaysBlock(Stmt):
    kind: str  # always_ff | always_comb | always
    # None = combinational (@* or always_comb); otherwise edge list
    sensitivity: tuple[EdgeEvent, ...] | None
    body: Stmt
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ContinuousAssign:
    target: LValue
    value: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PortConn:
    port: str
    expr: Expr | None


@dataclass(frozen=True)
class Instance:
    module: str
    name: str
    conns: tuple[PortConn, ...]
    param_overrides: tuple[tuple[str, Expr], ...] = ()
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NetDecl:
    """Variable/net declaration, possibly an unpacked array."""
    name: str
    net_kind: str  # logic | reg | wire | bit | integer
    msb: Expr | None  # packed range; None = 1-bit scalar
    lsb: Expr | None
    unpacked: tuple[Expr, Expr] | None = None  # [lo:hi] bounds as written
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ParamDecl:
    name: str
    value: Expr
    local: bool
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # input | output | inout
    net_kind: str
    msb: Expr | None
    lsb: Expr | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    ports: tuple[Port, ...]
    params: tuple[ParamDecl, ...]
    decls: tuple[NetDecl, ...]
    assigns: tuple[ContinuousAssign, ...]
    always_blocks: tuple[AlwaysBlock, ...]
    instances: tuple[Instance, ...]
    # Original item order for faithful printing: ('decl'|'param'|'assign'|'always'|'inst', idx)
    item_order: tuple[tuple[str, int], ...] = field(default=(), compare=False)
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SourceUnit:
    modules: tuple[ModuleDecl, ...]

    def module(self, name: str) -> ModuleDecl:
        for m in self.modules:
            if m.name == name:
                return m
        raise KeyError(name)
