"""Word-level expression IR.

Every node carries a result width.  Semantics are two-valued and
unsigned; all values are Python ints masked to their width.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass


def mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class Expr:
    width: int


@dataclass(frozen=True)
class BV(Expr):
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value & mask(self.width))


@dataclass(frozen=True)
class Ref(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class Op(Expr):
    """Operator node, hash-consed.

    ops: not neg and or xor add sub mul shl shr eq ult ule
         redor redand redxor mux concat slice
    slice carries (hi, lo) in params; concat args are msb-first.

    Nodes are built only through the constructors below (`unop`,
    `binop`, `mux`, `concat`, `slice_`), which intern them, so two
    structurally equal nodes are one object: equality and hashing are
    identity, and cost O(1) however much the DAG shares.  The intern
    table is not locked; one thread builds IR at a time.
    """
    op: str
    args: tuple[Expr, ...]
    params: tuple[int, ...] = ()

    __eq__ = object.__eq__
    __hash__ = object.__hash__


# Every live Op by (width, op, args, params).  Args hash by identity
# (Op) or by value (BV, Ref), so a key hashes in O(arity).
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _op(width: int, op: str, args: tuple[Expr, ...],
        params: tuple[int, ...] = ()) -> Op:
    key = (width, op, args, params)
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = Op(width, op, args, params)
    return node


# --------------------------------------------------------------------------
# Constructors with light constant folding

def _const(e: Expr) -> int | None:
    return e.value if isinstance(e, BV) else None


def unop(op: str, a: Expr, width: int | None = None) -> Expr:
    if width is None:
        width = 1 if op.startswith("red") else a.width
    v = _const(a)
    if v is not None:
        return BV(width, eval_op(op, (v,), (a.width,), ()))
    return _op(width, op, (a,))


def binop(op: str, a: Expr, b: Expr, width: int | None = None) -> Expr:
    if width is None:
        width = 1 if op in ("eq", "ult", "ule") else max(a.width, b.width)
    va, vb = _const(a), _const(b)
    if va is not None and vb is not None:
        return BV(width, eval_op(op, (va, vb), (a.width, b.width), ()))
    return _op(width, op, (a, b))


def mux(cond: Expr, then: Expr, other: Expr) -> Expr:
    assert cond.width == 1 and then.width == other.width
    c = _const(cond)
    if c is not None:
        return then if c else other
    if then == other:
        return then
    return _op(then.width, "mux", (cond, then, other))


def concat(parts: tuple[Expr, ...]) -> Expr:
    """parts are msb-first."""
    w = sum(p.width for p in parts)
    if all(isinstance(p, BV) for p in parts):
        return BV(w, eval_op("concat", [p.value for p in parts],
                             [p.width for p in parts], ()))
    return _op(w, "concat", tuple(parts))


def slice_(a: Expr, hi: int, lo: int) -> Expr:
    w = hi - lo + 1
    v = _const(a)
    if v is not None:
        return BV(w, v >> lo)
    if lo == 0 and hi == a.width - 1:
        return a
    return _op(w, "slice", (a,), (hi, lo))


def resize(a: Expr, width: int) -> Expr:
    """Zero-extend or truncate to `width`."""
    if a.width == width:
        return a
    if a.width > width:
        return slice_(a, width - 1, 0)
    v = _const(a)
    if v is not None:
        return BV(width, v)
    return concat((BV(width - a.width, 0), a))

def boolify(a: Expr) -> Expr:
    return a if a.width == 1 else unop("redor", a)


def lognot(a: Expr) -> Expr:
    return unop("not", boolify(a))


# --------------------------------------------------------------------------
# Evaluation

def eval_op(op: str, vals: Sequence[int], widths: Sequence[int],
            params: tuple[int, ...]) -> int:
    if op == "not":
        return ~vals[0] & mask(widths[0])
    if op == "neg":
        return -vals[0] & mask(widths[0])
    if op == "and":
        return vals[0] & vals[1]
    if op == "or":
        return vals[0] | vals[1]
    if op == "xor":
        return vals[0] ^ vals[1]
    if op == "add":
        return (vals[0] + vals[1]) & mask(max(widths))
    if op == "sub":
        return (vals[0] - vals[1]) & mask(max(widths))
    if op == "mul":
        return (vals[0] * vals[1]) & mask(max(widths))
    if op == "shl":
        sh = vals[1]
        if sh >= widths[0]:
            return 0
        return (vals[0] << sh) & mask(widths[0])
    if op == "shr":
        return vals[0] >> vals[1]
    if op == "eq":
        return int(vals[0] == vals[1])
    if op == "ult":
        return int(vals[0] < vals[1])
    if op == "ule":
        return int(vals[0] <= vals[1])
    if op == "redor":
        return int(vals[0] != 0)
    if op == "redand":
        return int(vals[0] == mask(widths[0]))
    if op == "redxor":
        return bin(vals[0]).count("1") & 1
    if op == "slice":
        hi, lo = params
        return (vals[0] >> lo) & mask(hi - lo + 1)
    if op == "mux":
        return vals[1] if vals[0] else vals[2]
    if op == "concat":
        v = 0
        for x, w in zip(vals, widths):
            v = (v << w) | x
        return v
    raise ValueError(f"unknown op {op!r}")


def fold(e: Expr, leaf, node, memo: dict | None = None):
    """Fold the DAG under `e` in post-order: `leaf(x)` values a BV or
    Ref, and `node(op, vals)` an Op from its args' values.

    `memo` maps each Op folded so far to its value, so `node` runs once
    per distinct Op; share it only between folds with the same `leaf`
    and `node`.  Args are visited in order, but a concat's lsb first:
    the `node` calls number a blasted AIG's nodes.  The walk keeps its
    own stack, so no depth reaches the interpreter's recursion limit.
    """
    if not isinstance(e, Op):
        return leaf(e)
    if memo is None:
        memo = {}
    # (op, True) folds op, whose args are done; (op, False) first
    # pushes it so, then its args above it, the first to visit on top
    stack = [(e, False)]
    while stack:
        top, ready = stack.pop()
        if ready:
            memo[top] = node(top, [memo[a] if isinstance(a, Op) else leaf(a)
                                   for a in top.args])
        elif top not in memo:
            stack.append((top, True))
            args = top.args if top.op == "concat" else reversed(top.args)
            stack.extend((a, False) for a in args
                         if isinstance(a, Op) and a not in memo)
    return memo[e]


def eval_expr(e: Expr, env, memo: dict[Op, int] | None = None) -> int:
    """Evaluate with `env` mapping names to int values.

    Share one memo only between calls over the same env.
    """
    def leaf(x: Expr) -> int:
        return x.value if isinstance(x, BV) else env[x.name]

    return fold(e, leaf, lambda op, vals: eval_op(
        op.op, vals, tuple(a.width for a in op.args), op.params), memo)


def substitute(e: Expr, env: dict[str, int],
               memo: dict[Op, Expr] | None = None) -> Expr:
    """Partially evaluate: replace named refs with constants and fold.

    Share one memo only between calls over the same env.
    """
    def leaf(x: Expr) -> Expr:
        if isinstance(x, Ref) and x.name in env:
            return BV(x.width, env[x.name])
        return x

    return fold(e, leaf, _rebuild, memo)


def _rebuild(e: Op, args: list[Expr]) -> Expr:
    """`e` over new args, through the folding constructors."""
    if e.op == "mux":
        return mux(*args)
    if e.op == "concat":
        return concat(tuple(args))
    if e.op == "slice":
        return slice_(args[0], *e.params)
    if len(args) == 1:
        return unop(e.op, args[0], e.width)
    return binop(e.op, args[0], args[1], e.width)


def refs(e: Expr) -> set[str]:
    """The names `e` reads, visiting each shared node once."""
    acc: set[str] = set()
    seen: set[Op] = set()
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Ref):
            acc.add(e.name)
        elif isinstance(e, Op) and e not in seen:
            seen.add(e)
            stack.extend(e.args)
    return acc
