"""Word-level expression IR.

Every node carries a result width.  Semantics are two-valued and
unsigned; all values are Python ints masked to their width.
"""

from __future__ import annotations

import weakref
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
        v = 0
        for p in parts:
            v = (v << p.width) | p.value
        return BV(w, v)
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

def eval_op(op: str, vals: tuple[int, ...], widths: tuple[int, ...],
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
    raise ValueError(f"unknown op {op!r}")


def eval_expr(e: Expr, env, memo: dict[Op, int] | None = None) -> int:
    """Evaluate with `env` mapping names to int values.

    Expressions are DAGs; `memo` maps each operator node evaluated so
    far to its value.  Share one memo only between calls over the same
    env.
    """
    if isinstance(e, BV):
        return e.value
    if isinstance(e, Ref):
        return env[e.name]
    if memo is None:
        memo = {}
    v = memo.get(e)
    if v is not None:
        return v
    if e.op == "mux":
        c = eval_expr(e.args[0], env, memo)
        v = eval_expr(e.args[1] if c else e.args[2], env, memo)
    elif e.op == "concat":
        v = 0
        for p in e.args:
            v = (v << p.width) | eval_expr(p, env, memo)
    else:
        vals = tuple(eval_expr(a, env, memo) for a in e.args)
        v = eval_op(e.op, vals, tuple(a.width for a in e.args), e.params)
    memo[e] = v
    return v


def substitute(e: Expr, env: dict[str, int],
               memo: dict[Op, Expr] | None = None) -> Expr:
    """Partially evaluate: replace named refs with constants and fold.

    `memo` maps each operator node done so far to its result, so a node
    the DAG shares is folded once.
    """
    if isinstance(e, BV):
        return e
    if isinstance(e, Ref):
        if e.name in env:
            return BV(e.width, env[e.name])
        return e
    if memo is None:
        memo = {}
    out = memo.get(e)
    if out is not None:
        return out
    args = tuple(substitute(a, env, memo) for a in e.args)
    if e.op == "mux":
        out = mux(args[0], args[1], args[2])
    elif e.op == "concat":
        out = concat(args)
    elif e.op == "slice":
        out = slice_(args[0], e.params[0], e.params[1])
    elif len(args) == 1:
        out = unop(e.op, args[0], e.width)
    else:
        out = binop(e.op, args[0], args[1], e.width)
    memo[e] = out
    return out


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
