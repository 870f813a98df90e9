"""Word-level expression IR.

Every node carries a result width.  Semantics are two-valued and
unsigned; all values are Python ints masked to their width.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Op(Expr):
    """Operator node.

    ops: not neg and or xor add sub mul shl shr eq ult ule
         redor redand redxor mux concat slice
    slice carries (hi, lo) in params; concat args are msb-first.
    """
    op: str
    args: tuple[Expr, ...]
    params: tuple[int, ...] = ()


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
    return Op(width, op, (a,))


def binop(op: str, a: Expr, b: Expr, width: int | None = None) -> Expr:
    if width is None:
        width = 1 if op in ("eq", "ult", "ule") else max(a.width, b.width)
    va, vb = _const(a), _const(b)
    if va is not None and vb is not None:
        return BV(width, eval_op(op, (va, vb), (a.width, b.width), ()))
    return Op(width, op, (a, b))


def mux(cond: Expr, then: Expr, other: Expr) -> Expr:
    assert cond.width == 1 and then.width == other.width
    c = _const(cond)
    if c is not None:
        return then if c else other
    if then == other:
        return then
    return Op(then.width, "mux", (cond, then, other))


def concat(parts: tuple[Expr, ...]) -> Expr:
    """parts are msb-first."""
    w = sum(p.width for p in parts)
    if all(isinstance(p, BV) for p in parts):
        v = 0
        for p in parts:
            v = (v << p.width) | p.value
        return BV(w, v)
    return Op(w, "concat", tuple(parts))


def slice_(a: Expr, hi: int, lo: int) -> Expr:
    w = hi - lo + 1
    v = _const(a)
    if v is not None:
        return BV(w, v >> lo)
    if lo == 0 and hi == a.width - 1:
        return a
    return Op(w, "slice", (a,), (hi, lo))


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


def eval_expr(e: Expr, env) -> int:
    """Evaluate with `env` mapping names to int values."""
    if isinstance(e, BV):
        return e.value
    if isinstance(e, Ref):
        return env[e.name]
    assert isinstance(e, Op)
    if e.op == "mux":
        c = eval_expr(e.args[0], env)
        return eval_expr(e.args[1] if c else e.args[2], env)
    if e.op == "concat":
        v = 0
        for p in e.args:
            v = (v << p.width) | eval_expr(p, env)
        return v
    vals = tuple(eval_expr(a, env) for a in e.args)
    widths = tuple(a.width for a in e.args)
    return eval_op(e.op, vals, widths, e.params)


def substitute(e: Expr, env: dict[str, int]) -> Expr:
    """Partially evaluate: replace named refs with constants and fold."""
    if isinstance(e, BV):
        return e
    if isinstance(e, Ref):
        if e.name in env:
            return BV(e.width, env[e.name])
        return e
    assert isinstance(e, Op)
    args = tuple(substitute(a, env) for a in e.args)
    if e.op == "mux":
        return mux(args[0], args[1], args[2])
    if e.op == "concat":
        return concat(args)
    if e.op == "slice":
        return slice_(args[0], e.params[0], e.params[1])
    if len(args) == 1:
        return unop(e.op, args[0], e.width)
    return binop(e.op, args[0], args[1], e.width)


def refs(e: Expr, acc: set[str] | None = None) -> set[str]:
    if acc is None:
        acc = set()
    if isinstance(e, Ref):
        acc.add(e.name)
    elif isinstance(e, Op):
        for a in e.args:
            refs(a, acc)
    return acc
