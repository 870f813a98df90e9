"""Word-level expression IR.

Every node carries a result width.  Semantics are two-valued and
unsigned; all values are Python ints masked to their width.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from functools import partial


def mask(width: int) -> int:
    return (1 << width) - 1


class Expr:
    """Base of the IR nodes: immutable records on `__slots__`, which
    generate no code at import and read faster than an instance dict.

    No field can be set once a node is built.  A leaf (`BV`, `Ref`)
    compares, hashes and prints by its fields, as a frozen dataclass
    does; an `Op` compares and hashes by identity.
    """
    __slots__ = ("width",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# The constructors store each field through its slot's setter, which
# `__setattr__` above would refuse: elaboration builds nodes by the
# thousand.
_set_width = Expr.width.__set__


class BV(Expr):
    __slots__ = ("value",)

    def __init__(self, width: int, value: int):
        _set_width(self, width)
        _set_value(self, value & ((1 << width) - 1))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.width, self.value) == (other.width, other.value)
        return NotImplemented

    def __hash__(self):
        return hash((self.width, self.value))

    def __repr__(self):
        return (f"{type(self).__qualname__}(width={self.width!r}, "
                f"value={self.value!r})")


class Ref(Expr):
    __slots__ = ("name",)

    def __init__(self, width: int, name: str):
        _set_width(self, width)
        _set_name(self, name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.width, self.name) == (other.width, other.name)
        return NotImplemented

    def __hash__(self):
        return hash((self.width, self.name))

    def __repr__(self):
        return (f"{type(self).__qualname__}(width={self.width!r}, "
                f"name={self.name!r})")


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
    # `__weakref__`: the intern table holds each node weakly
    __slots__ = ("op", "args", "params", "__weakref__")

    def __init__(self, width: int, op: str, args: tuple[Expr, ...],
                 params: tuple[int, ...] = ()):
        _set_width(self, width)
        _set_op(self, op)
        _set_args(self, args)
        _set_params(self, params)

    def __repr__(self):
        return (f"{type(self).__qualname__}(width={self.width!r}, "
                f"op={self.op!r}, args={self.args!r}, "
                f"params={self.params!r})")


_set_value = BV.value.__set__
_set_name = Ref.name.__set__
_set_op = Op.op.__set__
_set_args = Op.args.__set__
_set_params = Op.params.__set__


# Every live Op by (width, op, args, params), held through a weak
# reference whose callback drops the entry when the node dies.  Args
# hash by identity (Op) or by value (BV, Ref), so a key hashes in
# O(arity).
_interned: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, ref: weakref.ref, table=_interned) -> None:
    # `table` is bound here, so a node that dies at interpreter exit,
    # after the module's globals are gone, still finds it
    if table.get(key) is ref:
        del table[key]


def _op(width: int, op: str, args: tuple[Expr, ...],
        params: tuple[int, ...] = ()) -> Op:
    key = (width, op, args, params)
    ref = _interned.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = Op(width, op, args, params)
    _interned[key] = weakref.ref(node, partial(_forget, key))
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


_ARGS_DONE = object()  # on `fold`'s stack: the op below has its args


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
    # An op first pushes itself and _ARGS_DONE, then its args above
    # them, the first to visit on top; once _ARGS_DONE comes off, the
    # op below it is folded.
    stack = [e]
    while stack:
        top = stack.pop()
        if top is _ARGS_DONE:
            top = stack.pop()
            memo[top] = node(top, [memo[a] if isinstance(a, Op) else leaf(a)
                                   for a in top.args])
        elif top not in memo:
            stack += (top, _ARGS_DONE)
            args = top.args if top.op == "concat" else reversed(top.args)
            stack += [a for a in args if isinstance(a, Op) and a not in memo]
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


_PENDING = object()  # a node `known_value` has yet to value


def known_value(e: Expr, env: dict[str, int],
                memo: dict[Op, int | None] | None = None) -> int | None:
    """The value of the BV that `substitute(e, env)` folds to, or None
    when it folds to anything else; builds no node.

    A node is known when all its args are, and a mux also when its
    condition is, or when both arms have the same known value: the
    folds that `substitute`'s constructors make.  A mux whose condition
    is known values only the arm it picks, so a register's reset arm is
    read without its other arms.  The walk keeps its own stack, like
    `fold`.  Share one memo only between calls over the same env.
    """
    if memo is None:
        memo = {}
    stack: list[Op] = []

    def value(x: Expr):
        """x's value, or _PENDING after pushing x to be valued."""
        if isinstance(x, Op):
            v = memo.get(x, _PENDING)
            if v is _PENDING:
                stack.append(x)
            return v
        if isinstance(x, BV):
            return x.value
        v = env.get(x.name)
        return None if v is None else v & ((1 << x.width) - 1)

    result = value(e)
    while stack:
        top = stack[-1]
        if top in memo:  # pushed twice, and valued since
            stack.pop()
            continue
        args = top.args
        if top.op == "mux":
            c = value(args[0])
            if c is _PENDING:
                continue
            if c is not None:
                v = value(args[1] if c else args[2])
            else:
                then, other = value(args[1]), value(args[2])
                if then is _PENDING or other is _PENDING:
                    continue
                v = then if then == other else None
            if v is _PENDING:
                continue
        else:
            vals = [value(a) for a in args]
            if _PENDING in vals:
                continue
            v = None if None in vals else eval_op(
                top.op, vals, [a.width for a in args],
                top.params) & ((1 << top.width) - 1)
        memo[top] = v
        stack.pop()
    return memo[e] if result is _PENDING else result


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


def refs(*es: Expr) -> set[str]:
    """The names the expressions read, visiting each shared node once."""
    acc: set[str] = set()
    seen: set[Op] = set()
    stack = list(es)
    while stack:
        e = stack.pop()
        if isinstance(e, Ref):
            acc.add(e.name)
        elif isinstance(e, Op) and e not in seen:
            seen.add(e)
            stack.extend(e.args)
    return acc
