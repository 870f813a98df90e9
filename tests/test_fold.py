"""One DAG fold lowers the IR four ways: evaluation, partial evaluation,
bit-blasting and Python codegen.  On random DAGs that share subterms
the four must agree, and each distinct node must be folded once.  The
reset reader `known_value` must give the constant that partial
evaluation folds to, and None where it folds to none."""

from __future__ import annotations

import dataclasses
import random
import sys
from collections import Counter

import pytest

from svsec.engine.aig import Aig, blast_expr
from svsec.ir import expr as ex
from svsec.ir.transition import TransitionSystem, compile_stepper

from conftest import compile_ts
from test_search_golden import GOLDEN, _check

UNARY = ("not", "neg", "redor", "redand", "redxor")
BINARY = ("and", "or", "xor", "add", "sub", "mul", "eq", "ult", "ule")
SHIFTS = ("shl", "shr")
MAX_WIDTH = 12


def _random_dag(rng: random.Random, inputs: list[tuple[str, int]],
                n_ops: int) -> ex.Expr:
    """An expression over `inputs` built from `n_ops` random nodes, each
    reading earlier ones, so later nodes share the terms they read."""
    pool: list[ex.Expr] = [ex.Ref(w, n) for n, w in inputs]
    pool.append(ex.BV(rng.randint(1, 6), rng.getrandbits(6)))
    for _ in range(n_ops):
        x, y, z = (rng.choice(pool) for _ in range(3))
        kind = rng.choice(UNARY + BINARY + SHIFTS
                          + ("mux", "concat", "slice"))
        if kind in UNARY:
            e = ex.unop(kind, x)
        elif kind in SHIFTS:
            e = ex.binop(kind, x, y, width=x.width)
        elif kind in BINARY:
            w = max(x.width, y.width)
            e = ex.binop(kind, ex.resize(x, w), ex.resize(y, w))
        elif kind == "mux":
            e = ex.mux(ex.boolify(x), y, ex.resize(z, y.width))
        elif kind == "concat":
            e = ex.concat((x, y, z)[:rng.randint(2, 3)])
        else:
            e = x
        if kind == "slice" or e.width > MAX_WIDTH:
            lo = rng.randrange(e.width)
            hi = rng.randrange(lo, min(e.width, lo + MAX_WIDTH))
            e = ex.slice_(e, hi, lo)
        pool.append(e)
    return ex.concat(tuple(pool[-3:]))


def _ops(e: ex.Expr) -> set[ex.Op]:
    seen: set[ex.Op] = set()
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, ex.Op) and e not in seen:
            seen.add(e)
            stack.extend(e.args)
    return seen


def _blasted_value(e: ex.Expr, inputs, env: dict[str, int]) -> int:
    aig = Aig()
    buses = {n: aig.bus_input(w) for n, w in inputs}
    bus = blast_expr(aig, e, buses)
    values = {lit: (env[n] >> i) & 1
              for n, b in buses.items() for i, lit in enumerate(b)}
    return sum(bit << i for i, bit in enumerate(aig.evaluate(values,
                                                             list(bus))))


def _stepped_value(e: ex.Expr, inputs, env: dict[str, int]) -> int:
    ts = TransitionSystem(inputs=list(inputs), states=[], next={},
                          defines=[("out", e)], outputs=["out"])
    _, values = compile_stepper(ts)((), tuple(env[n] for n, _ in inputs))
    return values["out"]


@pytest.mark.parametrize("seed", range(40))
def test_four_lowerings_agree_on_random_dags(seed):
    rng = random.Random(seed)
    inputs = [(f"i{k}", rng.randint(1, 8)) for k in range(rng.randint(1, 4))]
    e = _random_dag(rng, inputs, rng.randint(5, 40))
    for _ in range(4):
        env = {n: rng.getrandbits(w) for n, w in inputs}
        want = ex.eval_expr(e, env)
        assert _blasted_value(e, inputs, env) == want
        assert _stepped_value(e, inputs, env) == want
        folded = ex.substitute(e, env)
        assert isinstance(folded, ex.BV)
        assert ex.eval_expr(folded, {}) == want


@pytest.mark.parametrize("seed", range(10))
def test_fold_calls_node_once_per_distinct_op(seed):
    rng = random.Random(seed)
    e = _random_dag(rng, [("a", 4), ("b", 3)], 60)
    calls: Counter = Counter()

    def node(op, vals):
        calls[op] += 1
        return 0

    ex.fold(e, lambda leaf: 0, node)
    assert set(calls) == _ops(e)
    assert set(calls.values()) == {1}


def test_fold_visits_concat_parts_lsb_first():
    # blasting numbers AIG nodes in this order
    hi = ex.unop("not", ex.Ref(2, "a"))
    lo = ex.unop("neg", ex.Ref(2, "b"))
    cat = ex.concat((hi, lo))
    order: list[ex.Op] = []

    def node(op, vals):
        order.append(op)
        return op

    ex.fold(cat, lambda leaf: leaf, node)
    assert order == [lo, hi, cat]


def test_fold_depth_is_not_bounded_by_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    e: ex.Expr = ex.Ref(1, "x")
    for i in range(n):
        e = ex.binop("xor", e, ex.Ref(1, f"y{i % 4}"))
    env = {"x": 1, "y0": 1, "y1": 0, "y2": 1, "y3": 1}
    want = (1 + sum(env[f"y{i % 4}"] for i in range(n))) & 1
    assert ex.eval_expr(e, env) == want
    assert ex.substitute(e, env) == ex.BV(1, want)
    assert ex.known_value(e, env) == want


# ------------------------------------- the reset reader against substitute

def _substituted_value(e: ex.Expr, env: dict[str, int]) -> int | None:
    folded = ex.substitute(e, env)
    return folded.value if isinstance(folded, ex.BV) else None


@pytest.mark.parametrize("seed", range(40))
def test_known_value_is_the_constant_substitute_folds_to(seed):
    # A random system of four registers, whose next states share one
    # memo, as an always block's do.  At every node of their DAGs, under
    # an env that fixes some of the inputs (to values wider than the
    # inputs, which a leaf masks): where substitute folds the node to a
    # BV, known_value gives its value, and None everywhere else.
    rng = random.Random(seed)
    inputs = [(f"i{k}", rng.randint(1, 8)) for k in range(rng.randint(1, 4))]
    env = {n: rng.getrandbits(w + 2) for n, w in inputs if rng.random() < 0.6}
    memo: dict = {}
    folded = 0
    for _ in range(4):
        e = _random_dag(rng, inputs, rng.randint(5, 40))
        for node in [e, *_ops(e)]:
            want = _substituted_value(node, env)
            folded += want is not None
            assert ex.known_value(node, env) == want
            assert ex.known_value(node, env, memo) == want
    if len(env) == len(inputs):
        assert folded


def test_known_value_picks_a_mux_arm_by_its_condition():
    a, b = ex.Ref(4, "a"), ex.Ref(4, "b")
    picked = ex.mux(ex.Ref(1, "r"), ex.BV(4, 3), ex.binop("add", a, b))
    assert ex.known_value(picked, {"r": 1}) == 3
    assert ex.known_value(picked, {"r": 0}) is None
    same = ex.mux(ex.Ref(1, "c"), ex.binop("add", ex.BV(4, 1), a),
                  ex.BV(4, 6))
    assert ex.known_value(same, {"a": 5}) == 6  # both arms 6, c unknown
    assert ex.known_value(same, {"a": 4}) is None


def test_known_value_is_the_reset_of_every_pinned_register(monkeypatch):
    # Elaboration reads each register's reset value with known_value;
    # each such read must give what substitute folds its next state to.
    reads = []
    real = ex.known_value

    def spy(e, env, memo=None):
        value = real(e, env, memo)
        reads.append((e, dict(env), value))
        return value

    monkeypatch.setattr(ex, "known_value", spy)
    registers = 0
    for name in GOLDEN:
        source, top, _ = _check(name)
        ts, _ = compile_ts(source, top)
        registers += len(ts.states)
    assert len(reads) == registers
    for e, env, value in reads:
        assert value == _substituted_value(e, env)
    assert sum(value is not None for _, _, value in reads) > registers // 2


def test_ir_nodes_keep_their_frozen_dataclass_behaviour():
    """A leaf compares, hashes and prints as a frozen dataclass with the
    same fields; an Op is interned and compares by identity; no field
    of any node can be set or deleted."""
    rng = random.Random(7)
    for cls, field, pool in ((ex.BV, "value", range(4)),
                             (ex.Ref, "name", "ab")):
        twin = dataclasses.make_dataclass(cls.__name__,
                                          ["width", field], frozen=True)
        for _ in range(50):
            (wa, va), (wb, vb) = [(rng.randint(1, 2), rng.choice(pool))
                                  for _ in range(2)]
            a, b = cls(wa, va), cls(wb, vb)
            ta = twin(wa, getattr(a, field))
            tb = twin(wb, getattr(b, field))
            assert (a == b, a != b) == (ta == tb, ta != tb)
            assert hash(a) == hash(ta) and repr(a) == repr(ta)
            assert a != ta
    assert ex.BV(2, 7).value == 3
    r = ex.Ref(4, "a")
    op = ex.binop("add", r, ex.Ref(4, "b"))
    assert op is ex.binop("add", ex.Ref(4, "a"), ex.Ref(4, "b"))
    assert op != ex.binop("add", r, ex.Ref(4, "c"))
    assert repr(op) == ("Op(width=4, op='add', args=(Ref(width=4, name='a'), "
                        "Ref(width=4, name='b')), params=())")
    for node in (ex.BV(1, 0), r, op):
        for name in ("width", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, 1)
            with pytest.raises(AttributeError):
                delattr(node, name)
