"""The three step evaluators agree: the tape that replays traces, the
generated code of `compile_stepper` that the oracle runs, and
`simulate_step`.  A falsified check runs on the tape alone."""

from __future__ import annotations

import random
import sys

import pytest

from svsec.check import check_design
from svsec.engine.induction import k_induction
from svsec.engine.oracle import OracleRefused, explicit_state_oracle
from svsec.frontend import parse_source
from svsec.ir import expr as ex
from svsec.ir.elaborate import elaborate
from svsec.ir.transition import (StateVar, TransitionSystem, compile_stepper,
                                 simulate_step)
from svsec.props import compile_obligation, parse_property

from test_search_golden import GOLDEN, _check

FALSIFIED = [n for n, g in GOLDEN.items() if g[0] == "falsified"]


def _obligation(name: str):
    source, top, prop = _check(name)
    ts = elaborate(parse_source(source)[0], top)[0]
    return compile_obligation(parse_property(prop, ts)[0], ts)


def _interpreted(ts: TransitionSystem, state, inputs):
    """One step through `ex.eval_expr`, a define at a time."""
    env = dict(zip([s.name for s in ts.states], state))
    env.update(zip([n for n, _ in ts.inputs], inputs))
    memo: dict = {}
    for n, e in ts.defines:
        env[n] = ex.eval_expr(e, env, memo)
    return tuple(ex.eval_expr(ts.next[s.name], env, memo)
                 for s in ts.states), env


def _assert_agree(ts: TransitionSystem, state, inputs):
    """All evaluators take one step alike; returns (next state, env)."""
    nxt, env = ts.tape.step(state, inputs)
    assert compile_stepper(ts)(tuple(state), tuple(inputs)) == (nxt, env)
    assert _interpreted(ts, state, inputs) == (nxt, env)
    names = [s.name for s in ts.states]
    sim_nxt, outs = simulate_step(ts, dict(zip(names, state)),
                                  dict(zip([n for n, _ in ts.inputs], inputs)))
    assert sim_nxt == dict(zip(names, nxt))
    assert outs == {n: env[n] for n in ts.outputs}
    return nxt, env


def test_table_holds_the_catalog_and_deep_counterexamples():
    assert len(FALSIFIED) == 34
    assert sum(n.startswith("leak") for n in FALSIFIED) == 4


@pytest.mark.parametrize("name", FALSIFIED)
def test_evaluators_agree_on_every_cycle_of_a_counterexample(name):
    obl = _obligation(name)
    verdict = k_induction(obl, max_k=32)
    ts, trace = obl.augmented, verdict.trace
    assert len(trace.inputs) == GOLDEN[name][2] + 1
    state = tuple(trace.states[0][s.name] for s in ts.states)
    for t, vals in enumerate(trace.inputs):
        assert trace.states[t] == dict(zip([s.name for s in ts.states], state))
        state, env = _assert_agree(ts, state,
                                   tuple(vals[n] for n, _ in ts.inputs))
        assert trace.values[t] == env
    assert trace.values[-1][obl.bad_name] == 1


def _doc_ops() -> list[str]:
    """The operators `ex.Op` documents."""
    doc = ex.Op.__doc__
    return doc[doc.index("ops:") + 4:doc.index("slice carries")].split()


def _one_op(rng: random.Random, op: str, a: ex.Ref, b: ex.Ref,
            c: ex.Ref) -> ex.Expr:
    if op in ("not", "neg", "redor", "redand", "redxor"):
        return ex.unop(op, a)
    if op in ("shl", "shr"):
        # as elaboration builds shifts: the result is as wide as `a`
        return ex.binop(op, a, b, width=a.width)
    if op == "mux":
        return ex.mux(ex.Ref(1, "s"), a, ex.Ref(a.width, "a2"))
    if op == "concat":
        return ex.concat((a, b, c)[:rng.randint(2, 3)])
    if op == "slice":
        lo = rng.randrange(a.width)
        return ex.slice_(a, rng.randrange(lo, a.width), lo)
    if op in ("add", "sub", "mul", "and", "or", "xor", "eq", "ult", "ule"):
        return ex.binop(op, a, ex.Ref(a.width, "a2") if rng.random() < 0.5
                        else b)
    raise AssertionError(op)


@pytest.mark.parametrize("op", _doc_ops())
def test_evaluators_agree_on_one_op_systems(op):
    rng = random.Random(op)
    for _ in range(30):
        wa, wb, wc = (rng.randint(1, 9) for _ in range(3))
        a, b, c = ex.Ref(wa, "a"), ex.Ref(wb, "b"), ex.Ref(wc, "c")
        e = _one_op(rng, op, a, b, c)
        # a slice of all of `a` is `a` itself
        assert e is a or (isinstance(e, ex.Op) and e.op == op)
        inputs = [("a", wa), ("a2", wa), ("b", wb), ("c", wc), ("s", 1)]
        # the node feeds both a define and a register's next state
        ts = TransitionSystem(
            inputs=inputs, states=[StateVar("r", e.width, 0)],
            next={"r": e}, defines=[("out", e)], outputs=["out", "r"])
        state = (rng.getrandbits(e.width),)
        for _ in range(8):
            ins = tuple(rng.getrandbits(w) for _, w in inputs)
            state, _ = _assert_agree(ts, state, ins)


def test_a_falsified_check_compiles_no_code(monkeypatch):
    def compile_stepper(ts):
        raise AssertionError("a check compiled a step function")

    # in every module but the oracle's, which alone may generate code
    patched = [name for name, module in list(sys.modules.items())
               if name.startswith("svsec.") and name != "svsec.engine.oracle"
               and hasattr(module, "compile_stepper")]
    assert patched == ["svsec.ir.transition"]
    monkeypatch.setattr(sys.modules["svsec.ir.transition"], "compile_stepper",
                        compile_stepper)
    verdict = check_design(*_check("cwe1302_advanced_vulnerable"))
    assert (verdict.status, verdict.depth, verdict.culprit_line) == \
        ("falsified", 5, 21)
    checked = 0
    for name in FALSIFIED:
        try:
            result = explicit_state_oracle(_obligation(name))
        except OracleRefused:
            continue
        checked += 1
        assert result.min_depth == GOLDEN[name][2], name
    assert checked == 19
