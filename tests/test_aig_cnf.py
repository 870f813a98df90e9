from __future__ import annotations

from itertools import product

from hypothesis import given, settings, strategies as st

from svsec.engine.aig import Aig, FALSE, TRUE, blast_expr
from svsec.engine.cnf import TseitinEncoder, parse_dimacs, to_cnf
from svsec.engine.sat import SAT, UNSAT, solve
from svsec.ir import expr as ex
from svsec.ir.expr import eval_expr, mask


def test_and_gate_simplifications():
    aig = Aig()
    a, b = aig.new_input(), aig.new_input()
    assert aig.land(a, FALSE) == FALSE
    assert aig.land(a, TRUE) == a
    assert aig.land(a, a) == a
    assert aig.land(a, a ^ 1) == FALSE
    # structural hashing: same fanins give the same node either way round
    assert aig.land(a, b) == aig.land(b, a)
    n = len(aig.nodes)
    aig.land(a, b)
    assert len(aig.nodes) == n


WORD_OPS = ["and", "or", "xor", "add", "sub", "mul"]
PRED_OPS = ["eq", "ult", "ule"]
RED_OPS = ["redor", "redand", "redxor"]


@settings(deadline=None, max_examples=120)
@given(op=st.sampled_from(WORD_OPS + PRED_OPS + ["shl", "shr"]),
       width=st.integers(1, 6), a=st.integers(0, 63), b=st.integers(0, 63))
def test_bus_ops_match_word_semantics(op, width, a, b):
    a, b = a & mask(width), b & mask(width)
    out_w = 1 if op in PRED_OPS else width
    e = ex.binop(op, ex.Ref(width, "a"), ex.Ref(width, "b"))
    expect = eval_expr(e, {"a": a, "b": b})

    aig = Aig()
    env = {"a": aig.bus_input(width), "b": aig.bus_input(width)}
    bus = blast_expr(aig, e, env)
    assert len(bus) == out_w
    ins = {}
    for name, val in (("a", a), ("b", b)):
        for i, lit in enumerate(env[name]):
            ins[lit] = (val >> i) & 1
    bits = aig.evaluate(ins, list(bus))
    got = sum(bit << i for i, bit in enumerate(bits))
    assert got == expect, (op, width, a, b)


@settings(deadline=None, max_examples=80)
@given(op=st.sampled_from(["not", "neg"] + RED_OPS),
       width=st.integers(1, 6), a=st.integers(0, 63))
def test_unary_and_reductions_match(op, width, a):
    a &= mask(width)
    e = ex.unop(op, ex.Ref(width, "a"))
    expect = eval_expr(e, {"a": a})
    aig = Aig()
    env = {"a": aig.bus_input(width)}
    bus = blast_expr(aig, e, env)
    ins = {lit: (a >> i) & 1 for i, lit in enumerate(env["a"])}
    bits = aig.evaluate(ins, list(bus))
    assert sum(bit << i for i, bit in enumerate(bits)) == expect


def test_slice_concat_mux():
    aig = Aig()
    a = aig.bus_input(4)
    b = aig.bus_input(4)
    env = {"a": a, "b": b}
    e = ex.Op(width=8, op="concat",
              args=(ex.Ref(4, "a"), ex.Ref(4, "b")), params=())
    bus = blast_expr(aig, e, env)
    ins = {lit: (0xA >> i) & 1 for i, lit in enumerate(a)}
    ins.update({lit: (0x5 >> i) & 1 for i, lit in enumerate(b)})
    bits = aig.evaluate(ins, list(bus))
    assert sum(bit << i for i, bit in enumerate(bits)) == 0xA5

    sl = ex.Op(width=2, op="slice", args=(e,), params=(6, 5))
    bus2 = blast_expr(aig, sl, env)
    bits2 = aig.evaluate(ins, list(bus2))
    assert sum(bit << i for i, bit in enumerate(bits2)) == (0xA5 >> 5) & 3


def _random_aig(rng, n_inputs, n_gates):
    """Random ANDs, XORs and MUXes; each XOR's and MUX's inner ANDs join
    the pool, so later nodes read them too."""
    aig = Aig()
    lits = [aig.new_input() for _ in range(n_inputs)]
    for _ in range(n_gates):
        a, b, c = (rng.choice(lits) ^ rng.randint(0, 1) for _ in range(3))
        kind = rng.choice(("and", "xor", "mux"))
        if kind == "and":
            lits.append(aig.land(a, b))
            continue
        out = aig.lxor(a, b) if kind == "xor" else aig.lmux(c, a, b)
        lits.append(out)
        if aig.nodes[out >> 1] is not None:
            lits.extend(aig.nodes[out >> 1])
    root = rng.choice(lits[n_inputs:] or lits) ^ rng.randint(0, 1)
    return aig, lits[:n_inputs], root


def _brute_force_sat(aig, inputs, root):
    for vals in product((0, 1), repeat=len(inputs)):
        if aig.evaluate(dict(zip(inputs, vals)), [root])[0]:
            return True
    return False


def test_tseitin_is_equisatisfiable_and_models_are_real():
    import random

    rng = random.Random(7)
    for trial in range(150):
        aig, inputs, root = _random_aig(rng, rng.randint(2, 6),
                                        rng.randint(1, 14))
        cnf = to_cnf(aig, [root], frozen=list(inputs))
        status, model = solve(cnf.clauses, cnf.num_vars)
        expect = _brute_force_sat(aig, inputs, root)
        assert status == (SAT if expect else UNSAT), trial
        if status == SAT:
            # model must actually drive the root true in the AIG
            vals = {lit: model[cnf.var_of_node[lit >> 1] - 1]
                    for lit in inputs}
            assert aig.evaluate(vals, [root])[0] == 1, trial


def test_frozen_literals_get_variables():
    aig = Aig()
    a, b = aig.new_input(), aig.new_input()
    root = aig.land(a, a)  # b outside the cone
    cnf = to_cnf(aig, [root], frozen=[b])
    assert b >> 1 in cnf.var_of_node


def test_constant_roots():
    aig = Aig()
    cnf = to_cnf(aig, [FALSE])
    status, _ = solve(cnf.clauses, cnf.num_vars)
    assert status == UNSAT
    cnf = to_cnf(aig, [TRUE])
    status, _ = solve(cnf.clauses, cnf.num_vars)
    assert status == SAT


def test_dimacs_round_trip():
    import random

    rng = random.Random(3)
    aig, inputs, root = _random_aig(rng, 4, 10)
    cnf = to_cnf(aig, [root], frozen=list(inputs))
    back = parse_dimacs(cnf.to_dimacs())
    assert back.num_vars == cnf.num_vars
    assert back.clauses == cnf.clauses
    text = "c comment line\np cnf 3 2\n1 -2 0\n-1 3 0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 3 and f.clauses == [(1, -2), (-1, 3)]


def _cost(aig, inputs, root):
    """Variables and clauses that encoding `root` adds once its inputs
    are encoded."""
    enc = TseitinEncoder(aig)
    enc.encode(inputs)
    before = enc.num_vars, len(enc.clauses)
    enc.encode([root])
    return enc.num_vars - before[0], len(enc.clauses) - before[1]


def test_xor_and_mux_are_encoded_as_gates():
    aig = Aig()
    c, t, e = aig.bus_input(3)
    assert _cost(aig, [t, e], aig.lxor(t, e)) == (1, 4)
    assert _cost(aig, [c, t, e], aig.lmux(c, t, e)) == (1, 6)
    # a plain AND keeps its three clauses
    assert _cost(aig, [c, t], aig.land(c, t ^ 1)) == (1, 3)


def _assert_encoding_is_functional(aig, enc, inputs):
    """Under every input assignment the clauses have exactly the AIG's
    values: the model assigns each encoded node its evaluated value."""
    encoded = sorted(enc.var_of_node)
    for vals in product((0, 1), repeat=len(inputs)):
        units = [(enc.lit(lit) if v else -enc.lit(lit),)
                 for lit, v in zip(inputs, vals)]
        status, model = solve(enc.clauses + units, enc.num_vars)
        assert status == SAT
        want = aig.evaluate(dict(zip(inputs, vals)),
                            [2 * n for n in encoded])
        got = [enc.value(model, 2 * n) for n in encoded]
        assert got == want, vals


def test_inner_nodes_encoded_later_stay_consistent():
    aig = Aig()
    p, q, c = aig.bus_input(3)
    x = aig.lxor(p, q)
    m = aig.lmux(c, p, q)
    enc = TseitinEncoder(aig)
    enc.encode([p, q, c, x, m])
    inner = [lit for g in (x, m) for lit in aig.nodes[g >> 1]]
    assert not any(lit >> 1 in enc.var_of_node for lit in inner)
    for lit in inner:  # one later call per inner AND
        enc.encode([lit])
        _assert_encoding_is_functional(aig, enc, [p, q, c])
    assert all(lit >> 1 in enc.var_of_node for lit in inner)


def test_incremental_encoding_of_random_gates_is_functional():
    import random

    rng = random.Random(11)
    for trial in range(60):
        aig, inputs, _ = _random_aig(rng, rng.randint(2, 5),
                                     rng.randint(1, 10))
        enc = TseitinEncoder(aig)
        enc.encode(inputs)
        lits = [2 * n for n in range(1, len(aig.nodes))]
        rng.shuffle(lits)
        while lits:  # encode the nodes in a few random batches
            k = rng.randint(1, 4)
            enc.encode(lits[:k])
            lits = lits[k:]
        _assert_encoding_is_functional(aig, enc, inputs)
