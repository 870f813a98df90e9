"""And-inverter graph with structural hashing.

Literal encoding: node i yields literals 2*i (plain) and 2*i+1
(inverted).  Node 0 is the constant, so FALSE = 0 and TRUE = 1.
Buses are tuples of literals, lsb first.
"""

from __future__ import annotations

from svsec.ir import expr as ex
from svsec.ir.transition import TransitionSystem

FALSE = 0
TRUE = 1


class Aig:
    def __init__(self):
        # nodes[i] is None for inputs/constant, (a, b) literals for ANDs
        self.nodes: list[tuple[int, int] | None] = [None]
        self.hash: dict[tuple[int, int], int] = {}

    def new_input(self) -> int:
        self.nodes.append(None)
        return (len(self.nodes) - 1) * 2

    def land(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == FALSE or a == b ^ 1:
            return FALSE
        if a == TRUE or a == b:
            return b
        key = (a, b)
        lit = self.hash.get(key)
        if lit is None:
            self.nodes.append(key)
            lit = (len(self.nodes) - 1) * 2
            self.hash[key] = lit
        return lit

    def lor(self, a: int, b: int) -> int:
        return self.land(a ^ 1, b ^ 1) ^ 1

    def lxor(self, a: int, b: int) -> int:
        return self.lor(self.land(a, b ^ 1), self.land(a ^ 1, b))

    def lmux(self, c: int, t: int, e: int) -> int:
        return self.lor(self.land(c, t), self.land(c ^ 1, e))

    def evaluate(self, inputs: dict[int, int], roots: list[int]) -> list[int]:
        """Evaluate root literals given values for input literals."""
        val = [0] * len(self.nodes)
        for lit, v in inputs.items():
            val[lit >> 1] = v & 1
        for i, node in enumerate(self.nodes):
            if node is not None:
                a, b = node
                val[i] = (val[a >> 1] ^ (a & 1)) & (val[b >> 1] ^ (b & 1))
        return [val[r >> 1] ^ (r & 1) for r in roots]

    # ---- bus helpers (lsb-first tuples) --------------------------------

    def bus_input(self, width: int) -> tuple[int, ...]:
        return tuple(self.new_input() for _ in range(width))

    def bus_const(self, width: int, value: int) -> tuple[int, ...]:
        return tuple(TRUE if (value >> i) & 1 else FALSE for i in range(width))

    def bus_not(self, a) -> tuple[int, ...]:
        return tuple(x ^ 1 for x in a)

    def bus_and(self, a, b):
        return tuple(self.land(x, y) for x, y in zip(a, b))

    def bus_or(self, a, b):
        return tuple(self.lor(x, y) for x, y in zip(a, b))

    def bus_xor(self, a, b):
        return tuple(self.lxor(x, y) for x, y in zip(a, b))

    def bus_mux(self, c: int, t, e):
        return tuple(self.lmux(c, x, y) for x, y in zip(t, e))

    def bus_add(self, a, b, carry_in: int = FALSE) -> tuple[int, ...]:
        out = []
        c = carry_in
        for x, y in zip(a, b):
            s = self.lxor(self.lxor(x, y), c)
            c = self.lor(self.land(x, y), self.land(c, self.lxor(x, y)))
            out.append(s)
        return tuple(out)

    def bus_sub(self, a, b) -> tuple[int, ...]:
        return self.bus_add(a, self.bus_not(b), TRUE)

    def bus_neg(self, a) -> tuple[int, ...]:
        zero = self.bus_const(len(a), 0)
        return self.bus_add(zero, self.bus_not(a), TRUE)

    def bus_mul(self, a, b) -> tuple[int, ...]:
        w = len(a)
        acc = self.bus_const(w, 0)
        for i, bit in enumerate(b):
            if i >= w:
                break
            shifted = tuple(FALSE for _ in range(i)) + a[:w - i]
            gated = tuple(self.land(bit, x) for x in shifted)
            acc = self.bus_add(acc, gated)
        return acc

    def bus_shl(self, a, sh) -> tuple[int, ...]:
        # barrel shifter; shift amounts >= width produce 0
        w = len(a)
        out = list(a)
        for i, bit in enumerate(sh):
            amt = 1 << i
            if amt >= w:
                shifted = [FALSE] * w
            else:
                shifted = [FALSE] * amt + out[:w - amt]
            out = [self.lmux(bit, s, o) for s, o in zip(shifted, out)]
        return tuple(out)

    def bus_shr(self, a, sh) -> tuple[int, ...]:
        w = len(a)
        out = list(a)
        for i, bit in enumerate(sh):
            amt = 1 << i
            if amt >= w:
                shifted = [FALSE] * w
            else:
                shifted = out[amt:] + [FALSE] * amt
            out = [self.lmux(bit, s, o) for s, o in zip(shifted, out)]
        return tuple(out)

    def bus_eq(self, a, b) -> int:
        out = TRUE
        for x, y in zip(a, b):
            out = self.land(out, self.lxor(x, y) ^ 1)
        return out

    def bus_ult(self, a, b) -> int:
        # a < b  <=>  carry out of (a + ~b + 1) is 0
        c = TRUE
        for x, y in zip(a, self.bus_not(b)):
            c = self.lor(self.land(x, y), self.land(c, self.lxor(x, y)))
        return c ^ 1

    def bus_ule(self, a, b) -> int:
        return self.bus_ult(b, a) ^ 1

    def bus_redor(self, a) -> int:
        out = FALSE
        for x in a:
            out = self.lor(out, x)
        return out

    def bus_redand(self, a) -> int:
        out = TRUE
        for x in a:
            out = self.land(out, x)
        return out

    def bus_redxor(self, a) -> int:
        out = FALSE
        for x in a:
            out = self.lxor(out, x)
        return out


def blast_expr(aig: Aig, e: ex.Expr,
               env: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    """Lower one IR expression to a bus, resolving names through env."""
    if isinstance(e, ex.BV):
        return aig.bus_const(e.width, e.value)
    if isinstance(e, ex.Ref):
        bus = env[e.name]
        assert len(bus) == e.width, e.name
        return bus
    assert isinstance(e, ex.Op)
    op = e.op
    if op == "mux":
        c = blast_expr(aig, e.args[0], env)[0]
        return aig.bus_mux(c, blast_expr(aig, e.args[1], env),
                           blast_expr(aig, e.args[2], env))
    if op == "concat":
        out: tuple[int, ...] = ()
        for part in reversed(e.args):  # args are msb-first
            out = out + blast_expr(aig, part, env)
        return out
    if op == "slice":
        hi, lo = e.params
        return blast_expr(aig, e.args[0], env)[lo:hi + 1]
    bs = [blast_expr(aig, a, env) for a in e.args]
    if op == "not":
        return aig.bus_not(bs[0])
    if op == "neg":
        return aig.bus_neg(bs[0])
    if op in ("and", "or", "xor", "add", "sub", "mul", "shl", "shr",
              "ult", "ule", "eq"):
        a, b = bs
        w = max(len(a), len(b))
        a = a + (FALSE,) * (w - len(a))
        b = b + (FALSE,) * (w - len(b))
        if op == "eq":
            return (aig.bus_eq(a, b),)
        if op == "ult":
            return (aig.bus_ult(a, b),)
        if op == "ule":
            return (aig.bus_ule(a, b),)
        fn = {"and": aig.bus_and, "or": aig.bus_or, "xor": aig.bus_xor,
              "add": aig.bus_add, "sub": aig.bus_sub, "mul": aig.bus_mul,
              "shl": aig.bus_shl, "shr": aig.bus_shr}[op]
        out = fn(a, b)
        return out[:e.width]
    if op == "redor":
        return (aig.bus_redor(bs[0]),)
    if op == "redand":
        return (aig.bus_redand(bs[0]),)
    if op == "redxor":
        return (aig.bus_redxor(bs[0]),)
    raise ValueError(f"unknown op {op!r}")


def blast_frame(aig: Aig, ts: TransitionSystem,
                state_env: dict[str, tuple[int, ...]]) -> tuple[dict, dict]:
    """Blast defines and next-state functions for one frame.

    `state_env` provides buses for the state variables; fresh inputs
    are allocated for the TS inputs.  Returns the frame (a bus for
    every TS signal) and the buses of the next state.
    """
    env = dict(state_env)
    for n, w in ts.inputs:
        env[n] = aig.bus_input(w)
    for n, e in ts.defines:
        env[n] = blast_expr(aig, e, env)
    nxt = {s.name: blast_expr(aig, ts.next[s.name], env) for s in ts.states}
    return env, nxt
