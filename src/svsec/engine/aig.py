"""And-inverter graph with structural hashing.

Literal encoding: node i yields literals 2*i (plain) and 2*i+1
(inverted).  Node 0 is the constant, so FALSE = 0 and TRUE = 1.
Buses are tuples of literals, lsb first.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

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

    # `lxor` and `lmux` are `lor` of two ANDs, with `lor` written out

    def lxor(self, a: int, b: int) -> int:
        land = self.land
        return land(land(a, b ^ 1) ^ 1, land(a ^ 1, b) ^ 1) ^ 1

    def lmux(self, c: int, t: int, e: int) -> int:
        land = self.land
        return land(land(c, t) ^ 1, land(c ^ 1, e) ^ 1) ^ 1

    def copy(self, src: "Aig", bound: list[int]) -> list[int]:
        """Copy `src` in node order; returns each src node's literal.
        Src inputs 1..len(bound) take the literals `bound`, the others
        fresh inputs; ANDs fold and hash against what this AIG holds,
        as `land` does it (inlined: a frame copy is the unrolling's
        hottest loop)."""
        nodes = self.nodes
        table = self.hash
        lits = [FALSE, *bound]
        for node in src.nodes[len(lits):]:
            if node is None:
                lits.append(len(nodes) * 2)
                nodes.append(None)
                continue
            a, b = node
            a = lits[a >> 1] ^ (a & 1)
            b = lits[b >> 1] ^ (b & 1)
            if a > b:
                a, b = b, a
            if a == FALSE or a == b ^ 1:
                lits.append(FALSE)
            elif a == TRUE or a == b:
                lits.append(b)
            else:
                key = (a, b)
                lit = table.get(key)
                if lit is None:
                    lit = len(nodes) * 2
                    nodes.append(key)
                    table[key] = lit
                lits.append(lit)
        return lits

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
        start = len(self.nodes)
        self.nodes += [None] * width
        return tuple(range(2 * start, 2 * (start + width), 2))

    def bus_const(self, width: int, value: int) -> tuple[int, ...]:
        return tuple([(value >> i) & 1 for i in range(width)])  # TRUE is 1

    def bus_not(self, a) -> tuple[int, ...]:
        return tuple(x ^ 1 for x in a)

    def bus_and(self, a, b):
        return tuple(self.land(x, y) for x, y in zip(a, b))

    def bus_or(self, a, b):
        return tuple(self.lor(x, y) for x, y in zip(a, b))

    def bus_xor(self, a, b):
        return tuple(self.lxor(x, y) for x, y in zip(a, b))

    def bus_mux(self, c: int, t, e):
        land = self.land
        nc = c ^ 1
        return tuple([land(land(c, x) ^ 1, land(nc, y) ^ 1) ^ 1  # lmux
                      for x, y in zip(t, e)])

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


def blast_expr(aig: Aig, e: ex.Expr, env: dict[str, tuple[int, ...]],
               memo: dict[ex.Op, tuple[int, ...]] | None = None
               ) -> tuple[int, ...]:
    """Lower one IR expression to a bus, resolving names through env.

    Share one memo only between calls over the same env.
    """
    def leaf(x: ex.Expr) -> tuple[int, ...]:
        if isinstance(x, ex.BV):
            return aig.bus_const(x.width, x.value)
        bus = env[x.name]
        assert len(bus) == x.width, x.name
        return bus

    return ex.fold(e, leaf, partial(_blast_op, aig), memo)


# The bus method of each operator but mux, concat and slice.  Binary
# operands are zero-extended to a common width; a compare or a
# reduction gives one literal.
_BUS_OPS = {
    "not": Aig.bus_not, "neg": Aig.bus_neg, "redor": Aig.bus_redor,
    "redand": Aig.bus_redand, "redxor": Aig.bus_redxor,
    "and": Aig.bus_and, "or": Aig.bus_or, "xor": Aig.bus_xor,
    "add": Aig.bus_add, "sub": Aig.bus_sub, "mul": Aig.bus_mul,
    "shl": Aig.bus_shl, "shr": Aig.bus_shr,
    "eq": Aig.bus_eq, "ult": Aig.bus_ult, "ule": Aig.bus_ule,
}


def _blast_op(aig: Aig, e: ex.Op, bs: list[tuple[int, ...]]
              ) -> tuple[int, ...]:
    """Apply an operator node to the buses of its arguments."""
    op = e.op
    if op == "mux":
        return aig.bus_mux(bs[0][0], bs[1], bs[2])
    if op == "concat":
        return tuple(chain.from_iterable(reversed(bs)))
    if op == "slice":
        hi, lo = e.params
        return bs[0][lo:hi + 1]
    if len(bs) == 2 and len(bs[0]) != len(bs[1]):
        w = max(map(len, bs))
        bs = [b + (FALSE,) * (w - len(b)) for b in bs]
    out = _BUS_OPS[op](aig, *bs)
    return (out,) if isinstance(out, int) else out[:e.width]


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
    memo: dict[ex.Op, tuple[int, ...]] = {}
    for n, e in ts.defines:
        env[n] = blast_expr(aig, e, env, memo)
    nxt = {s.name: blast_expr(aig, ts.next[s.name], env, memo)
           for s in ts.states}
    return env, nxt
