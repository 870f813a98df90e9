"""Tseitin transformation of AIG cones into CNF, plus DIMACS export."""

from __future__ import annotations

from dataclasses import dataclass, field

from svsec.engine.aig import Aig, FALSE, TRUE


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[tuple[int, ...]]
    # AIG literal -> DIMACS variable, for model read-back
    var_of_node: dict[int, int] = field(default_factory=dict)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for c in self.clauses:
            lines.append(" ".join(str(x) for x in c) + " 0")
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            num_vars = int(parts[2])
            continue
        lits = [int(x) for x in line.split()]
        assert lits[-1] == 0
        clauses.append(tuple(lits[:-1]))
    return CnfFormula(num_vars=num_vars, clauses=clauses)


class TseitinEncoder:
    """Incremental Tseitin encoding of one growing AIG.

    The node -> variable map persists between calls, so each `encode`
    emits clauses only for nodes of its cones not encoded before.  New
    clauses collect in `clauses` until the owner takes them.  The
    constant node is encoded as a variable forced false, so TRUE and
    FALSE roots need no special case.

    Two three-AND patterns are encoded as gates over their leaves, one
    variable each (Een, Mishchenko & Sorensson, "Applying Logic
    Synthesis for Speeding Up SAT", SAT 2007):
    `AND(!AND(p,q), !AND(!p,!q))` is the XOR `p ^ q` (4 clauses) and
    `AND(!AND(c,t), !AND(!c,e))` is `!mux(c,t,e)` (6 clauses, two of
    them redundant).  A gate's two inner ANDs get no variable.  An
    inner node that some other node or root reads, in the same call or
    a later one, is encoded on demand with its own clauses, so every
    variable still equals its node's function of the leaves.
    """

    def __init__(self, aig: Aig):
        self.aig = aig
        self.num_vars = 0
        self.var_of_node: dict[int, int] = {}
        self.clauses: list[tuple[int, ...]] = []

    def encode(self, lits) -> list[int]:
        """Encode the cones of AIG literals; return their DIMACS literals."""
        lits = list(lits)
        done = self.var_of_node
        nodes = self.aig.nodes
        # walk the new part of the cones iteratively (deep ANDs would
        # blow the stack); a gate's walk skips its inner ANDs
        seen: set[int] = set()
        gates: dict[int, tuple[int, ...]] = {}
        stack = [lit >> 1 for lit in lits]
        while stack:
            node = stack.pop()
            if node in seen or node in done:
                continue
            seen.add(node)
            fanin = nodes[node]
            if fanin is None:
                continue
            a, b = fanin
            gate = None
            if a & b & 1 and nodes[a >> 1] and nodes[b >> 1]:
                (x0, x1), (y0, y1) = nodes[a >> 1], nodes[b >> 1]
                if x0 ^ 1 == y0 and x1 ^ 1 == y1:  # an XOR of x0, x1
                    gate = (x0, x1)
                elif x0 ^ 1 in (y0, y1):  # a MUX selected by x0
                    gate = (x0, x1, y1 if y0 == x0 ^ 1 else y0)
                elif x1 ^ 1 in (y0, y1):  # a MUX selected by x1
                    gate = (x1, x0, y1 if y0 == x1 ^ 1 else y0)
            if gate is None:
                stack.append(a >> 1)
                stack.append(b >> 1)
            else:
                gates[node] = gate
                stack += [lit >> 1 for lit in gate]

        for node in sorted(seen):
            self.num_vars += 1
            v = done[node] = self.num_vars
            fanin = nodes[node]
            if fanin is None:
                if node == 0:
                    self.clauses.append((-v,))
                continue
            gate = gates.get(node)
            if gate is None:
                la, lb = self.lit(fanin[0]), self.lit(fanin[1])
                self.clauses.append((-v, la))
                self.clauses.append((-v, lb))
                self.clauses.append((v, -la, -lb))
            elif len(gate) == 2:  # v = p ^ q
                p, q = self.lit(gate[0]), self.lit(gate[1])
                self.clauses += [(-v, p, q), (-v, -p, -q),
                                 (v, -p, q), (v, p, -q)]
            else:  # -v = c ? t : e
                c, t, e = (self.lit(x) for x in gate)
                self.clauses += [(-c, -t, -v), (-c, t, v), (c, -e, -v),
                                 (c, e, v), (-t, -e, -v), (t, e, v)]
        return [self.lit(lit) for lit in lits]

    def lit(self, aig_lit: int) -> int:
        """DIMACS literal for an AIG literal (node must be encoded)."""
        v = self.var_of_node[aig_lit >> 1]
        return -v if aig_lit & 1 else v

    def value(self, model: list[int], aig_lit: int) -> int:
        """The literal's value in a solver model; 0 for a node never
        encoded, which no clause constrains."""
        if aig_lit == TRUE or aig_lit == FALSE:
            return aig_lit
        v = self.var_of_node.get(aig_lit >> 1)
        return 0 if v is None else model[v - 1] ^ (aig_lit & 1)


def to_cnf(aig: Aig, roots: list[int],
           frozen: list[int] | None = None) -> CnfFormula:
    """Encode the cone of `roots` and assert each root true.

    `frozen` literals get variables even if outside the cone, so
    models always assign them (useful for trace extraction).
    """
    enc = TseitinEncoder(aig)
    units = enc.encode(list(roots) + list(frozen or []))[:len(roots)]
    enc.clauses.extend((u,) for u in units)
    return CnfFormula(num_vars=enc.num_vars, clauses=enc.clauses,
                      var_of_node=enc.var_of_node)
