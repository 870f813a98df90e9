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
        # blow the stack)
        seen: set[int] = set()
        stack = [lit >> 1 for lit in lits]
        while stack:
            node = stack.pop()
            if node in seen or node in done:
                continue
            seen.add(node)
            fanin = nodes[node]
            if fanin is not None:
                stack.append(fanin[0] >> 1)
                stack.append(fanin[1] >> 1)

        for node in sorted(seen):
            self.num_vars += 1
            v = done[node] = self.num_vars
            fanin = nodes[node]
            if fanin is None:
                if node == 0:
                    self.clauses.append((-v,))
                continue
            la, lb = self.lit(fanin[0]), self.lit(fanin[1])
            self.clauses.append((-v, la))
            self.clauses.append((-v, lb))
            self.clauses.append((v, -la, -lb))
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
