"""The base case of k-induction, one depth per query, and the template
and unroller that it and the induction step each build on.

A check blasts its transition relation once, into one `Template` that
the base case and the induction step share and that keeps only the
cone of influence of `bad`: the logic that `bad` reads, directly or
through the next state of the state bits it reads.  The
property sees nothing outside the cone, so dropping it keeps every
verdict (Clarke, Grumberg & Peled, "Model Checking", 1999).  Each frame
copies the template into one growing AIG, which an incremental Tseitin
encoder feeds into one persistent solver; a first frame whose state
bits are all free is the template as it is.  `bmc` asks about one
depth, with its `bad` bit as an assumption, and depths come in order,
so the first hit is at the minimal depth; a depth shown clean keeps
`not bad` as a permanent unit and is not asked about again.  So a new
depth costs its own frame alone: one copy, and the encoding of its new
nodes.
"""

from __future__ import annotations

from itertools import compress

from svsec.engine import sat
from svsec.engine.aig import Aig, FALSE, TRUE, blast_frame
from svsec.engine.cnf import TseitinEncoder
from svsec.engine.result import Falsified
from svsec.engine.trace import Trace
from svsec.props.obligation import SafetyObligation, evaluate_on_trace

# Work units (solver propagations + decisions + conflicts) per check.
DEFAULT_BUDGET = 10_000_000


class Template:
    """One frame of the augmented system, cut to the cone of `bad`.

    The whole frame is blasted once, with placeholder inputs for the
    state bits.  The cone is found at the bit level, from `bad` back
    through AND fan-ins and from each state placeholder to its
    next-state literal, and renumbered in node order into `aig`.  So the
    template's inputs are the cone's state bits, named in `state_bits`
    as (state, bit), and then its input bits; `next` holds the template
    literal of each of those state bits' next state.  `buses` has every
    signal's bus, with each bit outside the cone read as FALSE.

    The cone's nodes are written to `aig` as they are, not through
    `Aig.land`, because nothing could fold or merge: every AND of the
    full frame came from `land`, so its fan-ins are two distinct
    non-constant nodes, ordered, and no two ANDs share them.  The
    renumbering keeps node order, so it keeps all three.  When the cone
    is the whole frame, the renumbering is the identity, and the frame
    is the template as it is.
    """

    def __init__(self, obl: SafetyObligation):
        ts = obl.augmented
        full = Aig()
        state = {s.name: full.bus_input(s.width) for s in ts.states}
        buses, nxt = blast_frame(full, ts, state)
        full_next = [lit for s in ts.states for lit in nxt[s.name]]
        nodes = full.nodes
        in_cone = bytearray(len(nodes))
        in_cone[0] = 1
        stack = [buses[obl.bad_name][0] >> 1]
        push = stack.append
        while stack:
            node = stack.pop()
            if in_cone[node]:
                continue
            in_cone[node] = 1
            fanin = nodes[node]
            if fanin is not None:
                a, b = fanin[0] >> 1, fanin[1] >> 1
                if not in_cone[a]:
                    push(a)
                if not in_cone[b]:
                    push(b)
            elif node <= len(full_next):  # a state placeholder
                push(full_next[node - 1] >> 1)
        bits = [(s.name, i) for s in ts.states for i in range(s.width)]
        if 0 not in in_cone:
            # the cone is the whole frame, and its renumbering the identity
            self.aig = full
            self.buses = buses
            self.state_bits = bits
            self.next = full_next
            self.input_bits = nodes.count(None) - 1 - len(bits)
            return
        # renumber the cone in node order: full node order[j] becomes
        # template node j + 1; `lit_of` maps each full literal to its
        # template literal, and the literals outside the cone to FALSE
        order = list(compress(range(len(nodes)), in_cone))[1:]
        lit_of = [FALSE] * (2 * len(nodes))
        lit_of[1] = TRUE
        for j, node in enumerate(order, 1):
            lit_of[2 * node] = 2 * j
            lit_of[2 * node + 1] = 2 * j + 1
        self.aig = Aig()
        tnodes = self.aig.nodes
        table = self.aig.hash
        for node in order:
            fanin = nodes[node]
            if fanin is not None:
                fanin = (lit_of[fanin[0]], lit_of[fanin[1]])
                table[fanin] = len(tnodes) * 2
            tnodes.append(fanin)

        self.buses = {n: tuple([lit_of[lit] for lit in bus])
                      for n, bus in buses.items()}
        placeholders = [node for node in order if node <= len(bits)]
        self.state_bits = [bits[node - 1] for node in placeholders]
        self.next = [lit_of[full_next[node - 1]] for node in placeholders]
        self.input_bits = tnodes.count(None) - 1 - len(placeholders)


class Unroller:
    """Time-frame expansion with reset-constrained frame 0, and the one
    solver that all queries over its frames share.

    A frame copies a check's `Template` into the unrolled AIG, its
    placeholders taking the previous frame's next state (or the initial
    state), and keeps the unrolled literal of every template node.
    When the initial state is all fresh inputs (`free_initial`, or no
    reset on any cone state bit), frame 0 is the template itself: a
    list copy of its nodes and of its hash table, each node its own
    literal.
    `k_induction` builds one template and gives it to both its base and
    its step unroller.  Only the cone's state bits are unrolled, so
    `state_lits` covers only them, and a bus bit outside the cone reads
    as FALSE.
    """

    def __init__(self, obl: SafetyObligation, template: Template,
                 free_initial: bool = False):
        self.obl = obl
        self.ts = obl.augmented
        self.template = template
        self.aig = Aig()
        self.cnf = TseitinEncoder(self.aig)
        self.solver = sat.Solver()
        self.frames: list[list[int]] = []
        # the template literal of `bad`
        self._bad = self.template.buses[obl.bad_name][0]
        # the state bits the next frame starts from; None while frame 0
        # is still to come and starts from fresh inputs alone
        resets = {s.name: s.reset for s in self.ts.states}
        bits = self.template.state_bits
        self._state: list[int] | None = None
        if not free_initial and any(resets[n] is not None for n, _ in bits):
            self._state = [
                self.aig.new_input() if resets[name] is None
                else TRUE if (resets[name] >> i) & 1 else FALSE
                for name, i in bits]

    def extend(self) -> None:
        template = self.template
        if self._state is None:
            # a copy into the empty AIG, placeholders bound to fresh
            # inputs 1..n, would map every node to itself: the
            # template's ANDs can neither fold nor merge (see `Template`)
            self.aig.nodes[:] = template.aig.nodes
            self.aig.hash.update(template.aig.hash)
            frame = list(range(0, 2 * len(template.aig.nodes), 2))
        else:
            frame = self.aig.copy(template.aig, self._state)
        self.frames.append(frame)
        self._state = [frame[lit >> 1] ^ (lit & 1) for lit in template.next]

    def frame(self, depth: int) -> list[int]:
        """The frame at `depth`, unrolling up to it first."""
        while len(self.frames) <= depth:
            self.extend()
        return self.frames[depth]

    def bus(self, depth: int, name: str) -> tuple[int, ...]:
        frame = self.frame(depth)
        return tuple(frame[lit >> 1] ^ (lit & 1)
                     for lit in self.template.buses[name])

    def bad(self, depth: int) -> int:
        lit = self._bad
        return self.frame(depth)[lit >> 1] ^ (lit & 1)

    def state_lits(self, depth: int) -> list[int]:
        # template nodes 1..n are the placeholders
        return self.frame(depth)[1:1 + len(self.template.next)]

    def input_lits(self, depth: int) -> list[int]:
        start = 1 + len(self.template.next)
        return self.frame(depth)[start:start + self.template.input_bits]

    def add_unit(self, dimacs_lit: int) -> None:
        """Assert a literal in every later query."""
        self.cnf.clauses.append((dimacs_lit,))

    def solve(self, assumptions, budget: int):
        """Feed the clauses encoded since the last call to the solver
        and solve under `assumptions` with at most `budget` work units;
        returns (status, model)."""
        clauses, self.cnf.clauses = self.cnf.clauses, []
        return sat.solve(clauses, self.cnf.num_vars, budget=budget,
                         solver=self.solver, assumptions=assumptions)

    def extract_trace(self, model: list[int], depth: int) -> Trace:
        """The model's run to `depth`, not yet replayed.  A state bit
        outside the cone starts at its reset value (0 without one), and
        an input bit outside the cone is 0."""
        initial = {s.name: s.reset or 0 for s in self.ts.states}
        for (name, i), lit in zip(self.template.state_bits,
                                  self.state_lits(0)):
            bit = self.cnf.value(model, lit) << i
            initial[name] = initial[name] & ~(1 << i) | bit
        inputs = [{n: sum(self.cnf.value(model, lit) << i
                          for i, lit in enumerate(self.bus(t, n)))
                   for n, _ in self.ts.inputs}
                  for t in range(depth + 1)]
        return Trace(initial=initial, inputs=inputs)


def bmc(un: Unroller, depth: int, budget: int):
    """The base case at `depth`: search the reset-constrained unroller
    for a violation there; depths come in order, 0, 1, 2, ...

    Returns Falsified, `sat.UNKNOWN` when the query runs out of
    `budget` work units, or None when the depth is clean, which keeps
    `not bad` at it as a permanent unit.  Depth 0 also encodes frame
    0's free state bits, so that models assign every input a trace
    reads; each depth encodes its own inputs.
    """
    assert len(un.frames) == depth, f"depth {depth} after {len(un.frames)}"
    if depth == 0:
        un.cnf.encode(lit for lit in un.state_lits(0) if lit > TRUE)
    bad = un.bad(depth)
    un.cnf.encode(un.input_lits(depth))
    if bad == FALSE:
        return None
    (bad_lit,) = un.cnf.encode([bad])
    status, model = un.solve([bad_lit], budget)
    if status == sat.UNKNOWN:
        return status
    if status == sat.SAT:
        tr = un.extract_trace(model, depth)
        hit = evaluate_on_trace(un.obl, tr)
        assert hit == depth, f"trace replay mismatch: {hit} != {depth}"
        return Falsified(trace=tr, depth=depth)
    un.add_unit(-bad_lit)
    return None
