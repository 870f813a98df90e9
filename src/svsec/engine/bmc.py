"""Bounded model checking over an obligation's augmented system.

The transition relation is unrolled frame by frame into one growing
AIG, which an incremental Tseitin encoder feeds into one persistent
solver.  Depths are checked shallowest first, each with its `bad` bit
as an assumption, so the first hit is at the minimal depth; a depth
shown clean keeps `not bad` as a permanent unit and is not checked
again.
"""

from __future__ import annotations

from svsec.engine import sat
from svsec.engine.aig import Aig, FALSE, blast_frame
from svsec.engine.cnf import TseitinEncoder
from svsec.engine.result import Falsified, NoCexUpTo, Unknown
from svsec.engine.trace import Trace
from svsec.props.obligation import SafetyObligation

# Work units (solver propagations + decisions + conflicts) per check.
DEFAULT_BUDGET = 10_000_000


class Unroller:
    """Time-frame expansion with reset-constrained frame 0, and the one
    solver that all queries over its frames share."""

    def __init__(self, obl: SafetyObligation, free_initial: bool = False):
        self.obl = obl
        self.ts = obl.augmented
        self.aig = Aig()
        self.cnf = TseitinEncoder(self.aig)
        self.solver = sat.Solver()
        # depths below this one are shown violation-free (bmc only)
        self.clean = 0
        # one bus per TS signal in each unrolled time step
        self.frames: list[dict[str, tuple[int, ...]]] = []
        self.initial_free: dict[str, tuple[int, ...]] = {}
        env: dict[str, tuple[int, ...]] = {}
        for s in self.ts.states:
            if s.reset is None or free_initial:
                bus = self.aig.bus_input(s.width)
                self.initial_free[s.name] = bus
            else:
                bus = self.aig.bus_const(s.width, s.reset)
            env[s.name] = bus
        self._next_state_env = env

    def extend(self) -> None:
        frame, nxt = blast_frame(self.aig, self.ts, self._next_state_env)
        self.frames.append(frame)
        self._next_state_env = nxt

    def at_least(self, depth: int) -> None:
        while len(self.frames) <= depth:
            self.extend()

    def bad(self, depth: int) -> int:
        self.at_least(depth)
        return self.frames[depth][self.obl.bad_name][0]

    def input_lits(self, depth: int) -> list[int]:
        frame = self.frames[depth]
        return [lit for n, _ in self.ts.inputs for lit in frame[n]]

    def state_lits(self, depth: int) -> list[int]:
        frame = self.frames[depth]
        return [lit for s in self.ts.states for lit in frame[s.name]]

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
        def bus_value(bus: tuple[int, ...]) -> int:
            return sum(self.cnf.value(model, lit) << i
                       for i, lit in enumerate(bus))

        initial = {s.name: s.reset or 0 for s in self.ts.states}
        for name, bus in self.initial_free.items():
            initial[name] = bus_value(bus)
        inputs = []
        for t in range(depth + 1):
            inputs.append({n: bus_value(self.frames[t][n])
                           for n, _ in self.ts.inputs})
        tr = Trace(initial=initial, inputs=inputs)
        tr.replay(self.ts)
        return tr


def out_of_budget(phase: str, k: int, budget: int) -> Unknown:
    return Unknown(max_k=k, reason=(
        f"{phase} at k={k} exceeded the work budget of {budget}"))


def bmc(obl: SafetyObligation, max_depth: int,
        budget: int = DEFAULT_BUDGET,
        unroller: Unroller | None = None):
    """Search for a violation at depths 0..max_depth, shallowest first.

    `budget` bounds the solver work of the whole search; a depth whose
    query runs out of it gives Unknown.  With an `unroller` from an
    earlier call, the depths it already showed clean are not searched
    again.
    """
    un = unroller or Unroller(obl)
    start = un.solver.work()
    # encode every input a trace reads, so that models assign them all
    un.cnf.encode(lit for bus in un.initial_free.values() for lit in bus)
    for d in range(un.clean, max_depth + 1):
        bad = un.bad(d)
        un.cnf.encode(un.input_lits(d))
        if bad != FALSE:
            (bad_lit,) = un.cnf.encode([bad])
            status, model = un.solve(
                [bad_lit], budget - (un.solver.work() - start))
            if status == sat.UNKNOWN:
                return out_of_budget("base case", d, budget)
            if status == sat.SAT:
                tr = un.extract_trace(model, d)
                hit = next((t for t, env in enumerate(tr.values)
                            if env[obl.bad_name]), None)
                assert hit == d, f"trace replay mismatch: {hit} != {d}"
                return Falsified(trace=tr, depth=d)
            un.add_unit(-bad_lit)
        un.clean = d + 1
    return NoCexUpTo(depth=max_depth)
