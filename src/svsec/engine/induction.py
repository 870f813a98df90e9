"""k-induction: BMC base case plus an inductive step over free states.

proven(k) means: no violation at depths 0..k (base), and k consecutive
violation-free frames starting anywhere imply a violation-free frame
k+1 (step, shown by unsatisfiability of the negation).  With the
simple-path constraint the step only considers runs of pairwise
distinct states, which makes the method complete for finite systems
given a large enough k.

Both phases are incremental (Een & Sorensson, "Temporal Induction by
Incremental SAT Solving", BMC 2003): each keeps one unroller whose
solver and Tseitin encoder persist across k.  The base case checks
depth k only, since bmc already showed depths below k clean.  The step
adds `not bad(k-1)` as a permanent unit and assumes `bad(k)`.
Simple-path constraints are added lazily (Sheeran, Singh & Stalmarck,
FMCAD 2000): only for the frame pairs that a step model does not show
distinct, after which the step is solved again.  These constraints hold
for every larger k, so they stay.  The step fails only on a model whose
states are pairwise distinct however its unconstrained bits are set, so
the verdict, and `k_used`, equal those of adding all O(k^2) constraints
up front.
"""

from __future__ import annotations

from collections.abc import Callable

from svsec.engine import sat
from svsec.engine.bmc import DEFAULT_BUDGET, Unroller, bmc, out_of_budget
from svsec.engine.result import Falsified, NoCexUpTo, Proven, Unknown
from svsec.props.obligation import SafetyObligation


def k_induction(obl: SafetyObligation, max_k: int, simple_path: bool = True,
                budget: int = DEFAULT_BUDGET):
    """Prove, falsify, or give up on `obl` with k up to `max_k`.

    `budget` bounds the solver work of the whole check, base case and
    step together; the query that runs out of it gives Unknown naming
    its phase and k.  The work counts are deterministic, so the verdict
    does not depend on machine speed or load.
    """
    base_un = Unroller(obl)
    step_un = Unroller(obl, free_initial=True)

    def left() -> int:
        return budget - base_un.solver.work() - step_un.solver.work()

    for k in range(max_k + 1):
        res = bmc(obl, max_depth=k, budget=left(), unroller=base_un)
        if isinstance(res, Falsified):
            return res
        if isinstance(res, Unknown):
            return out_of_budget("base case", k, budget)
        assert isinstance(res, NoCexUpTo)

        status = _step(step_un, k, simple_path, left)
        if status == sat.UNSAT:
            return Proven(k_used=k)
        if status == sat.UNKNOWN:
            return out_of_budget("induction step", k, budget)
    return Unknown(max_k=max_k, reason="induction depth exhausted")


def _step(un: Unroller, k: int, simple_path: bool,
          left: Callable[[], int]) -> int:
    """Solve: frames 0..k-1 good, frame k bad, states distinct.

    Called for k = 0, 1, 2, ... on the same unroller, each solve with
    the `left()` work of the check.  UNSAT means the step holds at k.
    """
    if k > 0:
        un.add_unit(-un.cnf.encode([un.bad(k - 1)])[0])
    (bad_lit,) = un.cnf.encode([un.bad(k)])
    states = [un.state_lits(t) for t in range(k + 1)]
    while True:
        status, model = un.solve([bad_lit], left())
        if status != sat.SAT or not simple_path:
            return status
        known = [_known_state(un, model, lits) for lits in states]
        # a pair is distinct in every extension of the model when some
        # bit is known in both frames and differs
        same = [(i, j) for j in range(k + 1) for i in range(j)
                if not (known[i][1] ^ known[j][1])
                & known[i][0] & known[j][0]]
        if not same:
            return status  # a simple path: the step fails at k
        for i, j in same:
            diff = un.aig.bus_eq(states[i], states[j]) ^ 1
            un.add_unit(un.cnf.encode([diff])[0])


def _known_state(un: Unroller, model: list[int],
                 lits: list[int]) -> tuple[int, int]:
    """(mask, value) of a frame's state in a model, as ints over the
    bit positions; the mask marks the known bits.

    Only constants and encoded nodes are known.  The other state bits
    are in no clause yet, so the model says nothing about them; encoding
    them up front would make every step call assign every state bit of
    every frame.  That includes the inner ANDs of the XOR and MUX gates
    the encoder skips, even when the gate's own variable is assigned.
    """
    mask = value = 0
    for pos, lit in enumerate(lits):
        if (lit >> 1) == 0 or (lit >> 1) in un.cnf.var_of_node:
            mask |= 1 << pos
            value |= un.cnf.value(model, lit) << pos
    return mask, value
