"""k-induction: two queries per k over one template, the base case
over reset-constrained frames and the inductive step over free ones.

proven(k) means: no violation at depths 0..k (base), and k consecutive
violation-free frames starting anywhere imply a violation-free frame
k+1 (step, shown by unsatisfiability of the negation).  With the
simple-path constraint the step only considers runs of pairwise
distinct states, which makes the method complete for finite systems
given a large enough k.

Both phases are incremental (Een & Sorensson, "Temporal Induction by
Incremental SAT Solving", BMC 2003): each keeps one unroller whose
solver and Tseitin encoder persist across k, and each adds one frame
and one query per k.  The base case (`bmc.bmc`) checks depth k only:
depths below k are clean, and each keeps `not bad` as a permanent
unit.  The step adds `not bad(k-1)` as a permanent unit and assumes
`bad(k)`.  So each k costs one new frame per phase: its copy (the
step's first frame is the template as it is), one read of its state
literals, which the step keeps for every later k, and the encoding of
its new nodes; asking the encoder again for `bad(k-1)`, already
encoded, walks nothing.
Simple-path constraints are added lazily (Sheeran, Singh & Stalmarck,
FMCAD 2000): only for the frame pairs that a step model does not show
distinct, after which the step is solved again.  These constraints hold
for every larger k, so they stay.  The step fails only on a model whose
states are pairwise distinct however its unconstrained bits are set, so
the verdict, and `k_used`, equal those of adding all O(k^2) constraints
up front.

Both unrollers copy one template, cut to the cone of influence of
`bad` (`bmc.Template`), so a state is the cone's state bits and simple
paths range over those alone.  The cone is a closed system whose runs
are the projections of the design's runs, so `bad` is reachable in one
exactly when in the other.  States distinct on the cone are distinct
on the whole state, so a simple path of the cone is one of the design,
and the step can only hold sooner: on a design with state outside the
cone, `k_used` can go down but never up, and verdicts are unchanged.
"""

from __future__ import annotations

from collections.abc import Callable

from svsec.engine import sat
from svsec.engine.aig import TRUE
from svsec.engine.bmc import DEFAULT_BUDGET, Template, Unroller, bmc
from svsec.engine.result import Proven, Unknown
from svsec.props.obligation import SafetyObligation


def k_induction(obl: SafetyObligation, max_k: int,
                budget: int = DEFAULT_BUDGET):
    """Prove, falsify, or give up on `obl` with k up to `max_k`.

    `budget` bounds the solver work of the whole check, base case and
    step together; the query that runs out of it gives Unknown naming
    its phase and k.  The work counts are deterministic, so the verdict
    does not depend on machine speed or load.
    """
    template = Template(obl)
    base_un = Unroller(obl, template)
    step_un = Unroller(obl, template, free_initial=True)
    states: list[list[int]] = []  # the step's state literals per frame

    def left() -> int:
        return budget - base_un.solver.work() - step_un.solver.work()

    for k in range(max_k + 1):
        res = bmc(base_un, k, left())
        if res == sat.UNKNOWN:
            return out_of_budget("base case", k, budget)
        if res is not None:
            return res

        status = _step(step_un, k, left, states)
        if status == sat.UNSAT:
            return Proven(k_used=k)
        if status == sat.UNKNOWN:
            return out_of_budget("induction step", k, budget)
    return Unknown(max_k=max_k, reason="induction depth exhausted")


def out_of_budget(phase: str, k: int, budget: int) -> Unknown:
    return Unknown(max_k=k, reason=(
        f"{phase} at k={k} exceeded the work budget of {budget}"))


def _step(un: Unroller, k: int, left: Callable[[], int],
          states: list[list[int]]) -> int:
    """Solve: frames 0..k-1 good, frame k bad, states distinct.

    Called for k = 0, 1, 2, ... on the same unroller and `states`, each
    solve with the `left()` work of the check.  `states` holds the state
    literals of frames 0..k-1, and this call adds frame k's.  UNSAT
    means the step holds at k.
    """
    if k > 0:
        un.add_unit(-un.cnf.encode([un.bad(k - 1)])[0])
    (bad_lit,) = un.cnf.encode([un.bad(k)])
    states.append(un.state_lits(k))
    while True:
        status, model = un.solve([bad_lit], left())
        if status != sat.SAT:
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
    var_of_node = un.cnf.var_of_node
    mask = value = 0
    bit = 1  # the bit of the position at hand
    for lit in lits:
        if lit <= TRUE:
            mask |= bit
            if lit:
                value |= bit
        else:
            v = var_of_node.get(lit >> 1)
            if v is not None:
                mask |= bit
                if model[v - 1] ^ (lit & 1):
                    value |= bit
        bit <<= 1
    return mask, value
