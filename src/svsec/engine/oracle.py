"""Explicit-state breadth-first search: desk-scale ground truth.

Enumerates every reachable state over every input valuation and
reports the exact minimal violation depth, or no-violation once the
reachable set is closed.  Refuses instances above the bit caps rather
than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from svsec.ir.transition import compile_stepper
from svsec.props.obligation import SafetyObligation

STATE_BIT_CAP = 22
INPUT_BIT_CAP = 14


@dataclass
class OracleResult:
    violated: bool
    min_depth: int | None = None


class OracleRefused(Exception):
    pass


def explicit_state_oracle(obl: SafetyObligation,
                          state_bit_cap: int = STATE_BIT_CAP,
                          input_bit_cap: int = INPUT_BIT_CAP) -> OracleResult:
    ts = obl.augmented
    if ts.state_bits() > state_bit_cap:
        raise OracleRefused(
            f"{ts.state_bits()} state bits exceed cap {state_bit_cap}")
    if ts.input_bits() > input_bit_cap:
        raise OracleRefused(
            f"{ts.input_bits()} input bits exceed cap {input_bit_cap}")

    step = compile_stepper(ts)
    bad_index = obl.bad_name

    free_widths = [s.width for s in ts.states if s.reset is None]
    initial: set[tuple[int, ...]] = set()
    free_iters = [range(1 << w) for w in free_widths]
    for free_vals in product(*free_iters):
        it = iter(free_vals)
        initial.add(tuple(next(it) if s.reset is None else s.reset
                          for s in ts.states))

    all_inputs = [tuple(vals) for vals in
                  product(*[range(1 << w) for _, w in ts.inputs])]

    visited: set[tuple[int, ...]] = set(initial)
    frontier = sorted(initial)
    depth = 0
    while frontier:
        nxt_frontier: set[tuple[int, ...]] = set()
        for state in frontier:
            for ins in all_inputs:
                nxt, env = step(state, ins)
                if env[bad_index]:
                    return OracleResult(violated=True, min_depth=depth)
                if nxt not in visited:
                    visited.add(nxt)
                    nxt_frontier.add(nxt)
        frontier = sorted(nxt_frontier)
        depth += 1
    return OracleResult(violated=False)
