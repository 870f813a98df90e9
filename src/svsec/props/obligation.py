"""Compile a parsed assertion into a safety obligation.

The obligation is the design's transition system augmented with:
  * one shift-register chain per distinct $past argument (reset to 0),
  * a 1-cycle antecedent delay register for non-overlapped implication,
  * a warm-up chain gating the check until enough history exists,
  * shadow registers for the disable-iff guard where the check window
    spans more than the current cycle,
plus a single 1-bit define `__bad` that is true exactly in the cycles
where the assertion is violated.
"""

from __future__ import annotations

from dataclasses import dataclass

from svsec.frontend import ast
from svsec.ir import expr as ex
from svsec.ir.elaborate import Scope, _elab_expr
from svsec.ir.transition import StateVar, TransitionSystem
from svsec.props.parse import PropertyAst

BAD = "__bad"


@dataclass
class SafetyObligation:
    """Augmented transition system with a single violation indicator."""
    augmented: TransitionSystem
    prop: PropertyAst
    bad_name: str = BAD

    def bad_expr(self) -> ex.Expr:
        for name, e in self.augmented.defines:
            if name == self.bad_name:
                return e
        raise KeyError(self.bad_name)


class _History:
    """Allocates $past shift-register chains, shared across the property."""

    def __init__(self):
        self.chains: dict[ex.Expr, tuple[str, int]] = {}  # expr -> (base, depth)

    def register(self, e: ex.Expr, depth: int) -> str:
        base, have = self.chains.get(e, (f"__p{len(self.chains)}", 0))
        self.chains[e] = (base, max(have, depth))
        return f"{base}_{depth}"

    def states(self) -> tuple[list[StateVar], dict[str, ex.Expr]]:
        extra: list[StateVar] = []
        nxt: dict[str, ex.Expr] = {}
        for e, (base, depth) in self.chains.items():
            for k in range(1, depth + 1):
                name = f"{base}_{k}"
                extra.append(StateVar(name=name, width=e.width, reset=0))
                nxt[name] = e if k == 1 else ex.Ref(e.width, f"{base}_{k - 1}")
        return extra, nxt


def _lower_sampled(e: ast.Expr, scope: Scope, hist: _History) -> ast.Expr:
    """Replace each sampled-value call with a reference to the history
    register of its (lowered) argument: $past directly, $rose, $fell and
    $stable as the comparison of the argument with that reference.

    The argument is lowered before its own chain is registered, so
    chains are allocated in post-order; their order fixes the variable
    order of everything downstream.
    """
    if not isinstance(e, ast.SysCall):
        return ast.map_children(e, lambda sub: _lower_sampled(sub, scope, hist))
    arg = _lower_sampled(e.args[0], scope, hist)
    ir = _elab_expr(arg, scope, {})
    name = hist.register(ir, e.args[1].value if len(e.args) > 1 else 1)
    scope.widths[name] = ir.width
    past = ast.Ident(name=name)
    if e.name == "$rose":
        return ast.Binary(op="&&", left=arg, right=ast.Unary(op="!", operand=past))
    if e.name == "$fell":
        return ast.Binary(op="&&", left=ast.Unary(op="!", operand=arg), right=past)
    if e.name == "$stable":
        return ast.Binary(op="==", left=arg, right=past)
    return past


def compile_obligation(prop: PropertyAst,
                       ts: TransitionSystem) -> SafetyObligation:
    scope = Scope(prefix="", widths=dict(ts.widths))
    hist = _History()

    def lower(e: ast.Expr | None) -> ex.Expr | None:
        if e is None:
            return None
        return ex.boolify(_elab_expr(_lower_sampled(e, scope, hist), scope, {}))

    disable = lower(prop.disable)
    antecedent = lower(prop.antecedent)
    consequent = lower(prop.consequent)
    assert consequent is not None

    extra_states, extra_next = hist.states()

    # Non-overlapped implication: check one cycle after the antecedent.
    if prop.nonoverlapped:
        ant_now = antecedent if antecedent is not None else ex.BV(1, 1)
        extra_states.append(StateVar(name="__ant", width=1, reset=0))
        extra_next["__ant"] = ant_now
        fire: ex.Expr = ex.Ref(1, "__ant")
    elif antecedent is not None:
        fire = antecedent
    else:
        fire = ex.BV(1, 1)

    bad = ex.binop("and", fire, ex.unop("not", consequent))

    if disable is not None:
        bad = ex.binop("and", bad, ex.unop("not", disable))
        if prop.nonoverlapped:
            # The attempt is also aborted if disable held at the
            # antecedent cycle; reset to 1 treats pre-trace as disabled.
            extra_states.append(StateVar(name="__dis", width=1, reset=1))
            extra_next["__dis"] = disable
            bad = ex.binop("and", bad, ex.unop("not", ex.Ref(1, "__dis")))

    # Warm-up: no obligation until every history register holds real
    # data, counting the extra cycle a delayed antecedent looks back.
    warm = prop.lookback() if hist.chains else 0
    for k in range(1, warm + 1):
        name = f"__v_{k}"
        extra_states.append(StateVar(name=name, width=1, reset=0))
        extra_next[name] = ex.BV(1, 1) if k == 1 else ex.Ref(1, f"__v_{k - 1}")
    if warm:
        bad = ex.binop("and", bad, ex.Ref(1, f"__v_{warm}"))

    augmented = ts.with_extra(extra_states, extra_next, [(BAD, bad)])
    return SafetyObligation(augmented=augmented, prop=prop)


def evaluate_on_trace(obl: SafetyObligation, trace) -> int | None:
    """Replay `trace` against the augmented system.

    Returns the first cycle whose `__bad` is set, or None.  The trace
    only needs `initial` and `inputs`; augmented registers start at
    their reset values.  The replay fills in the trace's `states` and
    `values`.
    """
    trace.replay(obl.augmented)
    return next((t for t, env in enumerate(trace.values)
                 if env[obl.bad_name]), None)
