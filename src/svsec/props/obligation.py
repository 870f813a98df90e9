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
    lookback: int
    bad_name: str = BAD

    def bad_expr(self) -> ex.Expr:
        for name, e in self.augmented.defines:
            if name == self.bad_name:
                return e
        raise KeyError(self.bad_name)


class _History:
    """Allocates $past shift-register chains, shared across the property."""

    def __init__(self, ts: TransitionSystem):
        self.ts = ts
        self.chains: dict[ex.Expr, tuple[str, int]] = {}  # expr -> (base, depth)
        self.widths: dict[str, int] = {}

    def register(self, e: ex.Expr, depth: int) -> str:
        if e in self.chains:
            base, have = self.chains[e]
            self.chains[e] = (base, max(have, depth))
        else:
            base = f"__p{len(self.chains)}"
            self.chains[e] = (base, depth)
        base = self.chains[e][0]
        for k in range(1, self.chains[e][1] + 1):
            self.widths[f"{base}_{k}"] = e.width
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


def _rewrite_sampled(e: ast.Expr) -> ast.Expr:
    """Lower $rose/$fell/$stable into $past before history allocation."""
    if isinstance(e, ast.SysCall):
        arg = _rewrite_sampled(e.args[0]) if e.args else None
        if e.name == "$rose":
            return ast.Binary(op="&&", left=arg,
                              right=ast.Unary(op="!",
                                              operand=ast.SysCall(name="$past",
                                                                  args=(arg,))))
        if e.name == "$fell":
            return ast.Binary(op="&&", left=ast.Unary(op="!", operand=arg),
                              right=ast.SysCall(name="$past", args=(arg,)))
        if e.name == "$stable":
            return ast.Binary(op="==", left=arg,
                              right=ast.SysCall(name="$past", args=(arg,)))
        if e.name == "$past":
            rest = tuple(e.args[1:])
            return ast.SysCall(name="$past", args=(arg,) + rest)
        return e
    if isinstance(e, ast.Unary):
        return ast.Unary(op=e.op, operand=_rewrite_sampled(e.operand))
    if isinstance(e, ast.Binary):
        return ast.Binary(op=e.op, left=_rewrite_sampled(e.left),
                          right=_rewrite_sampled(e.right))
    if isinstance(e, ast.Ternary):
        return ast.Ternary(cond=_rewrite_sampled(e.cond),
                           then=_rewrite_sampled(e.then),
                           other=_rewrite_sampled(e.other))
    if isinstance(e, ast.Index):
        return ast.Index(base=_rewrite_sampled(e.base), index=e.index)
    if isinstance(e, ast.RangeSelect):
        return ast.RangeSelect(base=_rewrite_sampled(e.base), msb=e.msb,
                               lsb=e.lsb)
    return e


def _resolve_past(e: ast.Expr, scope: Scope, hist: _History) -> ast.Expr:
    """Replace each $past call with a reference to its history register."""
    if isinstance(e, ast.SysCall):
        assert e.name == "$past"
        inner = _resolve_past(e.args[0], scope, hist)
        depth = e.args[1].value if len(e.args) > 1 else 1
        ir = _elab_expr(inner, scope, {})
        name = hist.register(ir, depth)
        scope.widths[name] = ir.width
        return ast.Ident(name=name)
    if isinstance(e, ast.Unary):
        return ast.Unary(op=e.op, operand=_resolve_past(e.operand, scope, hist))
    if isinstance(e, ast.Binary):
        return ast.Binary(op=e.op, left=_resolve_past(e.left, scope, hist),
                          right=_resolve_past(e.right, scope, hist))
    if isinstance(e, ast.Ternary):
        return ast.Ternary(cond=_resolve_past(e.cond, scope, hist),
                           then=_resolve_past(e.then, scope, hist),
                           other=_resolve_past(e.other, scope, hist))
    if isinstance(e, ast.Index):
        return ast.Index(base=_resolve_past(e.base, scope, hist), index=e.index)
    if isinstance(e, ast.RangeSelect):
        return ast.RangeSelect(base=_resolve_past(e.base, scope, hist),
                               msb=e.msb, lsb=e.lsb)
    return e


def compile_obligation(prop: PropertyAst,
                       ts: TransitionSystem) -> SafetyObligation:
    scope = Scope(prefix="", widths=dict(ts.widths))
    hist = _History(ts)

    def lower(e: ast.Expr | None) -> ex.Expr | None:
        if e is None:
            return None
        resolved = _resolve_past(_rewrite_sampled(e), scope, hist)
        return ex.boolify(_elab_expr(resolved, scope, {}))

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
    lookback = prop.lookback()
    warm = lookback if hist.chains else 0
    for k in range(1, warm + 1):
        name = f"__v_{k}"
        extra_states.append(StateVar(name=name, width=1, reset=0))
        extra_next[name] = ex.BV(1, 1) if k == 1 else ex.Ref(1, f"__v_{k - 1}")
    if warm:
        bad = ex.binop("and", bad, ex.Ref(1, f"__v_{warm}"))

    augmented = ts.with_extra(extra_states, extra_next, [(BAD, bad)])
    return SafetyObligation(augmented=augmented, prop=prop, lookback=lookback)


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
