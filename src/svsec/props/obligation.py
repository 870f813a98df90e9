"""Compile a parsed assertion into a safety obligation.

The obligation is the design's transition system augmented with:
  * one shift-register chain per distinct $past argument (reset to 0),
  * a 1-cycle antecedent delay register for non-overlapped implication,
  * a warm-up chain gating the check until enough history exists,
  * shadow registers for the disable-iff guard where the check window
    spans more than the current cycle,
plus a single 1-bit define `__bad` that is true exactly in the cycles
where the assertion is violated.

These names all start with `__`.  When a design's own signal names
start so too, every added name starts with one `_` more than the
longest run of `_` that starts one of them, so no added name is a
design's.
"""

from __future__ import annotations

from svsec.frontend import ast
from svsec.ir import expr as ex
from svsec.ir.elaborate import Scope, _elab_expr
from svsec.ir.transition import StateVar, TransitionSystem
from svsec.props.parse import PropertyAst, _past_depth

BAD = "__bad"


class SafetyObligation:
    """Augmented transition system with a single violation indicator."""

    def __init__(self, augmented: TransitionSystem, prop: PropertyAst,
                 bad_name: str = BAD):
        self.augmented = augmented
        self.prop = prop
        self.bad_name = bad_name


def _prefix(ts: TransitionSystem) -> str:
    """`__`, or the shortest run of `_` that starts no name of `ts`."""
    prefix = "__"
    while any(name.startswith(prefix) for name in ts.widths):
        prefix += "_"
    return prefix


class _History:
    """Allocates $past shift-register chains, shared across the property."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.chains: dict[ex.Expr, tuple[str, int]] = {}  # expr -> (base, depth)

    def register(self, e: ex.Expr, depth: int) -> str:
        base, have = self.chains.get(
            e, (f"{self.prefix}p{len(self.chains)}", 0))
        self.chains[e] = (base, max(have, depth))
        return f"{base}_{depth}"

    def states(self) -> tuple[list[StateVar], dict[str, ex.Expr]]:
        extra: list[StateVar] = []
        nxt: dict[str, ex.Expr] = {}
        for e, (base, depth) in self.chains.items():
            for k in range(1, depth + 1):
                name = f"{base}_{k}"
                extra.append(StateVar(name, e.width, 0))
                nxt[name] = e if k == 1 else ex.Ref(e.width, f"{base}_{k - 1}")
        return extra, nxt


def _lower_sampled(e: ast.Expr, scope: Scope, hist: _History,
                   refs: dict[str, ex.Expr]) -> ast.Expr:
    """Replace each sampled-value call with a reference to the history
    register of its (lowered) argument: $past directly, $rose, $fell and
    $stable as the comparison of the argument with that reference.

    A reference is an identifier that `refs` resolves to its register.
    Its name starts with `$`, which no parsed identifier does, so a
    property cannot name a history register itself.

    The argument is lowered before its own chain is registered, so
    chains are allocated in post-order; their order fixes the variable
    order of everything downstream.  Operator chains, which the parser
    does not count as nesting, are walked in a loop down their spine.
    """
    spine = []
    while isinstance(e, (ast.Binary, ast.Unary)):
        spine.append(e)
        e = ast.children(e)[0]  # the left operand, or the only one
    if not isinstance(e, ast.SysCall):
        low = ast.map_children(
            e, lambda sub: _lower_sampled(sub, scope, hist, refs))
    else:
        arg = _lower_sampled(e.args[0], scope, hist, refs)
        ir = _elab_expr(arg, scope, refs)
        name = hist.register(ir, _past_depth(e))
        refs["$" + name] = ex.Ref(ir.width, name)
        low = past = ast.Ident("$" + name)
        if e.name == "$rose":
            low = ast.Binary("&&", arg, ast.Unary("!", past))
        elif e.name == "$fell":
            low = ast.Binary("&&", ast.Unary("!", arg), past)
        elif e.name == "$stable":
            low = ast.Binary("==", arg, past)
    for node in reversed(spine):
        below = ast.children(node)[0]
        low = ast.map_children(node, lambda sub: low if sub is below else
                               _lower_sampled(sub, scope, hist, refs))
    return low


def compile_obligation(prop: PropertyAst,
                       ts: TransitionSystem) -> SafetyObligation:
    scope = Scope(prefix="", widths=ts.widths)
    prefix = _prefix(ts)
    hist = _History(prefix)
    refs: dict[str, ex.Expr] = {}

    def lower(e: ast.Expr | None) -> ex.Expr | None:
        if e is None:
            return None
        return ex.boolify(_elab_expr(_lower_sampled(e, scope, hist, refs),
                                     scope, refs))

    disable = lower(prop.disable)
    antecedent = lower(prop.antecedent)
    consequent = lower(prop.consequent)
    assert consequent is not None

    extra_states, extra_next = hist.states()

    # Non-overlapped implication: check one cycle after the antecedent.
    if prop.nonoverlapped:
        ant_now = antecedent if antecedent is not None else ex.BV(1, 1)
        ant = f"{prefix}ant"
        extra_states.append(StateVar(ant, 1, 0))
        extra_next[ant] = ant_now
        fire: ex.Expr = ex.Ref(1, ant)
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
            dis = f"{prefix}dis"
            extra_states.append(StateVar(dis, 1, 1))
            extra_next[dis] = disable
            bad = ex.binop("and", bad, ex.unop("not", ex.Ref(1, dis)))

    # Warm-up: no obligation until every history register holds real
    # data, counting the extra cycle a delayed antecedent looks back.
    warm = prop.lookback() if hist.chains else 0
    for k in range(1, warm + 1):
        name = f"{prefix}v_{k}"
        extra_states.append(StateVar(name, 1, 0))
        extra_next[name] = (ex.BV(1, 1) if k == 1
                            else ex.Ref(1, f"{prefix}v_{k - 1}"))
    if warm:
        bad = ex.binop("and", bad, ex.Ref(1, f"{prefix}v_{warm}"))

    bad_name = f"{prefix}bad"
    augmented = ts.with_extra(extra_states, extra_next, [(bad_name, bad)])
    return SafetyObligation(augmented, prop, bad_name)


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
