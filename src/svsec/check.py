"""One-call design adjudication: source text in, verdict out."""

from __future__ import annotations

from svsec.engine.bmc import DEFAULT_BUDGET
from svsec.engine.induction import k_induction
from svsec.engine.result import CompileError, Falsified, Proven, Unknown
from svsec.frontend import ast, parse_source
from svsec.ir import expr as ex
from svsec.ir.elaborate import ElabError, elaborate
from svsec.props import compile_obligation, parse_property
from svsec.props.obligation import SafetyObligation

DEFAULT_MAX_K = 32


def check_design(source: str, top: str, property_text: str,
                 max_k: int = DEFAULT_MAX_K,
                 budget: int = DEFAULT_BUDGET):
    """Parse, elaborate, compile the property, and run k-induction.

    Returns Proven | Falsified | Unknown | CompileError.  Falsified
    verdicts carry the source line whose assignment produced the
    violating value.  `budget` bounds the check's solver work in the
    units of `sat.work_units()`; a check that runs out of it is Unknown,
    on every machine and under any load.
    """
    unit, diags = parse_source(source)
    if unit is None:
        return CompileError(diagnostics=diags)
    ts, line_map, ediags = elaborate(unit, top)
    if ts is None:
        return CompileError(diagnostics=ediags)
    prop, pdiags = parse_property(property_text, ts)
    if prop is None:
        return CompileError(diagnostics=pdiags)
    try:
        obl = compile_obligation(prop, ts)
    except ElabError as e:
        return CompileError(diagnostics=[e.diag])
    verdict = k_induction(obl, max_k=max_k, budget=budget)
    if isinstance(verdict, Falsified):
        sig, line = locate_culprit(obl, line_map, verdict)
        verdict.culprit_signal = sig
        verdict.culprit_line = line
    return verdict


def locate_culprit(obl: SafetyObligation, line_map: dict,
                   verdict: Falsified) -> tuple[str, int]:
    """Find the assignment that produced the violating value.

    The consequent failed at cycle `depth`; the state signals it reads
    took their values at the clock edge entering that cycle, so the
    per-signal line trackers are evaluated in the previous cycle's
    environment.
    """
    consequent = obl.prop.consequent
    names = sorted(_ast_idents(consequent))
    depth = verdict.depth
    candidates = []
    for name in names:
        tracker = line_map.get(name)
        if tracker is None:
            continue
        if isinstance(tracker, int):
            candidates.append((name, tracker))
        elif depth > 0:
            env = verdict.trace.values[depth - 1]
            candidates.append((name, ex.eval_expr(tracker, env)))
    for name, line in candidates:
        if line:
            return name, line
    if candidates:
        return candidates[0]
    return "", 0


def _ast_idents(e: ast.Expr, acc: set[str] | None = None) -> set[str]:
    if acc is None:
        acc = set()
    if isinstance(e, ast.Ident):
        acc.add(e.name)
    for sub in ast.children(e):
        _ast_idents(sub, acc)
    return acc
