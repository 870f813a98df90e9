"""Assertion text parser.

Grammar (clocking is implicit: the design's single posedge clock):

    property := [ "disable" "iff" "(" expr ")" ]
                expr [ ("|->" | "|=>") expr ]

Expressions use the synthesizable-subset operators plus the sampled-value
functions $past(e[, n]), $rose(e), $fell(e) and $stable(e).  Antecedent
and consequent are boolean-coerced (|reduction of wide values).
"""

from __future__ import annotations

from svsec.frontend import ast
from svsec.frontend.diagnostics import (Diagnostic, DiagnosticError, Severity,
                                        error)
from svsec.frontend.lexer import tokenize
from svsec.frontend.parser import Parser
from svsec.ir.transition import TransitionSystem
from svsec.node import Node

PAST_DEPTH_CAP = 8

_SAMPLED = {"$past", "$rose", "$fell", "$stable"}


class PropertyAst(Node):
    """A single clocked assertion, resolved against a transition system."""
    text: str
    disable: ast.Expr | None       # disable iff guard, active-high
    antecedent: ast.Expr | None    # None for a plain invariant
    consequent: ast.Expr
    nonoverlapped: bool            # |=> rather than |->

    def lookback(self) -> int:
        """Cycles of history the obligation needs before it can fire."""
        d = _max_past(self.consequent)
        if self.disable is not None:
            d = max(d, _max_past(self.disable))
        if self.antecedent is not None:
            ant = _max_past(self.antecedent)
            d = max(d, ant + 1 if self.nonoverlapped else ant)
        return d


def parse_property(text: str,
                   ts: TransitionSystem) -> tuple[PropertyAst | None,
                                                  list[Diagnostic]]:
    tokens, diags = tokenize(text)
    if diags:
        return None, diags
    p = Parser(tokens)
    try:
        disable = None
        if p.at("disable"):
            p.next()
            p.expect("iff")
            p.expect("(")
            disable = p.parse_expr()
            p.expect(")")
        left = p.parse_expr()
        antecedent = None
        nonoverlapped = False
        if p.at("|->") or p.at("|=>"):
            nonoverlapped = p.next().text == "|=>"
            antecedent = left
            left = p.parse_expr()
        if (t := p.peek()) is not None:
            raise error(f"trailing input {t.text!r} after property", t.line, t.col)
    except DiagnosticError as e:
        return None, [e.diag]

    prop = PropertyAst(text, disable, antecedent, left, nonoverlapped)
    errs: list[Diagnostic] = []
    for part in (prop.disable, prop.antecedent, prop.consequent):
        if part is not None:
            _validate(part, ts, errs)
    if errs:
        return None, errs
    return prop, []


def _validate(e: ast.Expr, ts: TransitionSystem, errs: list[Diagnostic]) -> None:
    if isinstance(e, ast.Ident):
        if e.name == ts.clock:
            errs.append(Diagnostic(Severity.ERROR,
                                   f"clock {e.name!r} cannot appear in a property"))
        elif e.name not in ts.widths:
            errs.append(Diagnostic(Severity.ERROR, f"unknown signal {e.name!r}"))
        return
    if isinstance(e, ast.Number):
        return
    if isinstance(e, ast.SysCall):
        if e.name not in _SAMPLED:
            errs.append(Diagnostic(Severity.UNSUPPORTED,
                                   f"system function {e.name} not supported"))
            return
        if e.name == "$past":
            if not 1 <= len(e.args) <= 2:
                errs.append(Diagnostic(Severity.ERROR,
                                       "$past takes one or two arguments"))
                return
            n = _past_depth(e)
            if n is None or n < 1:
                errs.append(Diagnostic(Severity.ERROR,
                                       "$past depth must be a positive constant"))
            elif n > PAST_DEPTH_CAP:
                errs.append(Diagnostic(Severity.ERROR,
                                       f"$past depth {n} exceeds cap {PAST_DEPTH_CAP}"))
            _validate(e.args[0], ts, errs)
            return
        if len(e.args) != 1:
            errs.append(Diagnostic(Severity.ERROR,
                                   f"{e.name} takes exactly one argument"))
            return
        _validate(e.args[0], ts, errs)
        return
    if isinstance(e, (ast.Unary, ast.Binary, ast.Ternary)):
        for sub in ast.children(e):
            _validate(sub, ts, errs)
    elif isinstance(e, ast.Index):
        _validate(e.base, ts, errs)
        if not isinstance(e.index, ast.Number):
            errs.append(Diagnostic(Severity.UNSUPPORTED,
                                   "dynamic bit select not supported in properties"))
    elif isinstance(e, ast.RangeSelect):
        _validate(e.base, ts, errs)
        for b in (e.msb, e.lsb):
            if not isinstance(b, ast.Number):
                errs.append(Diagnostic(Severity.ERROR,
                                       "part-select bounds must be constant"))
    elif isinstance(e, (ast.Concat, ast.Replicate)):
        errs.append(Diagnostic(Severity.UNSUPPORTED,
                               "concatenation not supported in properties"))


def _past_depth(call: ast.SysCall) -> int | None:
    if len(call.args) == 1:
        return 1
    arg = call.args[1]
    if isinstance(arg, ast.Number):
        return arg.value
    return None


def _max_past(e: ast.Expr) -> int:
    if isinstance(e, ast.SysCall):
        if e.name == "$past":
            n = _past_depth(e) or 1
            return n + max((_max_past(a) for a in e.args[:1]), default=0)
        if e.name in ("$rose", "$fell", "$stable"):
            return 1 + _max_past(e.args[0])
        return 0
    return max(map(_max_past, ast.children(e)), default=0)
