"""Assertion text parser.

Grammar (clocking is implicit: the design's single posedge clock):

    property := [ "disable" "iff" "(" expr ")" ]
                expr [ ("|->" | "|=>") expr ]

Expressions are a design's, which the elaborator judges when
`compile_obligation` lowers them, plus the sampled-value functions
$past(e[, n]), $rose(e), $fell(e) and $stable(e).  Antecedent and
consequent are boolean-coerced (|reduction of wide values).
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
            _validate(part, ts.clock, errs)
    if errs:
        return None, errs
    return prop, []


def _validate(e: ast.Expr, clock: str | None, errs: list[Diagnostic]) -> None:
    """The rules only a property has: the implicit clock stays out, and
    the sampled-value functions take their own arguments.  Names,
    selects and operators are the elaborator's to judge, as in a design
    (`compile_obligation`)."""
    for x in ast.walk(e):
        if isinstance(x, ast.Ident) and x.name == clock:
            errs.append(Diagnostic(
                Severity.ERROR, f"clock {x.name!r} cannot appear in a property"))
        elif isinstance(x, ast.SysCall) and x.name not in _SAMPLED:
            errs.append(Diagnostic(Severity.UNSUPPORTED,
                                   f"system function {x.name} not supported"))
        elif isinstance(x, ast.SysCall) and x.name != "$past":
            if len(x.args) != 1:
                errs.append(Diagnostic(Severity.ERROR,
                                       f"{x.name} takes exactly one argument"))
        elif isinstance(x, ast.SysCall):
            if not 1 <= len(x.args) <= 2:
                errs.append(Diagnostic(Severity.ERROR,
                                       "$past takes one or two arguments"))
            elif (n := _past_depth(x)) is None or n < 1:
                errs.append(Diagnostic(
                    Severity.ERROR, "$past depth must be a positive constant"))
            elif n > PAST_DEPTH_CAP:
                errs.append(Diagnostic(
                    Severity.ERROR, f"$past depth {n} exceeds cap {PAST_DEPTH_CAP}"))


def _past_depth(call: ast.SysCall) -> int | None:
    if len(call.args) == 1:
        return 1
    arg = call.args[1]
    if isinstance(arg, ast.Number):
        return arg.value
    return None


def _max_past(e: ast.Expr) -> int:
    """The most cycles of history one path down `e` reads."""
    deepest = 0
    stack = [(e, 0)]
    while stack:
        e, d = stack.pop()
        if not isinstance(e, ast.SysCall):
            stack += [(sub, d) for sub in ast.children(e)]
        elif e.name in _SAMPLED:
            d += (_past_depth(e) or 1) if e.name == "$past" else 1
            deepest = max(deepest, d)
            stack += [(a, d) for a in e.args[:1]]
    return deepest
