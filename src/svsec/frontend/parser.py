"""Recursive-descent parser for the SystemVerilog subset.

Syntax errors produce error diagnostics; recognised-but-unsupported
constructs (classes, interfaces, generate blocks, functions, ...)
produce `unsupported` diagnostics instead of a parse crash.

The hot paths read a list of the token texts, and build AST nodes with
positional arguments, which a `Node` binds faster than keywords.
"""

from __future__ import annotations

import re

from svsec.frontend import ast
from svsec.frontend.diagnostics import (Diagnostic, DiagnosticError, Severity,
                                        error)
from svsec.frontend.lexer import Token, TokenKind, tokenize

_UNSUPPORTED_ITEMS = {
    "initial": ";",
    "final": ";",
    "function": "endfunction",
    "task": "endtask",
    "generate": "endgenerate",
    "typedef": ";",
    "enum": ";",
    "struct": ";",
    "genvar": ";",
    "defparam": ";",
    "specify": "endspecify",
}

_UNSUPPORTED_UNITS = {
    "class": "endclass",
    "interface": "endinterface",
    "program": "endprogram",
    "package": "endpackage",
    "property": "endproperty",
    "sequence": "endsequence",
}

_OPENERS = ("begin", "case", "casez", "casex")
_CLOSERS = ("end", "endcase")
_NESTING = {**dict.fromkeys(_OPENERS, 1), **dict.fromkeys(_CLOSERS, -1)}

_NET_KINDS = {"logic", "reg", "wire", "bit", "integer", "int", "byte"}
_TYPE_WORDS = _NET_KINDS | {"signed", "unsigned"}
_DIRECTIONS = {"input", "output", "inout"}

# Binding strength of each binary operator; all are left-associative.
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, "<<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_UNARY_OPS = frozenset(("~", "!", "-", "+", "&", "|", "^"))

# The most `parse_expr` and `parse_stmt` calls open at once in a module
# item or property, so that no later stage runs out of stack.
NESTING_CAP = 150

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_FOUR_STATE = re.compile(r"[xXzZ?]")


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.depth = 0  # open parse_expr and parse_stmt calls
        # The token and the text at each position, then three Nones: the
        # position never passes one beyond the end (`_skip_item` steps
        # over `: label` after a final `:`), and a look reads one further.
        self._toks: list[Token | None] = [*tokens, None, None, None]
        self._texts: list[str | None] = [t.text for t in tokens]
        self._texts += (None, None, None)

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        return self._toks[self.pos + offset]

    def at(self, text: str, offset: int = 0) -> bool:
        return self._texts[self.pos + offset] == text

    def next(self) -> Token:
        t = self._toks[self.pos]
        if t is None:
            raise self._error(t, "unexpected end of input")
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self._toks[self.pos]
        if self._texts[self.pos] != text:
            raise self._error(t, f"expected {text!r}, got {_text(t)!r}")
        self.pos += 1
        return t

    def _error(self, t: Token | None, message: str,
               severity: Severity = Severity.ERROR) -> DiagnosticError:
        """`message` at token `t`, or at the last token at end of input."""
        if t is None and self.tokens:
            t = self.tokens[-1]
        line, col = (t.line, t.col) if t is not None else (1, 1)
        return error(message, line, col, severity)

    def _open(self) -> None:
        """Count a level opened at the next token, up to `NESTING_CAP`."""
        self.depth += 1
        if self.depth > NESTING_CAP:
            raise self._error(self._toks[self.pos], "nesting deeper than "
                              f"{NESTING_CAP} levels is not supported",
                              Severity.UNSUPPORTED)

    def _comma_list(self, item, close: str, empty: bool = False) -> list:
        """`item {, item} close`; with `empty`, a bare `close` too."""
        out = []
        if not (empty and self.at(close)):
            out.append(item())
            while self.at(","):
                self.next()
                out.append(item())
        self.expect(close)
        return out

    def _skip_until(self, *stops: str) -> None:
        depth = 0
        while self.peek() is not None:
            t = self.peek()
            if depth == 0 and t.text in stops:
                self.pos += 1
                return
            if t.text in _OPENERS:
                depth += 1
            elif t.text in _CLOSERS and depth > 0:
                depth -= 1
            self.pos += 1

    def _skip_item(self, start: int) -> None:
        """Skip the rest of the module item that begins at token `start`
        and failed to parse: up to the `;`, `end` or `endcase` that
        closes it at its own nesting depth, through a block label and any
        `else` arms, and never past `endmodule`."""
        depth = sum(_NESTING.get(t.text, 0)
                    for t in self.tokens[start:self.pos])
        while (t := self.peek()) is not None and t.text != "endmodule":
            self.pos += 1
            depth += _NESTING.get(t.text, 0)
            if depth <= 0 and (t.text == ";" or t.text in _CLOSERS):
                if t.text == "end" and self.at(":"):
                    self.pos += 2  # `: label`
                if not self.at("else"):
                    return
                depth = 0

    # -- top level ---------------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        modules = []
        while self.peek() is not None:
            t = self.peek()
            if t.text == "module":
                try:
                    modules.append(self.parse_module())
                except DiagnosticError as e:
                    self.diags.append(e.diag)
                    self._skip_until("endmodule")
                    self.depth = 0
            elif t.text in _UNSUPPORTED_UNITS:
                self.diags.append(Diagnostic(
                    Severity.UNSUPPORTED, f"{t.text} declarations are not supported",
                    t.line, t.col))
                self.pos += 1
                self._skip_until(_UNSUPPORTED_UNITS[t.text])
            elif t.text in ("timeunit", "timeprecision", "import"):
                self.pos += 1
                self._skip_until(";")
            else:
                self.diags.append(Diagnostic(
                    Severity.ERROR, f"expected 'module', got {t.text!r}", t.line, t.col))
                self.pos += 1
        return ast.SourceUnit(tuple(modules))

    def parse_module(self) -> ast.ModuleDecl:
        kw = self.expect("module")
        name = self._expect_ident("module name")
        params: list[ast.ParamDecl] = []
        if self.at("#"):
            self.next()
            params = self._parse_header_params()
        ports: list[ast.Port] = []
        if self.at("("):
            ports = self._parse_port_list()
        self.expect(";")

        items: list[ast.ModuleItem] = []
        while not self.at("endmodule"):
            t = self.peek()
            if t is None:
                raise self._error(kw, "missing 'endmodule'")
            start = self.pos
            try:
                if t.text in ("parameter", "localparam"):
                    items.extend(self._parse_param_decl())
                elif t.text in _NET_KINDS or (t.text in _DIRECTIONS):
                    items.extend(self._parse_net_decl())
                elif t.text == "assign":
                    items.append(self._parse_continuous_assign())
                elif t.text in ("always", "always_ff", "always_comb", "always_latch"):
                    items.append(self._parse_always())
                elif t.text in _UNSUPPORTED_ITEMS:
                    self.diags.append(Diagnostic(
                        Severity.UNSUPPORTED,
                        f"{t.text} blocks are not supported", t.line, t.col))
                    self.pos += 1
                    self._skip_until(_UNSUPPORTED_ITEMS[t.text])
                elif t.kind == TokenKind.IDENT:
                    items.append(self._parse_instance())
                elif t.text == ";":
                    self.pos += 1
                else:
                    raise self._error(t, f"unexpected {t.text!r} in module body")
            except DiagnosticError as e:
                self.diags.append(e.diag)
                self._skip_item(start)
                self.depth = 0  # the failed item's levels are closed
        self.expect("endmodule")
        return ast.ModuleDecl(name, tuple(ports), tuple(params), tuple(items),
                              kw.line)

    def _expect_ident(self, what: str) -> str:
        t = self.peek()
        if t is None or t.kind != TokenKind.IDENT:
            raise self._error(t, f"expected {what}, got {_text(t)!r}")
        self.pos += 1
        return t.text

    # -- headers -----------------------------------------------------------

    def _parse_header_params(self) -> list[ast.ParamDecl]:
        self.expect("(")
        # an entry without a keyword is of the kind of the last keyword
        local = False

        def entry() -> ast.ParamDecl:
            nonlocal local
            if self.at("parameter") or self.at("localparam"):
                local = self.next().text == "localparam"
            self._skip_type_words()
            return self._param_entry(local)

        return self._comma_list(entry, ")", empty=True)

    def _param_entry(self, local: bool) -> ast.ParamDecl:
        t = self.peek()
        name = self._expect_ident("parameter name")
        self.expect("=")
        return ast.ParamDecl(name, self.parse_expr(), local, t.line)

    def _skip_type_words(self) -> None:
        while self.peek() is not None and self.peek().text in _TYPE_WORDS:
            self.pos += 1
        if self.at("["):
            self._parse_range()

    def _parse_range(self) -> tuple[ast.Expr, ast.Expr]:
        self.expect("[")
        msb = self.parse_expr()
        self.expect(":")
        lsb = self.parse_expr()
        self.expect("]")
        return msb, lsb

    def _parse_port_list(self) -> list[ast.Port]:
        self.expect("(")
        # an entry without a direction, kind or range keeps the last one's
        direction = "input"
        net_kind = "logic"
        msb: ast.Expr | None = None
        lsb: ast.Expr | None = None

        def port() -> ast.Port:
            nonlocal direction, net_kind, msb, lsb
            t = self.peek()
            if t is not None and t.text in _DIRECTIONS:
                direction = t.text
                net_kind = "logic"
                msb = lsb = None
                self.pos += 1
                t = self.peek()
            if t is not None and t.text in _NET_KINDS:
                net_kind = t.text
                msb = lsb = None
                self.pos += 1
            while self.at("signed") or self.at("unsigned"):
                self.next()
            if self.at("["):
                msb, lsb = self._parse_range()
            t = self.peek()
            name = self._expect_ident("port name")
            return ast.Port(name, direction, net_kind, msb, lsb, t.line)

        return self._comma_list(port, ")", empty=True)

    # -- module items ------------------------------------------------------

    def _parse_param_decl(self) -> list[ast.ParamDecl]:
        local = self.next().text == "localparam"
        self._skip_type_words()
        return self._comma_list(lambda: self._param_entry(local), ";")

    def _parse_net_decl(self) -> list[ast.NetDecl]:
        t = self.peek()
        if t is not None and t.text in _DIRECTIONS:
            raise self._error(
                t, "non-ANSI port declarations in the module body are not supported")
        kw = self.next()
        net_kind = kw.text
        while self.at("signed") or self.at("unsigned"):
            self.next()
        msb = lsb = None
        if self.at("["):
            msb, lsb = self._parse_range()

        def net() -> ast.NetDecl:
            t = self.peek()
            name = self._expect_ident("signal name")
            unpacked = self._parse_range() if self.at("[") else None
            if self.at("="):
                raise self._error(t, "declaration initializers are not supported",
                                  Severity.UNSUPPORTED)
            return ast.NetDecl(name, net_kind, msb, lsb, unpacked, t.line)

        return self._comma_list(net, ";")

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        kw = self.expect("assign")
        target = self._parse_lvalue()
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        return ast.ContinuousAssign(target, value, kw.line)

    def _parse_always(self) -> ast.AlwaysBlock:
        kw = self.next()
        sensitivity: tuple[ast.EdgeEvent, ...] | None = None
        if self.at("@"):
            self.next()
            sensitivity = self._parse_sensitivity()
        elif kw.text == "always":
            raise self._error(kw, "always block requires a sensitivity list")
        if kw.text == "always_latch":
            raise self._error(kw, "always_latch is not supported", Severity.UNSUPPORTED)
        body = self.parse_stmt()
        return ast.AlwaysBlock(kw.text, sensitivity, body, kw.line)

    def _parse_sensitivity(self) -> tuple[ast.EdgeEvent, ...] | None:
        """Returns None for @(*) / @*, otherwise the edge list."""
        if self.at("*"):
            self.next()
            return None
        self.expect("(")
        if self.at("*"):
            self.next()
            self.expect(")")
            return None
        events = []
        while True:
            t = self.peek()
            if t is not None and t.text in ("posedge", "negedge"):
                self.next()
                sig = self._expect_ident("signal in sensitivity list")
                events.append(ast.EdgeEvent(t.text, sig))
            else:
                # Plain signal sensitivity: treat the whole list as combinational.
                self._expect_ident("signal in sensitivity list")
                events = None
                while not self.at(")"):
                    self.next()
                break
            if self.at("or") or self.at(","):
                self.next()
                continue
            break
        self.expect(")")
        return tuple(events) if events is not None else None

    def _parse_instance(self) -> ast.Instance:
        t = self.peek()
        module = self._expect_ident("module name")
        overrides: list[tuple[str, ast.Expr]] = []
        if self.at("#"):
            self.next()
            self.expect("(")
            overrides = self._comma_list(
                lambda: self._named_conn("parameter name", optional=False), ")",
                empty=True)
        name = self._expect_ident("instance name")
        self.expect("(")
        if not (self.at(")") or self.at(".")):
            raise self._error(t, "positional port connections are not supported",
                              Severity.UNSUPPORTED)
        conns = self._comma_list(
            lambda: ast.PortConn(*self._named_conn("port name", optional=True)), ")",
            empty=True)
        self.expect(";")
        return ast.Instance(module, name, tuple(conns), tuple(overrides),
                            t.line)

    def _named_conn(self, what: str, optional: bool) -> tuple[str, ast.Expr | None]:
        """`.name(expr)`; with `optional`, also `.name()`."""
        self.expect(".")
        name = self._expect_ident(what)
        self.expect("(")
        expr = None if optional and self.at(")") else self.parse_expr()
        self.expect(")")
        return name, expr

    # -- statements --------------------------------------------------------

    def parse_stmt(self) -> ast.Stmt:
        t = self.peek()
        while t is not None and t.text in ("unique", "priority"):
            self.pos += 1
            t = self.peek()
        if t is None:
            raise self._error(t, "unexpected end of input")
        self._open()
        if t.kind is TokenKind.IDENT:  # no keyword below is an identifier
            if t.text.startswith("$"):
                raise self._error(t, f"system task {t.text} is not supported",
                                  Severity.UNSUPPORTED)
            target = self._parse_lvalue()
            op = self.peek()
            if op is None or op.text not in ("<=", "="):
                raise self._error(
                    t, f"expected assignment operator, got {_text(op)!r}")
            self.pos += 1
            value = self.parse_expr()
            self.expect(";")
            stmt = ast.Assign(target, value, op.text == "<=", t.line)
        elif t.text == "begin":
            self.pos += 1
            if self.at(":"):
                self.pos += 1
                self._expect_ident("block label")
            stmts = []
            while not self.at("end"):
                if self.peek() is None:
                    raise self._error(t, "missing 'end'")
                stmts.append(self.parse_stmt())
            self.pos += 1
            if self.at(":"):
                self.pos += 1
                self._expect_ident("block label")
            stmt = ast.Block(tuple(stmts))
        elif t.text == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            other = None
            if self.at("else"):
                self.pos += 1
                other = self.parse_stmt()
            stmt = ast.If(cond, then, other, t.line)
        elif t.text in ("case", "casez", "casex"):
            stmt = self._parse_case()
        elif t.text == ";":
            self.pos += 1
            stmt = ast.Block(())
        elif t.text in ("for", "while", "repeat", "forever", "wait", "fork",
                        "disable", "return", "break", "continue"):
            raise self._error(t, f"{t.text} statements are not supported",
                              Severity.UNSUPPORTED)
        else:
            raise self._error(t, f"unexpected {t.text!r} in statement")
        self.depth -= 1
        return stmt

    def _parse_case(self) -> ast.Case:
        kw = self.next()
        if kw.text == "casex":
            raise self._error(kw, "casex is not supported", Severity.UNSUPPORTED)
        self.expect("(")
        subject = self.parse_expr()
        self.expect(")")
        items: list[ast.CaseItem] = []
        while not self.at("endcase"):
            if self.peek() is None:
                raise self._error(kw, "missing 'endcase'")
            if self.at("default"):
                t = self.next()
                if any(not item.patterns for item in items):
                    raise self._error(t, "case statement has a second default")
                if self.at(":"):
                    self.next()
                items.append(ast.CaseItem((), self.parse_stmt()))
                continue
            patterns = self._comma_list(self.parse_expr, ":")
            items.append(ast.CaseItem(tuple(patterns), self.parse_stmt()))
        self.expect("endcase")
        return ast.Case(kw.text, subject, tuple(items), kw.line)

    def _parse_lvalue(self) -> ast.LValue:
        t = self.peek()
        name = self._expect_ident("assignment target")
        index = msb = lsb = None
        if self.at("["):
            first, second = self._parse_select()
            if second is None:
                index = first
            else:
                msb, lsb = first, second
        return ast.LValue(name, index, msb, lsb, t.line)

    def _parse_select(self) -> tuple[ast.Expr, ast.Expr | None]:
        """`[e]` or `[e:e]`; the second bound is None for `[e]`."""
        self.expect("[")
        first = self.parse_expr()
        second = None
        if self.at(":"):
            self.next()
            second = self.parse_expr()
        self.expect("]")
        return first, second

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """A ternary over left-associative binary operators.

        Precedence climbing runs on an explicit stack: `pending` holds
        each operator still waiting for its right operand, weakest
        first, so an operator folds the ones before it that bind at
        least as tightly.  Only parentheses, selects, concatenations,
        calls and ternary arms recurse, and each opens a level."""
        texts = self._texts
        self._open()
        left = self._parse_operand()
        prec = _BINARY_PRECEDENCE.get(texts[self.pos], 0)
        if prec:
            operands = [left]
            pending: list[tuple[int, str]] = []
            while prec:
                while pending and pending[-1][0] >= prec:
                    right = operands.pop()
                    operands[-1] = ast.Binary(pending.pop()[1], operands[-1],
                                              right)
                pending.append((prec, texts[self.pos]))
                self.pos += 1
                operands.append(self._parse_operand())
                prec = _BINARY_PRECEDENCE.get(texts[self.pos], 0)
            left = operands.pop()
            while pending:
                left = ast.Binary(pending.pop()[1], operands.pop(), left)
        if texts[self.pos] == "?":
            self.pos += 1
            then = self.parse_expr()
            self.expect(":")
            left = ast.Ternary(left, then, self.parse_expr())
        self.depth -= 1
        return left

    def _parse_operand(self) -> ast.Expr:
        """Unary operators, then a primary and its selects, which bind
        tighter than the unary operators."""
        texts = self._texts
        unary = []
        while texts[self.pos] in _UNARY_OPS:
            unary.append(texts[self.pos])
            self.pos += 1
        t = self._toks[self.pos]
        if t is None:
            raise self._error(t, "unexpected end of expression")
        kind = t.kind
        if kind is TokenKind.SIZED_LIT or kind is TokenKind.UNSIZED_LIT:
            self.pos += 1
            expr = self._parse_number(t)
        elif kind is TokenKind.IDENT:
            self.pos += 1
            expr = self._parse_name(t.text)
        elif t.text == "(":
            self.pos += 1
            expr = self.parse_expr()
            self.expect(")")
        elif t.text == "{":
            expr = self._parse_concat()
        else:
            raise self._error(t, f"unexpected {t.text!r} in expression")
        while texts[self.pos] == "[":
            first, second = self._parse_select()
            if second is None:
                expr = ast.Index(expr, first)
            else:
                expr = ast.RangeSelect(expr, first, second)
        for op in reversed(unary):
            if op != "+":
                expr = ast.Unary(op, expr)
        return expr

    def _parse_name(self, name: str) -> ast.Expr:
        """The rest of an identifier primary: a system call's arguments,
        or a hierarchical name's further parts."""
        if name.startswith("$"):
            args: list[ast.Expr] = []
            if self.at("("):
                self.pos += 1
                args = self._comma_list(self.parse_expr, ")", empty=True)
            return ast.SysCall(name, tuple(args))
        while self.at(".") and self.peek(1) is not None \
                and self.peek(1).kind == TokenKind.IDENT:
            name += "." + self._toks[self.pos + 1].text
            self.pos += 2
        return ast.Ident(name)

    def _parse_concat(self) -> ast.Expr:
        self.expect("{")
        first = self.parse_expr()
        if self.at("{"):
            # Replication {N{a}}; a list {N{a, b}} replicates {a, b}
            self.next()
            parts = self._comma_list(self.parse_expr, "}")
            self.expect("}")
            value = parts[0] if len(parts) == 1 else ast.Concat(tuple(parts))
            return ast.Replicate(first, value)
        parts = [first]
        while self.at(","):
            self.next()
            parts.append(self.parse_expr())
        self.expect("}")
        return ast.Concat(tuple(parts))


    def _parse_number(self, t: Token) -> ast.Number:
        text = t.text
        if text[0] == '"':
            raise self._error(t, "string literals are not supported",
                              Severity.UNSUPPORTED)
        size_part, tick, rest = text.partition("'")
        if not tick:
            return ast.Number(int(text.replace("_", "")), None, None)
        if rest and rest[0] in "sS":
            rest = rest[1:]
        if rest and rest[0].lower() in _BASE_RADIX:
            base = rest[0].lower()
            digits = rest[1:].replace("_", "")
            if _FOUR_STATE.search(digits):
                raise self._error(t, "four-state literal values (x/z) are not "
                                  "supported", Severity.UNSUPPORTED)
            try:
                value = int(digits, _BASE_RADIX[base])
            except ValueError:
                raise self._error(
                    t, f"invalid digits in based literal {text!r}") from None
            width = int(size_part) if size_part else None
            if width == 0:
                raise self._error(t, f"literal {text!r} has zero width")
            if width is not None:
                value &= (1 << width) - 1
            return ast.Number(value, width, base)
        # Unbased unsized: '0, '1, 'x, 'z
        digit = rest[:1]
        if digit in ("0", "1"):
            return ast.Number(int(digit), None, "")
        raise self._error(t, "four-state literal values (x/z) are not supported",
                          Severity.UNSUPPORTED)


def _text(t: Token | None) -> str:
    return t.text if t is not None else "end of input"


def parse(tokens: list[Token]) -> tuple[ast.SourceUnit | None, list[Diagnostic]]:
    p = Parser(tokens)
    unit = p.parse_unit()  # a failed module is a diagnostic, not a raise
    return (None if p.diags else unit), p.diags


def parse_source(source: str) -> tuple[ast.SourceUnit | None, list[Diagnostic]]:
    tokens, diags = tokenize(source)
    if diags:
        return None, diags
    return parse(tokens)
