"""Recursive-descent parser for the SystemVerilog subset.

Syntax errors produce error diagnostics; recognised-but-unsupported
constructs (classes, interfaces, generate blocks, functions, ...)
produce `unsupported` diagnostics instead of a parse crash.
"""

from __future__ import annotations

from svsec.frontend import ast
from svsec.frontend.diagnostics import Diagnostic, Severity
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

_NET_KINDS = {"logic", "reg", "wire", "bit", "integer", "int", "byte"}
_DIRECTIONS = {"input", "output", "inout"}


class ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def at(self, text: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.text == text

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError(Diagnostic(Severity.ERROR, "unexpected end of input",
                                        *self._last_loc()))
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            got = t.text if t else "end of input"
            line, col = (t.line, t.col) if t else self._last_loc()
            raise ParseError(Diagnostic(Severity.ERROR, f"expected {text!r}, got {got!r}",
                                        line, col))
        self.pos += 1
        return t

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

    def _last_loc(self) -> tuple[int, int]:
        if self.tokens:
            t = self.tokens[min(self.pos, len(self.tokens) - 1)]
            return t.line, t.col
        return 1, 1

    def _skip_until(self, *stops: str) -> None:
        depth = 0
        while self.peek() is not None:
            t = self.peek()
            if depth == 0 and t.text in stops:
                self.pos += 1
                return
            if t.text in ("begin", "case", "casez", "casex"):
                depth += 1
            elif t.text in ("end", "endcase") and depth > 0:
                depth -= 1
            self.pos += 1

    # -- top level ---------------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        modules = []
        while self.peek() is not None:
            t = self.peek()
            if t.text == "module":
                try:
                    modules.append(self.parse_module())
                except ParseError as e:
                    self.diags.append(e.diag)
                    self._skip_until("endmodule")
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
        return ast.SourceUnit(modules=tuple(modules))

    def parse_module(self) -> ast.ModuleDecl:
        kw = self.expect("module")
        name = self._expect_ident("module name")
        params: list[ast.ParamDecl] = []
        if self.at("#"):
            self.next()
            params.extend(self._parse_header_params())
        ports: list[ast.Port] = []
        if self.at("("):
            ports = self._parse_port_list()
        self.expect(";")

        decls: list[ast.NetDecl] = []
        assigns: list[ast.ContinuousAssign] = []
        always_blocks: list[ast.AlwaysBlock] = []
        instances: list[ast.Instance] = []
        order: list[tuple[str, int]] = []

        while not self.at("endmodule"):
            t = self.peek()
            if t is None:
                raise ParseError(Diagnostic(Severity.ERROR,
                                            "missing 'endmodule'", kw.line, kw.col))
            try:
                if t.text in ("parameter", "localparam"):
                    for p in self._parse_param_decl():
                        params.append(p)
                        order.append(("param", len(params) - 1))
                elif t.text in _NET_KINDS or (t.text in _DIRECTIONS):
                    for d in self._parse_net_decl():
                        decls.append(d)
                        order.append(("decl", len(decls) - 1))
                elif t.text == "assign":
                    assigns.append(self._parse_continuous_assign())
                    order.append(("assign", len(assigns) - 1))
                elif t.text in ("always", "always_ff", "always_comb", "always_latch"):
                    always_blocks.append(self._parse_always())
                    order.append(("always", len(always_blocks) - 1))
                elif t.text in _UNSUPPORTED_ITEMS:
                    self.diags.append(Diagnostic(
                        Severity.UNSUPPORTED,
                        f"{t.text} blocks are not supported", t.line, t.col))
                    self.pos += 1
                    self._skip_until(_UNSUPPORTED_ITEMS[t.text])
                elif t.kind == TokenKind.IDENT:
                    instances.append(self._parse_instance())
                    order.append(("inst", len(instances) - 1))
                elif t.text == ";":
                    self.pos += 1
                else:
                    raise ParseError(Diagnostic(
                        Severity.ERROR, f"unexpected {t.text!r} in module body",
                        t.line, t.col))
            except ParseError as e:
                self.diags.append(e.diag)
                self._skip_until(";", "end")
        self.expect("endmodule")
        return ast.ModuleDecl(
            name=name, ports=tuple(ports), params=tuple(params), decls=tuple(decls),
            assigns=tuple(assigns), always_blocks=tuple(always_blocks),
            instances=tuple(instances), item_order=tuple(order), line=kw.line)

    def _expect_ident(self, what: str) -> str:
        t = self.peek()
        if t is None or t.kind != TokenKind.IDENT:
            got = t.text if t else "end of input"
            line, col = (t.line, t.col) if t else self._last_loc()
            raise ParseError(Diagnostic(Severity.ERROR, f"expected {what}, got {got!r}",
                                        line, col))
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
        return ast.ParamDecl(name=name, value=self.parse_expr(), local=local,
                             line=t.line)

    def _skip_type_words(self) -> None:
        while self.peek() is not None and self.peek().text in ("logic", "reg", "wire",
                                                              "bit", "integer", "int",
                                                              "signed", "unsigned"):
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
            return ast.Port(name=name, direction=direction, net_kind=net_kind,
                            msb=msb, lsb=lsb, line=t.line)

        return self._comma_list(port, ")", empty=True)

    # -- module items ------------------------------------------------------

    def _parse_param_decl(self) -> list[ast.ParamDecl]:
        local = self.next().text == "localparam"
        self._skip_type_words()
        return self._comma_list(lambda: self._param_entry(local), ";")

    def _parse_net_decl(self) -> list[ast.NetDecl]:
        t = self.peek()
        if t is not None and t.text in _DIRECTIONS:
            raise ParseError(Diagnostic(
                Severity.ERROR,
                "non-ANSI port declarations in the module body are not supported",
                t.line, t.col))
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
                raise ParseError(Diagnostic(
                    Severity.UNSUPPORTED,
                    "declaration initializers are not supported", t.line, t.col))
            return ast.NetDecl(name=name, net_kind=net_kind, msb=msb, lsb=lsb,
                               unpacked=unpacked, line=t.line)

        return self._comma_list(net, ";")

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        kw = self.expect("assign")
        target = self._parse_lvalue()
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        return ast.ContinuousAssign(target=target, value=value, line=kw.line)

    def _parse_always(self) -> ast.AlwaysBlock:
        kw = self.next()
        sensitivity: tuple[ast.EdgeEvent, ...] | None = None
        if self.at("@"):
            self.next()
            sensitivity = self._parse_sensitivity()
        elif kw.text == "always":
            raise ParseError(Diagnostic(
                Severity.ERROR, "always block requires a sensitivity list",
                kw.line, kw.col))
        if kw.text == "always_latch":
            raise ParseError(Diagnostic(
                Severity.UNSUPPORTED, "always_latch is not supported", kw.line, kw.col))
        body = self.parse_stmt()
        return ast.AlwaysBlock(kind=kw.text, sensitivity=sensitivity, body=body,
                               line=kw.line)

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
                events.append(ast.EdgeEvent(edge=t.text, signal=sig))
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
            raise ParseError(Diagnostic(
                Severity.UNSUPPORTED,
                "positional port connections are not supported", t.line, t.col))
        conns = self._comma_list(
            lambda: ast.PortConn(*self._named_conn("port name", optional=True)), ")",
            empty=True)
        self.expect(";")
        return ast.Instance(module=module, name=name, conns=tuple(conns),
                            param_overrides=tuple(overrides), line=t.line)

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
        if t is None:
            raise ParseError(Diagnostic(Severity.ERROR, "unexpected end of input",
                                        *self._last_loc()))
        if t.text == "begin":
            self.next()
            if self.at(":"):
                self.next()
                self._expect_ident("block label")
            stmts = []
            while not self.at("end"):
                if self.peek() is None:
                    raise ParseError(Diagnostic(Severity.ERROR, "missing 'end'",
                                                t.line, t.col))
                stmts.append(self.parse_stmt())
            self.expect("end")
            if self.at(":"):
                self.next()
                self._expect_ident("block label")
            return ast.Block(stmts=tuple(stmts))
        if t.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            other = None
            if self.at("else"):
                self.next()
                other = self.parse_stmt()
            return ast.If(cond=cond, then=then, other=other, line=t.line)
        if t.text in ("case", "casez", "casex"):
            return self._parse_case()
        if t.text in ("unique", "priority"):
            self.next()
            return self.parse_stmt()
        if t.text == ";":
            self.next()
            return ast.Block(stmts=())
        if t.text in ("for", "while", "repeat", "forever", "wait", "fork", "disable",
                      "return", "break", "continue"):
            raise ParseError(Diagnostic(
                Severity.UNSUPPORTED, f"{t.text} statements are not supported",
                t.line, t.col))
        if t.kind == TokenKind.IDENT:
            if t.text.startswith("$"):
                raise ParseError(Diagnostic(
                    Severity.UNSUPPORTED, f"system task {t.text} is not supported",
                    t.line, t.col))
            target = self._parse_lvalue()
            op = self.peek()
            if op is not None and op.text == "<=":
                self.next()
                value = self.parse_expr()
                self.expect(";")
                return ast.Assign(target=target, value=value, nonblocking=True,
                                  line=t.line)
            if op is not None and op.text == "=":
                self.next()
                value = self.parse_expr()
                self.expect(";")
                return ast.Assign(target=target, value=value, nonblocking=False,
                                  line=t.line)
            got = op.text if op else "end of input"
            raise ParseError(Diagnostic(
                Severity.ERROR, f"expected assignment operator, got {got!r}",
                t.line, t.col))
        raise ParseError(Diagnostic(Severity.ERROR,
                                    f"unexpected {t.text!r} in statement", t.line, t.col))

    def _parse_case(self) -> ast.Case:
        kw = self.next()
        if kw.text == "casex":
            raise ParseError(Diagnostic(Severity.UNSUPPORTED,
                                        "casex is not supported", kw.line, kw.col))
        self.expect("(")
        subject = self.parse_expr()
        self.expect(")")
        items: list[ast.CaseItem] = []
        while not self.at("endcase"):
            if self.peek() is None:
                raise ParseError(Diagnostic(Severity.ERROR, "missing 'endcase'",
                                            kw.line, kw.col))
            if self.at("default"):
                self.next()
                if self.at(":"):
                    self.next()
                items.append(ast.CaseItem(patterns=(), body=self.parse_stmt()))
                continue
            patterns = self._comma_list(self.parse_expr, ":")
            items.append(ast.CaseItem(patterns=tuple(patterns), body=self.parse_stmt()))
        self.expect("endcase")
        return ast.Case(kind=kw.text, subject=subject, items=tuple(items), line=kw.line)

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
        return ast.LValue(name=name, index=index, msb=msb, lsb=lsb, line=t.line)

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

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self.at("?"):
            self.next()
            then = self._parse_ternary()
            self.expect(":")
            other = self._parse_ternary()
            return ast.Ternary(cond=cond, then=then, other=other)
        return cond

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        ops = self._BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self.peek() is not None and self.peek().text in ops:
            op = self.next().text
            right = self._parse_binary(level + 1)
            left = ast.Binary(op=op, left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expr:
        t = self.peek()
        if t is not None and t.text in ("~", "!", "-", "+", "&", "|", "^"):
            self.next()
            if t.text == "+":
                return self._parse_unary()
            return ast.Unary(op=t.text, operand=self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self.at("["):
            first, second = self._parse_select()
            if second is None:
                expr = ast.Index(base=expr, index=first)
            else:
                expr = ast.RangeSelect(base=expr, msb=first, lsb=second)
        return expr

    def _parse_primary(self) -> ast.Expr:
        t = self.peek()
        if t is None:
            raise ParseError(Diagnostic(Severity.ERROR,
                                        "unexpected end of expression", *self._last_loc()))
        if t.kind in (TokenKind.SIZED_LIT, TokenKind.UNSIZED_LIT):
            self.next()
            return parse_number_token(t)
        if t.kind == TokenKind.IDENT:
            self.next()
            name = t.text
            if name.startswith("$"):
                args: list[ast.Expr] = []
                if self.at("("):
                    self.next()
                    args = self._comma_list(self.parse_expr, ")", empty=True)
                return ast.SysCall(name=name, args=tuple(args))
            while self.at(".") and self.peek(1) is not None \
                    and self.peek(1).kind == TokenKind.IDENT:
                self.next()
                name += "." + self.next().text
            return ast.Ident(name=name)
        if t.text == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if t.text == "{":
            return self._parse_concat()
        raise ParseError(Diagnostic(Severity.ERROR,
                                    f"unexpected {t.text!r} in expression",
                                    t.line, t.col))

    def _parse_concat(self) -> ast.Expr:
        self.expect("{")
        first = self.parse_expr()
        if self.at("{"):
            # Replication {N{expr}}
            self.next()
            value = self.parse_expr()
            self.expect("}")
            self.expect("}")
            return ast.Replicate(count=first, value=value)
        parts = [first]
        while self.at(","):
            self.next()
            parts.append(self.parse_expr())
        self.expect("}")
        return ast.Concat(parts=tuple(parts))


_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}


def parse_number_token(t: Token) -> ast.Number:
    text = t.text
    if text.startswith('"'):
        raise ParseError(Diagnostic(Severity.UNSUPPORTED,
                                    "string literals are not supported", t.line, t.col))
    if not text.isascii():  # int() would take any Unicode digit
        raise ParseError(Diagnostic(
            Severity.ERROR, f"invalid digits in literal {text!r}", t.line, t.col))
    if "'" not in text:
        return ast.Number(value=int(text.replace("_", "")), width=None, base=None)
    size_part, rest = text.split("'", 1)
    if rest and rest[0] in "sS":
        rest = rest[1:]
    if rest and rest[0].lower() in _BASE_RADIX:
        base = rest[0].lower()
        digits = rest[1:].replace("_", "")
        if any(c in "xXzZ?" for c in digits):
            raise ParseError(Diagnostic(
                Severity.UNSUPPORTED,
                "four-state literal values (x/z) are not supported", t.line, t.col))
        try:
            value = int(digits, _BASE_RADIX[base])
        except ValueError:
            raise ParseError(Diagnostic(
                Severity.ERROR, f"invalid digits in based literal {text!r}",
                t.line, t.col)) from None
        width = int(size_part) if size_part else None
        if width == 0:
            raise ParseError(Diagnostic(
                Severity.ERROR, f"literal {text!r} has zero width", t.line, t.col))
        if width is not None:
            value &= (1 << width) - 1
        return ast.Number(value=value, width=width, base=base)
    # Unbased unsized: '0, '1, 'x, 'z
    digit = rest[:1]
    if digit in ("0", "1"):
        return ast.Number(value=int(digit), width=None, base="")
    raise ParseError(Diagnostic(Severity.UNSUPPORTED,
                                "four-state literal values (x/z) are not supported",
                                t.line, t.col))


def parse(tokens: list[Token]) -> tuple[ast.SourceUnit | None, list[Diagnostic]]:
    p = Parser(tokens)
    try:
        unit = p.parse_unit()
    except ParseError as e:
        p.diags.append(e.diag)
        return None, p.diags
    if any(d.is_fatal for d in p.diags):
        return None, p.diags
    return unit, p.diags


def parse_source(source: str) -> tuple[ast.SourceUnit | None, list[Diagnostic]]:
    tokens, lex_diags = tokenize(source)
    if any(d.is_fatal for d in lex_diags):
        return None, lex_diags
    unit, diags = parse(tokens)
    return unit, lex_diags + diags
