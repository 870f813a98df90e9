"""AST printer whose output re-parses to a structurally identical tree."""

from __future__ import annotations

from svsec.frontend import ast
from svsec.frontend.parser import _BASE_RADIX, _BINARY_PRECEDENCE


def format_expr(e: ast.Expr, parent_prec: int = 0) -> str:
    if isinstance(e, ast.Number):
        return format_number(e)
    if isinstance(e, ast.Ident):
        return e.name
    if isinstance(e, ast.Unary):
        return f"{e.op}{format_expr(e.operand, 11)}"
    if isinstance(e, ast.Binary):
        prec = _BINARY_PRECEDENCE[e.op]
        text = f"{format_expr(e.left, prec)} {e.op} {format_expr(e.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, ast.Ternary):
        text = (f"{format_expr(e.cond, 1)} ? {format_expr(e.then)}"
                f" : {format_expr(e.other)}")
        return f"({text})" if parent_prec > 0 else text
    if isinstance(e, ast.Index):
        return f"{format_expr(e.base, 12)}[{format_expr(e.index)}]"
    if isinstance(e, ast.RangeSelect):
        return (f"{format_expr(e.base, 12)}[{format_expr(e.msb)}"
                f":{format_expr(e.lsb)}]")
    if isinstance(e, ast.Concat):
        return "{" + ", ".join(format_expr(p) for p in e.parts) + "}"
    if isinstance(e, ast.Replicate):
        return "{" + format_expr(e.count, 12) + "{" + format_expr(e.value) + "}}"
    if isinstance(e, ast.SysCall):
        if not e.args:
            return e.name
        return e.name + "(" + ", ".join(format_expr(a) for a in e.args) + ")"
    raise TypeError(f"unknown expression node {e!r}")


def format_number(n: ast.Number) -> str:
    if n.base is None:
        return str(n.value)
    if n.base == "":
        return f"'{n.value}"
    radix = _BASE_RADIX[n.base]
    digits = _to_base(n.value, radix)
    size = str(n.width) if n.width is not None else ""
    return f"{size}'{n.base}{digits}"


def _to_base(value: int, radix: int) -> str:
    if value == 0:
        return "0"
    digits = "0123456789abcdef"
    out = []
    while value:
        out.append(digits[value % radix])
        value //= radix
    return "".join(reversed(out))


def _format_lvalue(lv: ast.LValue) -> str:
    text = lv.name
    if lv.index is not None:
        text += f"[{format_expr(lv.index)}]"
    elif lv.msb is not None:
        text += f"[{format_expr(lv.msb)}:{format_expr(lv.lsb)}]"
    return text


def _format_stmt(s: ast.Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(s, ast.Block):
        lines = [pad + "begin"]
        for sub in s.stmts:
            lines.extend(_format_stmt(sub, indent + 1))
        lines.append(pad + "end")
        return lines
    if isinstance(s, ast.Assign):
        op = "<=" if s.nonblocking else "="
        return [f"{pad}{_format_lvalue(s.target)} {op} {format_expr(s.value)};"]
    if isinstance(s, ast.If):
        lines = [f"{pad}if ({format_expr(s.cond)})"]
        lines.extend(_format_stmt(s.then, indent + 1))
        if s.other is not None:
            lines.append(pad + "else")
            lines.extend(_format_stmt(s.other, indent + 1))
        return lines
    if isinstance(s, ast.Case):
        lines = [f"{pad}{s.kind} ({format_expr(s.subject)})"]
        for item in s.items:
            if item.patterns:
                head = ", ".join(format_expr(p) for p in item.patterns) + ":"
            else:
                head = "default:"
            lines.append("  " * (indent + 1) + head)
            lines.extend(_format_stmt(item.body, indent + 2))
        lines.append(pad + "endcase")
        return lines
    raise TypeError(f"unknown statement node {s!r}")


def _format_port(p: ast.Port) -> str:
    text = f"{p.direction} {p.net_kind}"
    if p.msb is not None:
        text += f" [{format_expr(p.msb)}:{format_expr(p.lsb)}]"
    return f"{text} {p.name}"


def _format_param(p: ast.ParamDecl) -> str:
    kw = "localparam" if p.local else "parameter"
    return f"{kw} {p.name} = {format_expr(p.value)}"


def _format_item(item: ast.ModuleItem) -> list[str]:
    if isinstance(item, ast.ParamDecl):
        return [f"  {_format_param(item)};"]
    if isinstance(item, ast.NetDecl):
        text = f"  {item.net_kind}"
        if item.msb is not None:
            text += f" [{format_expr(item.msb)}:{format_expr(item.lsb)}]"
        text += f" {item.name}"
        if item.unpacked is not None:
            lo, hi = item.unpacked
            text += f" [{format_expr(lo)}:{format_expr(hi)}]"
        return [text + ";"]
    if isinstance(item, ast.ContinuousAssign):
        return [f"  assign {_format_lvalue(item.target)} = "
                f"{format_expr(item.value)};"]
    if isinstance(item, ast.AlwaysBlock):
        head = f"  {item.kind}"
        if item.sensitivity is not None:
            events = " or ".join(f"{e.edge} {e.signal}" for e in item.sensitivity)
            head += f" @({events})"
        elif item.kind == "always":
            head += " @(*)"
        return [head] + _format_stmt(item.body, 2)
    if isinstance(item, ast.Instance):
        text = f"  {item.module}"
        if item.param_overrides:
            inner = ", ".join(f".{n}({format_expr(v)})"
                              for n, v in item.param_overrides)
            text += f" #({inner})"
        conns = ", ".join(
            f".{c.port}({format_expr(c.expr) if c.expr is not None else ''})"
            for c in item.conns)
        return [f"{text} {item.name} ({conns});"]
    raise TypeError(f"unknown module item {item!r}")


def _format_module(m: ast.ModuleDecl) -> list[str]:
    header = f"module {m.name}"
    if m.params:
        header += " #(" + ", ".join(map(_format_param, m.params)) + ")"
    if m.ports:
        lines = [header + " ("]
        for i, p in enumerate(m.ports):
            comma = "," if i < len(m.ports) - 1 else ""
            lines.append(f"  {_format_port(p)}{comma}")
        lines.append(");")
    else:
        lines = [header + ";"]
    for item in m.items:
        lines.extend(_format_item(item))
    lines.append("endmodule")
    return lines


def pretty_print(unit: ast.SourceUnit) -> str:
    chunks = []
    for m in unit.modules:
        chunks.append("\n".join(_format_module(m)))
    return "\n\n".join(chunks) + "\n"
