from __future__ import annotations

from itertools import combinations, product

import pytest

from svsec.frontend import ast, parse_source, tokenize
from svsec.frontend.parser import Parser
from svsec.frontend.pretty import pretty_print

from conftest import COUNTER


def test_parse_counter():
    unit, diags = parse_source(COUNTER)
    assert unit is not None and not diags
    (mod,) = unit.modules
    assert mod.name == "counter"
    assert [p.name for p in mod.ports] == ["clk_in", "rst_n_in", "en_in",
                                           "count_out"]


def test_pretty_round_trip_is_stable():
    unit1, _ = parse_source(COUNTER)
    text1 = pretty_print(unit1)
    unit2, diags = parse_source(text1)
    assert unit2 is not None and not diags
    assert pretty_print(unit2) == text1


def test_catalog_designs_all_round_trip():
    from svsec.catalog import list_problems
    from svsec.catalog.problems import design_text

    for spec in list_problems():
        for fname in (spec.correct_file, spec.vulnerable_file):
            src = design_text(fname)
            unit, diags = parse_source(src)
            assert unit is not None, (fname, [d.message for d in diags])
            text = pretty_print(unit)
            unit2, diags2 = parse_source(text)
            assert unit2 is not None, (fname, [d.message for d in diags2])
            assert pretty_print(unit2) == text


def test_syntax_error_reports_location():
    unit, diags = parse_source("module m(\ninput logic a\n")
    assert unit is None
    assert any(d.line >= 1 for d in diags)


MODULE_BODY = ("module m(input logic clk_in, input logic [3:0] d_in,\n"
               "  output logic [3:0] q_out);\n{body}\nendmodule\n")

# Each body holds syntax errors at the listed (line, col)s and nothing
# else: recovery skips the whole failing item, however deeply nested.
ERROR_RECOVERY = {
    "error inside a case": (
        "  always_comb case (d_in) 4'd0: q_out = d_in +; endcase",
        [("unexpected ';' in expression", 3, 47)]),
    "error in a case arm, then in an assign": (
        "  always_comb case (d_in)\n    4'd0: q_out = d_in +;\n"
        "    default: q_out = 4'd1;\n  endcase\n  assign q_out = ~;",
        [("unexpected ';' in expression", 4, 25),
         ("unexpected ';' in expression", 7, 19)]),
    "error in an if condition with an else arm": (
        "  always_ff @(posedge clk_in) if (d_in +) q_out <= 1;"
        " else q_out <= 0;\n  assign q_out = ~;",
        [("unexpected ')' in expression", 3, 41),
         ("unexpected ';' in expression", 4, 19)]),
    "error in a nested begin with an else arm": (
        "  always_ff @(posedge clk_in) begin if (d_in[0]) begin\n"
        "    q_out <= d_in +; end else begin q_out <= 0; end end\n"
        "  assign q_out = ~;",
        [("unexpected ';' in expression", 4, 20),
         ("unexpected ';' in expression", 5, 19)]),
    "error in a labelled block": (
        "  always_comb begin : blk\n    q_out = d_in +;\n  end : blk\n"
        "  assign q_out = ~;",
        [("unexpected ';' in expression", 4, 19),
         ("unexpected ';' in expression", 6, 19)]),
    "unclosed begin": (
        "  always_comb begin\n    q_out = d_in;\n",
        [("unexpected 'endmodule' in statement", 6, 1)]),
    "missing semicolon before endmodule": (
        "  assign q_out = d_in",
        [("expected ';', got 'endmodule'", 4, 1)]),
    "stray endcase": (
        "  endcase\n  assign q_out = ~;",
        [("unexpected 'endcase' in module body", 3, 3),
         ("unexpected ';' in expression", 4, 19)]),
}


@pytest.mark.parametrize("name", sorted(ERROR_RECOVERY))
def test_error_recovery_reports_each_error_once(name):
    body, expected = ERROR_RECOVERY[name]
    unit, diags = parse_source(MODULE_BODY.format(body=body))
    assert unit is None
    assert [(d.message, d.line, d.col) for d in diags] == expected


def test_unsupported_construct_is_flagged_not_crashed():
    src = "module m(input logic a);\n  initial begin end\nendmodule\n"
    unit, diags = parse_source(src)
    assert unit is None
    assert any(d.severity.value == "unsupported" for d in diags)


def test_multiple_modules_parse():
    src = ("module a(input logic x, output logic y);\n"
           "  assign y = x;\nendmodule\n"
           "module b(input logic x, output logic y);\n"
           "  assign y = !x;\nendmodule\n")
    unit, diags = parse_source(src)
    assert unit is not None and not diags
    assert [m.name for m in unit.modules] == ["a", "b"]


def test_empty_lists_parse():
    src = ("module c #() ();\nendmodule\n"
           "module m();\n  c #() u();\nendmodule\n")
    unit, diags = parse_source(src)
    assert unit is not None and not diags
    assert [(m.params, m.ports) for m in unit.modules] == [((), ()), ((), ())]
    assert unit.modules[1].instances[0].param_overrides == ()


# The binary operators by level, loosest first.
BINARY_LEVELS = [("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
                 ("<", "<=", ">", ">="), ("<<", ">>", ">>>"), ("+", "-"),
                 ("*", "/", "%")]


def _expr(text: str) -> ast.Expr:
    tokens, diags = tokenize(text)
    assert not diags
    return Parser(tokens).parse_expr()


def _bin(op: str, left: ast.Expr, right: ast.Expr) -> ast.Binary:
    return ast.Binary(op=op, left=left, right=right)


def test_binary_precedence_and_left_associativity():
    a, b, c = (ast.Ident(name=n) for n in "abc")
    assert _expr("a | b & c") == _bin("|", a, _bin("&", b, c))
    assert _expr("a == b < c") == _bin("==", a, _bin("<", b, c))
    assert _expr("a << b + c") == _bin("<<", a, _bin("+", b, c))
    assert _expr("a - b - c") == _bin("-", _bin("-", a, b), c)
    for loose, tight in combinations(BINARY_LEVELS, 2):
        for lo, hi in product(loose, tight):
            assert _expr(f"a {lo} b {hi} c") == _bin(lo, a, _bin(hi, b, c))
            assert _expr(f"a {hi} b {lo} c") == _bin(lo, _bin(hi, a, b), c)
    for level in BINARY_LEVELS:
        for first, second in product(level, repeat=2):
            assert _expr(f"a {first} b {second} c") \
                == _bin(second, _bin(first, a, b), c)
