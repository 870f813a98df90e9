"""Illegal SystemVerilog that must be a compile error, never a verdict.

Each snippet is the body of one small module (or, where it needs a
second module, a whole source).  A snippet that comes out `proven` or
`falsified` would be labelled as a design when the tools reject it.
Headers and port lists, which `MODULE` fixes, are whole sources, and
properties the frontend or elaboration must reject run on one module.
"""

from __future__ import annotations

import pytest

from svsec.check import check_design
from svsec.engine.result import CompileError

MODULE = """module m(input logic clk_in, input logic [3:0] d_in,
  output logic [3:0] q_out);
{body}
endmodule
"""

CHILD = """module c #(parameter W = 4) (input logic [W-1:0] a,
  output logic [W-1:0] y);
  assign y = a;
endmodule
module h #(localparam L = 2, W = 4) (input logic [W-1:0] a,
  output logic [W-1:0] y);
  assign y = a;
endmodule
"""

INPUT_PORT_DRIVES = {
    "assign to an input port": "  assign d_in = 4'd0;\n  assign q_out = d_in;",
    "flip-flop drive of an input port":
        "  always_ff @(posedge clk_in) d_in <= d_in + 1;\n"
        "  assign q_out = d_in;",
    "instance output into an input port":
        "  c u(.a(q_out), .y(d_in));\n  assign q_out = 4'd1;",
}

BODIES = {
    # literals
    "signed unbased 's0": "  assign q_out = 's0;",
    "signed unbased 's1": "  assign q_out = 's1;",
    "signed unbased 'sx": "  assign q_out = 'sx;",
    "signed unbased 'sz": "  assign q_out = 'sz;",
    "sized base without digits": "  assign q_out = 4'h;",
    "unsized base without digits": "  assign q_out = 'b;",
    "binary digit 2": "  assign q_out = 4'b0102;",
    "hex digit G": "  assign q_out = 4'hG;",
    "zero-width literal": "  assign q_out = 0'd1;",
    "superscript size": "  assign q_out = ²'b1;",
    "Arabic-Indic digits": "  assign q_out = 3٣2;",
    "stray tick": "  assign q_out = d_in';",
    "unterminated comment": "  assign q_out = d_in; /* open",
    # syntax
    "missing operand": "  assign q_out = d_in +;",
    "missing semicolon": "  assign q_out = d_in",
    "keyword as a name": "  logic [3:0] module;\n  assign q_out = d_in;",
    "literal as a target": "  assign 4'd3 = d_in;\n  assign q_out = d_in;",
    "unclosed begin": "  always_comb begin\n    q_out = d_in;\n",
    # declarations and multiple assignment
    "undeclared name": "  assign q_out = nope;",
    "net declared twice": "  logic [3:0] t;\n  logic [3:0] t;\n"
                          "  assign t = d_in;\n  assign q_out = t;",
    "two continuous assigns": "  assign q_out = d_in;\n  assign q_out = ~d_in;",
    "assign and flip-flop drive": "  assign q_out = d_in;\n"
                                  "  always_ff @(posedge clk_in) q_out <= d_in;",
    "non-constant range": "  logic [d_in:0] t;\n  assign q_out = d_in;",
    "unknown system function": "  assign q_out = $nope(d_in);",
    "unknown module": "  nope u(.a(d_in));\n  assign q_out = d_in;",
    # instances (overrides of undeclared parameters: test_elaborate.py)
    "unknown port": "  c u(.a(d_in), .b(d_in), .y(q_out));",
    "override of a header localparam": "  h #(.L(3)) u(.a(d_in), .y(q_out));",
    "override of an entry after a header localparam":
        "  h #(.W(4)) u(.a(d_in), .y(q_out));",
    **INPUT_PORT_DRIVES,
}


@pytest.mark.parametrize("name", sorted(BODIES))
def test_illegal_snippet_is_a_compile_error(name):
    source = CHILD + MODULE.format(body=BODIES[name])
    verdict = check_design(source, "m", "q_out == q_out")
    assert isinstance(verdict, CompileError), (name, verdict.status)


@pytest.mark.parametrize("name", sorted(INPUT_PORT_DRIVES))
def test_drive_of_an_input_port_names_the_port(name):
    source = CHILD + MODULE.format(body=INPUT_PORT_DRIVES[name])
    verdict = check_design(source, "m", "q_out == q_out")
    assert [d.message for d in verdict.diagnostics] == \
        ["cannot assign to input port 'd_in'"]


PAIR = """module p #(parameter A = 1, parameter B = 2) (input logic [3:0] a,
  output logic [3:0] y);
  assign y = a + A + B;
endmodule
"""

SOURCES = {
    "trailing comma in the port list":
        "module m(input logic [3:0] d_in, output logic [3:0] q_out,);\n"
        "  assign q_out = d_in;\nendmodule\n",
    "header parameters without a comma":
        "module m #(parameter A = 1 parameter B = 2) (input logic [3:0] d_in,\n"
        "  output logic [3:0] q_out);\n  assign q_out = d_in;\nendmodule\n",
    "trailing comma in the header parameters":
        "module m #(parameter A = 1,) (input logic [3:0] d_in,\n"
        "  output logic [3:0] q_out);\n  assign q_out = d_in;\nendmodule\n",
    "overrides without a comma": PAIR + MODULE.format(
        body="  p #(.A(3) .B(4)) u(.a(d_in), .y(q_out));"),
    "trailing comma in the overrides": PAIR + MODULE.format(
        body="  p #(.A(3),) u(.a(d_in), .y(q_out));"),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_illegal_source_is_a_compile_error(name):
    verdict = check_design(SOURCES[name], "m", "q_out == q_out")
    assert isinstance(verdict, CompileError), (name, verdict.status)


REGISTER = MODULE.format(body="  always_ff @(posedge clk_in) q_out <= d_in;")

PROPERTIES = {
    # rejected by the parser
    "$past without a comma": "$past(q_out 1) == q_out",
    "$past with a trailing comma": "$past(q_out,) == q_out",
    # rejected by elaboration
    "division": "q_out / 2 == 0",
    "modulo": "q_out % 2 == 0",
    "arithmetic shift": "(q_out >>> 1) == 0",
    "bit index out of range": "q_out[9] == 0",
    "part select out of range": "q_out[5:2] == 0",
    "index of an expression": "(q_out + 1)[0] == 0",
}


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_illegal_property_is_a_compile_error(name):
    verdict = check_design(REGISTER, "m", PROPERTIES[name])
    assert isinstance(verdict, CompileError), (name, verdict.status)
    assert verdict.diagnostics
