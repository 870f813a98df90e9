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
from svsec.frontend.parser import NESTING_CAP

MODULE = """module m(input logic clk_in, input logic [3:0] d_in,
  output logic [3:0] q_out);
{body}
endmodule
"""

CHILD = """module c #(parameter W = 4) (input logic [W-1:0] a,
  output logic [W-1:0] y);
  parameter X = 0; assign y = a;
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

# An assignment's expression opens one level, and an `always_comb`
# statement one and its assignment's expression one more; each form then
# nests one level past `NESTING_CAP`.
N = NESTING_CAP
NESTING_PAST_THE_CAP = {
    "right-nested parentheses past the nesting cap":
        "  assign q_out = " + "d_in ^ (" * N + "d_in" + ")" * N + ";",
    "ternary past the nesting cap":
        "  assign q_out = " + "d_in[0] ? d_in : " * N + "d_in;",
    "concatenation past the nesting cap":
        "  assign q_out = " + "{" * N + "d_in" + "}" * N + ";",
    "replication past the nesting cap":
        "  assign q_out = " + "{1{" * N + "d_in" + "}}" * N + ";",
    "select past the nesting cap":
        "  assign q_out = " + "d_in[" * N + "0" + "]" * N + ";",
    "if / else if chain past the nesting cap": "  always_comb "
        + "if (d_in[0]) q_out = d_in; else " * (N - 1) + "q_out = d_in;",
    "case past the nesting cap": "  always_comb "
        + "case (d_in) default: " * (N - 1) + "q_out = d_in;"
        + " endcase" * (N - 1),
    "begin past the nesting cap": "  always_comb "
        + "begin " * (N - 1) + "q_out = d_in;" + " end" * (N - 1),
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
    # identifiers are ASCII (IEEE 1800-2017 5.6, Annex A.9.3)
    "non-ASCII identifier":
        "  logic [3:0] é_q;\n  assign é_q = d_in;\n  assign q_out = é_q;",
    "non-ASCII letter inside an identifier":
        "  logic [3:0] a_é;\n  assign a_é = d_in;\n  assign q_out = a_é;",
    "stray tick": "  assign q_out = d_in';",
    "unterminated comment": "  assign q_out = d_in; /* open",
    # syntax
    "missing operand": "  assign q_out = d_in +;",
    "missing semicolon": "  assign q_out = d_in",
    "keyword as a name": "  logic [3:0] module;\n  assign q_out = d_in;",
    "literal as a target": "  assign 4'd3 = d_in;\n  assign q_out = d_in;",
    "unclosed begin": "  always_comb begin\n    q_out = d_in;\n",
    "two defaults in a case": "  always_comb case (d_in)\n"
                              "    default: q_out = 4'd1;\n"
                              "    4'd0: q_out = d_in;\n"
                              "    default: q_out = 4'd2;\n  endcase",
    # declarations and multiple assignment
    "undeclared name": "  assign q_out = nope;",
    "net declared twice": "  logic [3:0] t;\n  logic [3:0] t;\n"
                          "  assign t = d_in;\n  assign q_out = t;",
    # one namespace for parameters, ports, nets, arrays and instances
    # (IEEE 1800-2017 3.13), and no body redeclaration of an ANSI port
    # (23.2.2.2)
    "port redeclared as a wider net":
        "  logic [7:0] d_in;\n  assign q_out = d_in[3:0];",
    "port redeclared as a net of its width":
        "  logic [3:0] q_out;\n  assign q_out = d_in;",
    "output port redeclared as an array":
        "  logic [3:0] q_out [0:1];\n  assign q_out = d_in;",
    "parameter declared twice": "  parameter W = 4;\n  parameter W = 8;\n"
                                "  assign q_out = d_in + W;",
    "instance named like a net": "  logic [3:0] u;\n"
                                 "  c u(.a(d_in), .y(q_out));\n  assign u = d_in;",
    "instance named like a port": "  c d_in(.a(4'd1), .y(q_out));",
    "two instances with one name": "  logic [3:0] t;\n"
                                   "  c u(.a(d_in), .y(t));\n"
                                   "  c u(.a(t), .y(q_out));",
    # sensitivity lists name declared signals
    "undeclared reset": "  always_ff @(posedge clk_in or negedge rst_nope)\n"
                        "    q_out <= d_in;",
    "undeclared clock": "  always_ff @(posedge clk_nope)\n    q_out <= d_in;",
    "two continuous assigns": "  assign q_out = d_in;\n  assign q_out = ~d_in;",
    "assign and flip-flop drive": "  assign q_out = d_in;\n"
                                  "  always_ff @(posedge clk_in) q_out <= d_in;",
    "non-constant range": "  logic [d_in:0] t;\n  assign q_out = d_in;",
    "unknown system function": "  assign q_out = $nope(d_in);",
    # IEEE 1800-2017 11.4.12.1: no negative count, and a count of 0 only
    # beside a concatenation operand of positive width
    "zero replication": "  assign q_out = {0{d_in}};",
    "zero replication of a list": "  assign q_out = {0{d_in, d_in}};",
    "negative replication": "  assign q_out = {-1{d_in}};",
    # an error inside an expression takes its module item's line
    "undeclared name in an always block":
        "  always_comb begin\n    q_out = d_in;\n    q_out = nope;\n  end",
    "undeclared name in a port connection": "  c u(.a(nope), .y(q_out));",
    "non-constant override": "  c #(.W(d_in)) u(.a(d_in), .y(q_out));",
    "non-constant parameter": "  parameter P = d_in;\n  assign q_out = d_in + P;",
    "non-constant unpacked range":
        "  logic [3:0] t [0:d_in];\n  assign q_out = d_in;",
    # a read of a signal nothing drives takes the reading item's line
    "undriven signal": "  logic [3:0] t;\n  assign q_out = t;",
    "undriven signal in a flip-flop":
        "  logic [3:0] t;\n  always_ff @(posedge clk_in)\n    q_out <= t;",
    "undriven signal in a port connection":
        "  logic [3:0] t;\n  c u(.a(t), .y(q_out));",
    "unknown module": "  nope u(.a(d_in));\n  assign q_out = d_in;",
    # instances (overrides of undeclared parameters: test_elaborate.py)
    "unknown port": "  c u(.a(d_in), .b(d_in), .y(q_out));",
    "override of a header localparam": "  h #(.L(3)) u(.a(d_in), .y(q_out));",
    "override of an entry after a header localparam":
        "  h #(.W(4)) u(.a(d_in), .y(q_out));",
    # a header parameter list makes a body `parameter` local
    "override of a body parameter beside a header list":
        "  c #(.W(4), .X(1)) u(.a(d_in), .y(q_out));",
    # a named list names each port and parameter once (23.3.2.2)
    "input port connected twice": "  c u(.a(d_in), .a(4'd0), .y(q_out));",
    "output port connected twice": "  logic [3:0] t;\n"
                                   "  c u(.a(d_in), .y(q_out), .y(t));",
    "parameter overridden twice": "  c #(.W(4), .W(8)) u(.a(d_in), .y(q_out));",
    **INPUT_PORT_DRIVES,
    **NESTING_PAST_THE_CAP,
    # the count restarts at the next item, which is judged on its own
    "item past the nesting cap before a bad item":
        NESTING_PAST_THE_CAP["case past the nesting cap"]
        + "\n  assign q_out = d_in +;",
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


def test_body_parameter_beside_a_header_list_cannot_be_overridden():
    body = BODIES["override of a body parameter beside a header list"]
    verdict = check_design(CHILD + MODULE.format(body=body), "m", "q_out == q_out")
    assert [(d.message, d.line) for d in verdict.diagnostics] == \
        [("module 'c' has no parameter 'X' to override", 11)]


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
    "port named twice in the header":
        "module m(input logic [3:0] d_in, input logic [3:0] d_in,\n"
        "  output logic [3:0] q_out);\n  assign q_out = d_in;\nendmodule\n",
    "header parameter beside a body localparam of its name":
        "module m #(parameter W = 4) (input logic [W-1:0] d_in,\n"
        "  output logic [3:0] q_out);\n  localparam W = 8;\n"
        "  assign q_out = d_in;\nendmodule\n",
    # an instance of a module being elaborated would never end
    "module that instantiates itself": MODULE.format(
        body="  m u(.clk_in(clk_in), .d_in(d_in), .q_out(q_out));"),
    "instantiation cycle of two modules": MODULE.format(
        body="  n u(.d_in(d_in), .q_out(q_out));")
        + "module n(input logic [3:0] d_in, output logic [3:0] q_out);\n"
        "  m v(.clk_in(1'b0), .d_in(d_in), .q_out(q_out));\nendmodule\n",
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
    "zero replication in a property": "{0{q_out}} == 0",
    "parentheses past the nesting cap in a property":
        "(" * NESTING_CAP + "q_out" + ")" * NESTING_CAP + " == 0",
}


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_illegal_property_is_a_compile_error(name):
    verdict = check_design(REGISTER, "m", PROPERTIES[name])
    assert isinstance(verdict, CompileError), (name, verdict.status)
    assert verdict.diagnostics


CAP = "nesting deeper than 150 levels is not supported"

# Every case's diagnostics as (severity, message, line, col), after
# whether they point into the property: a change to the frontend keeps
# each message, severity and location.
DIAGNOSTICS = {
    "signed unbased 's0": (False, [("error", "stray ' in input", 11, 18)]),
    "signed unbased 's1": (False, [("error", "stray ' in input", 11, 18)]),
    "signed unbased 'sx": (False, [("error", "stray ' in input", 11, 18)]),
    "signed unbased 'sz": (False, [("error", "stray ' in input", 11, 18)]),
    "sized base without digits":
        (False, [("error", "based literal missing digits", 11, 18)]),
    "unsized base without digits":
        (False, [("error", "based literal missing digits", 11, 18)]),
    "binary digit 2":
        (False, [("error", 'invalid digits in based literal "4\'b0102"', 11, 18)]),
    "hex digit G":
        (False, [("error", 'invalid digits in based literal "4\'hG"', 11, 18)]),
    "zero-width literal":
        (False, [("error", 'literal "0\'d1" has zero width', 11, 18)]),
    "superscript size": (False, [("error", "unexpected character '²'", 11, 18)]),
    "Arabic-Indic digits":
        (False, [("error", "unexpected character '٣'", 11, 19)]),
    "non-ASCII identifier": (False, [
        ("error", "unexpected character 'é'", 11, 15),
        ("error", "unexpected character 'é'", 12, 10),
        ("error", "unexpected character 'é'", 13, 18)]),
    "non-ASCII letter inside an identifier": (False, [
        ("error", "unexpected character 'é'", 11, 17),
        ("error", "unexpected character 'é'", 12, 12),
        ("error", "unexpected character 'é'", 13, 20)]),
    "stray tick": (False, [("error", "stray ' in input", 11, 22)]),
    "unterminated comment": (False, [("error", "unterminated block comment", 11, 24)]),
    "missing operand": (False, [("error", "unexpected ';' in expression", 11, 24)]),
    "missing semicolon": (False, [("error", "expected ';', got 'endmodule'", 12, 1)]),
    "keyword as a name":
        (False, [("error", "expected signal name, got 'module'", 11, 15)]),
    "literal as a target":
        (False, [("error", 'expected assignment target, got "4\'d3"', 11, 10)]),
    "unclosed begin":
        (False, [("error", "unexpected 'endmodule' in statement", 14, 1)]),
    "two defaults in a case":
        (False, [("error", "case statement has a second default", 14, 5)]),
    "undeclared name": (False, [("error", "unknown identifier 'nope'", 11, 0)]),
    "net declared twice": (False, [("error", "'t' is declared twice", 12, 0)]),
    "port redeclared as a wider net":
        (False, [("error", "'d_in' is declared twice", 11, 0)]),
    "port redeclared as a net of its width":
        (False, [("error", "'q_out' is declared twice", 11, 0)]),
    "output port redeclared as an array":
        (False, [("error", "'q_out' is declared twice", 11, 0)]),
    "parameter declared twice":
        (False, [("error", "'W' is declared twice", 12, 0)]),
    "instance named like a net":
        (False, [("error", "'u' is declared twice", 12, 0)]),
    "instance named like a port":
        (False, [("error", "'d_in' is declared twice", 11, 0)]),
    "two instances with one name":
        (False, [("error", "'u' is declared twice", 13, 0)]),
    "undeclared reset":
        (False, [("error", "unknown identifier 'rst_nope'", 11, 0)]),
    "undeclared clock":
        (False, [("error", "unknown identifier 'clk_nope'", 11, 0)]),
    "two continuous assigns":
        (False, [("error", "multiple drivers for 'q_out'", 12, 0)]),
    "assign and flip-flop drive":
        (False, [("error", "multiple drivers for 'q_out'", 12, 0)]),
    "non-constant range":
        (False, [("error", "'d_in' is not a compile-time constant", 11, 0)]),
    "unknown system function": (False, [(
        "unsupported", "system function $nope is not supported in module context",
        11, 0)]),
    "zero replication": (False, [(
        "error", "a replication count of 0 needs a concatenation operand "
        "of positive width", 11, 0)]),
    "zero replication of a list": (False, [(
        "error", "a replication count of 0 needs a concatenation operand "
        "of positive width", 11, 0)]),
    "negative replication":
        (False, [("error", "replication count -1 is negative", 11, 0)]),
    "undeclared name in an always block":
        (False, [("error", "unknown identifier 'nope'", 11, 0)]),
    "undeclared name in a port connection":
        (False, [("error", "unknown identifier 'nope'", 11, 0)]),
    "non-constant override":
        (False, [("error", "'d_in' is not a compile-time constant", 11, 0)]),
    "non-constant parameter":
        (False, [("error", "'d_in' is not a compile-time constant", 11, 0)]),
    "non-constant unpacked range":
        (False, [("error", "'d_in' is not a compile-time constant", 11, 0)]),
    "undriven signal": (False, [
        ("error", "undriven signal 't' referenced by 'q_out'", 12, 0)]),
    "undriven signal in a flip-flop": (False, [
        ("error", "undriven signal 't' referenced by 'q_out'", 12, 0)]),
    "undriven signal in a port connection": (False, [
        ("error", "undriven signal 't' referenced by 'u.a'", 12, 0)]),
    "unknown module": (False, [("error", "unknown module 'nope'", 11, 0)]),
    "unknown port": (False, [("error", "module 'c' has no port 'b'", 11, 0)]),
    "override of a header localparam":
        (False, [("error", "module 'h' has no parameter 'L' to override", 11, 0)]),
    "override of an entry after a header localparam":
        (False, [("error", "module 'h' has no parameter 'W' to override", 11, 0)]),
    "input port connected twice":
        (False, [("error", "port 'a' is connected twice", 11, 0)]),
    "output port connected twice":
        (False, [("error", "port 'y' is connected twice", 12, 0)]),
    "parameter overridden twice":
        (False, [("error", "parameter 'W' is overridden twice", 11, 0)]),
    "assign to an input port":
        (False, [("error", "cannot assign to input port 'd_in'", 11, 0)]),
    "flip-flop drive of an input port":
        (False, [("error", "cannot assign to input port 'd_in'", 11, 0)]),
    "instance output into an input port":
        (False, [("error", "cannot assign to input port 'd_in'", 11, 0)]),
    "right-nested parentheses past the nesting cap":
        (False, [("unsupported", CAP, 11, 1218)]),
    "ternary past the nesting cap": (False, [("unsupported", CAP, 11, 2556)]),
    "concatenation past the nesting cap":
        (False, [("unsupported", CAP, 11, 168)]),
    "replication past the nesting cap": (False, [("unsupported", CAP, 11, 466)]),
    "select past the nesting cap": (False, [("unsupported", CAP, 11, 768)]),
    "if / else if chain past the nesting cap":
        (False, [("unsupported", CAP, 11, 4760)]),
    "case past the nesting cap": (False, [("unsupported", CAP, 11, 3152)]),
    "begin past the nesting cap": (False, [("unsupported", CAP, 11, 917)]),
    "item past the nesting cap before a bad item": (False, [
        ("unsupported", CAP, 11, 3152),
        ("error", "unexpected ';' in expression", 12, 24)]),
    "trailing comma in the port list":
        (False, [("error", "expected port name, got ')'", 1, 59)]),
    "header parameters without a comma":
        (False, [("error", "expected ')', got 'parameter'", 1, 28)]),
    "trailing comma in the header parameters":
        (False, [("error", "expected parameter name, got ')'", 1, 28)]),
    "overrides without a comma": (False, [("error", "expected ')', got '.'", 7, 13)]),
    "trailing comma in the overrides":
        (False, [("error", "expected '.', got ')'", 7, 13)]),
    "port named twice in the header":
        (False, [("error", "'d_in' is declared twice", 1, 0)]),
    "header parameter beside a body localparam of its name":
        (False, [("error", "'W' is declared twice", 3, 0)]),
    "module that instantiates itself":
        (False, [("error", "module instantiation cycle: m -> m", 3, 0)]),
    "instantiation cycle of two modules":
        (False, [("error", "module instantiation cycle: m -> n -> m", 6, 0)]),
    "$past without a comma": (True, [("error", "expected ')', got '1'", 1, 13)]),
    "$past with a trailing comma":
        (True, [("error", "unexpected ')' in expression", 1, 13)]),
    "division": (True, [("unsupported", "operator '/' is not supported", 0, 0)]),
    "modulo": (True, [("unsupported", "operator '%' is not supported", 0, 0)]),
    "arithmetic shift": (True, [(
        "unsupported", "arithmetic shift is not supported (unsigned semantics)",
        0, 0)]),
    "bit index out of range":
        (True, [("error", "bit index 9 out of range for 'q_out' (width 4)", 0, 0)]),
    "part select out of range": (True, [(
        "error", "part select [5:2] out of range for 'q_out' (width 4)",
        0, 0)]),
    "index of an expression":
        (True, [("unsupported", "index base must be an identifier", 0, 0)]),
    "zero replication in a property": (True, [(
        "error", "a replication count of 0 needs a concatenation operand "
        "of positive width", 0, 0)]),
    "parentheses past the nesting cap in a property":
        (True, [("unsupported", CAP, 1, 151)]),
}


def _verdict(name):
    if name in BODIES:
        return check_design(CHILD + MODULE.format(body=BODIES[name]), "m",
                            "q_out == q_out")
    if name in SOURCES:
        return check_design(SOURCES[name], "m", "q_out == q_out")
    return check_design(REGISTER, "m", PROPERTIES[name])


@pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
def test_diagnostics_are_pinned(name):
    verdict = _verdict(name)
    got = [(d.severity.value, d.message, d.line, d.col)
           for d in verdict.diagnostics]
    assert (verdict.in_property, got) == DIAGNOSTICS[name]
