"""Label fidelity: small designs with the verdict IEEE 1800-2017 gives.

Each case is a design, a property and its expected verdict, as (status,
counterexample depth).  Where svsec gives another verdict today, the
case is a strict xfail that names the ROADMAP item that fixes it: when
the item lands, the case passes, the XPASS fails the run, and the
marker goes.  The expected verdicts are checked, not only asserted: the
explicit-state oracle runs on each case's hand-desugared twin (or on
the design itself where nothing needs desugaring), which reads only
constructs that svsec already gets right.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import pytest

from svsec.check import check_design
from svsec.engine.oracle import explicit_state_oracle
from svsec.props import compile_obligation, parse_property

from conftest import compile_ts


@dataclass(frozen=True)
class Case:
    design: str
    prop: str
    expected: tuple[str, int | None]
    # the ROADMAP item that fixes a wrong verdict today, or None
    item: int | None = None
    # the design desugared into constructs svsec reads right, or None
    # when the design needs no desugaring
    twin: str | None = None


SIGNED_COMPARE = """module m(input logic signed [3:0] a, output logic y);
  assign y = a < 4'sd0;
endmodule
"""

SIGNED_WIDENING = """module m(input logic signed [3:0] a, output logic [7:0] y);
  assign y = a;
endmodule
"""

INTEGER_COMPARE = """module m(input logic a, output logic y);
  integer i;
  assign i = -1;
  assign y = i < 0;
endmodule
"""

WIDEN = """module m(input logic [3:0] a_in, input logic [3:0] b_in,
  output logic [{msb}:0] y_out);
  assign y_out = {rhs};
endmodule
"""


def widen(msb: int, rhs: str, prop: str, twin_rhs: str) -> Case:
    """11.6.1: the operands of `rhs` take the width of the assignment
    before the operation, so a 4-bit result that overflows into `y_out`
    violates `prop` at once.  The twin widens them by hand."""
    return Case(WIDEN.format(msb=msb, rhs=rhs), prop, ("falsified", 0),
                item=1, twin=WIDEN.format(msb=msb, rhs=twin_rhs))


MOD6 = """module m(input logic clk_in, input logic rst_n_in, output logic [2:0] c);
  always_ff @(posedge clk_in{edge}) begin
    if (!rst_n_in) c <= 3'd0;
    else if (c == 3'd5) c <= 3'd0;
    else c <= c + 3'd1;
  end
endmodule
"""
SYNC_MOD6 = MOD6.format(edge="")
ASYNC_MOD6 = MOD6.format(edge=" or negedge rst_n_in")

ARRAY = """module m(input logic clk_in, input logic rst_n_in, input logic we_in,
  input logic [1:0] addr_in, input logic [1:0] d_in,
  output logic [1:0] q_out);
  logic [1:0] mem [0:3];
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
{reset}
    end else if (we_in) begin
      mem[addr_in] <= d_in & 2'd1;
    end
  end
  assign q_out = mem[addr_in];
endmodule
"""
FOR_RESET = ARRAY.format(
    reset="      for (int i = 0; i < 4; i++) mem[i] <= 2'd0;")
LINE_RESET = ARRAY.format(
    reset="\n".join(f"      mem[{i}] <= 2'd0;" for i in range(4)))

SATURATING = """module m(input logic clk_in, input logic rst_n_in,
  output logic [{msb}:0] c);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) c <= 0;
    else if (c != {top}) c <= c + 1;
  end
endmodule
"""

NEVER_LOCKS = """module m(input logic clk_in, input logic rst_n_in,
  input logic [3:0] d_in, output logic [3:0] data_out);
  logic lock_q;
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      lock_q <= 1'b0;
      data_out <= 4'd0;
    end else begin
      lock_q <= lock_q;
      if (!lock_q) data_out <= d_in;
    end
  end
endmodule
"""


def always(cond: str) -> str:
    """The catalog's form of an invariant."""
    return f"disable iff (!rst_n_in) 1'b1 |-> ({cond})"


CASES = {
    # 11.8.1: a signed operand compared with a signed literal is a
    # signed compare, so a = -1 makes y 1
    "signed compare": Case(
        SIGNED_COMPARE, "y == 1'b0", ("falsified", 0), item=1,
        twin=SIGNED_COMPARE.replace("signed ", "").replace(
            "a < 4'sd0", "(a ^ 4'b1000) < 4'b1000")),
    # 11.8.2: a signed operand widened by assignment is sign-extended,
    # so a = -1 makes y 8'hff
    "signed widening": Case(
        SIGNED_WIDENING, "y < 8'd16", ("falsified", 0), item=1,
        twin=SIGNED_WIDENING.replace("signed ", "").replace(
            "assign y = a;", "assign y = {{4{a[3]}}, a};")),
    # 6.11: `integer` is signed, and -1 < 0 is signed since both
    # operands are (11.8.1)
    "integer compare": Case(
        INTEGER_COMPARE, "y == 1'b1", ("proven", None), item=1,
        twin=INTEGER_COMPARE.replace("integer i;", "logic [31:0] i;").replace(
            "i < 0", "(i ^ 32'h80000000) < 32'h80000000")),
    # 11.4.10: `<<<` shifts in zeros, as `<<` does
    "arithmetic left shift": Case(
        WIDEN.format(msb=3, rhs="a_in <<< 1"), "y_out == (a_in << 1)",
        ("proven", None)),
    "arithmetic left shift in a parameter": Case(
        WIDEN.format(msb=3, rhs="P").replace(
            "module m(", "module m #(parameter P = 1 <<< 2) ("),
        "y_out == 4'd4", ("proven", None)),
    "add widened to the context": widen(
        4, "a_in + b_in", "y_out < 5'd16", "{1'b0, a_in} + {1'b0, b_in}"),
    "subtract widened to the context": widen(
        4, "a_in - b_in", "y_out < 5'd16", "{1'b0, a_in} - {1'b0, b_in}"),
    "multiply widened to the context": widen(
        7, "a_in * b_in", "y_out < 8'd16", "{4'd0, a_in} * {4'd0, b_in}"),
    "invert widened to the context": widen(
        7, "~a_in", "y_out[7:4] == 4'd0", "~{4'd0, a_in}"),
    "shift widened to the context": widen(
        7, "a_in << 1", "y_out < 8'd16", "{4'd0, a_in} << 1"),
    # 5.7.1: an unsized '1 sets every bit of its context
    "unsized all-ones fill": Case(
        WIDEN.format(msb=7, rhs="'1"), "y_out == 8'hFF", ("proven", None),
        item=1, twin=WIDEN.format(msb=7, rhs="8'hFF")),
    # 9.4.2: a synchronous reset loads the reset value on the clock
    # edge, so the counter only takes 0..5 once reset has been applied,
    # as it does for the asynchronous twin
    "sync mod-6 counter": Case(
        SYNC_MOD6, always("c != 3'd7"), ("proven", None), item=2,
        twin=ASYNC_MOD6),
    "async mod-6 counter": Case(ASYNC_MOD6, always("c != 3'd7"),
                                ("proven", None)),
    # 12.7.1: a `for` loop with constant bounds is the per-line reset
    "array reset in a for loop": Case(
        FOR_RESET, always("!q_out[1]"), ("proven", None), item=8,
        twin=LINE_RESET),
    "array reset per line": Case(LINE_RESET, always("!q_out[1]"),
                                 ("proven", None)),
    # a counter that stops at 200 never reaches 255, but no induction
    # depth up to the default max_k proves it
    "8-bit saturating counter": Case(
        SATURATING.format(msb=7, top="8'd200"), always("c != 8'd255"),
        ("proven", None), item=9),
    "16-bit saturating counter": Case(
        SATURATING.format(msb=15, top="16'd51200"), always("c != 16'hffff"),
        ("proven", None), item=9),
    # The lock bit is never set, so the property holds vacuously: the
    # verdict is right, but the design is the kind the paper counts as
    # vulnerable.  Item 10 adds the vacuity flag; `VACUOUS` checks that
    # the trigger never fires.
    "lock that never locks": Case(
        NEVER_LOCKS,
        "disable iff (!rst_n_in) lock_q |=> data_out == $past(data_out)",
        ("proven", None)),
}

# case -> a property that holds exactly when the case's trigger never fires
VACUOUS = {"lock that never locks": always("!lock_q")}

STATUSES = {"proven", "falsified", "unknown", "compile_error"}


@functools.cache
def verdict(name: str):
    case = CASES[name]
    return check_design(case.design, "m", case.prop)


def oracle(design: str, prop: str) -> tuple[str, int | None]:
    """The explicit-state oracle's verdict on a design and property."""
    ts, _ = compile_ts(design, "m")
    parsed, diags = parse_property(prop, ts)
    assert parsed is not None, [d.message for d in diags]
    result = explicit_state_oracle(compile_obligation(parsed, ts))
    return ("falsified", result.min_depth) if result.violated \
        else ("proven", None)


def label_case(name: str):
    case = CASES[name]
    if case.item is None:
        return name
    return pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"ROADMAP item {case.item}"))


@pytest.mark.parametrize("name", [label_case(name) for name in CASES])
def test_label_is_the_standard_verdict(name):
    got = verdict(name)
    depth = got.depth if got.status == "falsified" else None
    assert (got.status, depth) == CASES[name].expected


@pytest.mark.parametrize("name", list(CASES))
def test_oracle_confirms_the_expected_verdict(name):
    case = CASES[name]
    assert oracle(case.twin or case.design, case.prop) == case.expected


@pytest.mark.parametrize("name", list(CASES))
def test_every_case_gets_a_verdict(name):
    # A strict xfail must fail on its verdict, not on an error.
    assert verdict(name).status in STATUSES


@pytest.mark.parametrize("name", sorted(VACUOUS))
def test_a_vacuous_proof_never_fires_its_trigger(name):
    assert oracle(CASES[name].design, VACUOUS[name]) == ("proven", None)
