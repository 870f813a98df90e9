from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from svsec.check import check_design
from svsec.engine.result import CompileError
from svsec.ir import StateVar, elaborate, simulate_step
from svsec.ir import expr as ex
from svsec.ir.expr import eval_expr
from svsec.ir.transition import compile_stepper
from svsec.frontend import parse_source

from conftest import COUNTER, compile_ts

RAM = """\
module ram2(
  input logic clk_in,
  input logic rst_n_in,
  input logic we_in,
  input logic [1:0] addr_in,
  input logic [7:0] wdata_in,
  output logic [7:0] rdata_out
);
  logic [7:0] mem_q [3:0];

  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      mem_q[0] <= 8'h00;
      mem_q[1] <= 8'h00;
      mem_q[2] <= 8'h00;
      mem_q[3] <= 8'h00;
    end else if (we_in) begin
      mem_q[addr_in] <= wdata_in;
    end
  end

  assign rdata_out = mem_q[addr_in];
endmodule
"""

PAIR = """\
module inv(input logic a_in, output logic y_out);
  assign y_out = !a_in;
endmodule

module top(
  input logic clk_in,
  input logic rst_n_in,
  input logic d_in,
  output logic q_out
);
  logic w;

  inv u0(.a_in(d_in), .y_out(w));

  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      q_out <= 1'b0;
    end else begin
      q_out <= w;
    end
  end
endmodule
"""


def test_counter_shape(counter_ts):
    assert [n for n, _ in counter_ts.inputs] == ["rst_n_in", "en_in"]
    assert counter_ts.clock == "clk_in"
    (cnt,) = counter_ts.states
    assert cnt == StateVar("count_out", 4, 0)
    assert counter_ts.state_bits() == 4 and counter_ts.input_bits() == 2


def test_counter_semantics(counter_ts):
    state = {"count_out": 0}
    # hold reset: stays at zero even with enable high
    state, outs = simulate_step(counter_ts, state,
                                {"rst_n_in": 0, "en_in": 1})
    assert state["count_out"] == 0 and outs["count_out"] == 0
    # count up while enabled, hold while disabled, wrap at 16
    for expect in (1, 2, 3):
        state, _ = simulate_step(counter_ts, state,
                                 {"rst_n_in": 1, "en_in": 1})
        assert state["count_out"] == expect
    state, _ = simulate_step(counter_ts, state, {"rst_n_in": 1, "en_in": 0})
    assert state["count_out"] == 3
    state = {"count_out": 15}
    state, _ = simulate_step(counter_ts, state, {"rst_n_in": 1, "en_in": 1})
    assert state["count_out"] == 0


def test_line_map_points_at_the_taken_assignment():
    unit, _ = parse_source(COUNTER)
    ts, line_map, _ = elaborate(unit, "counter")
    expr = line_map["count_out"]
    # line 10 is the reset assignment, line 12 the increment
    assert eval_expr(expr, {"rst_n_in": 0, "en_in": 1, "count_out": 5}) == 10
    assert eval_expr(expr, {"rst_n_in": 1, "en_in": 1, "count_out": 5}) == 12
    assert eval_expr(expr, {"rst_n_in": 1, "en_in": 0, "count_out": 5}) == 0


def test_unpacked_array_becomes_per_word_state():
    ts, _ = compile_ts(RAM, "ram2")
    names = sorted(s.name for s in ts.states)
    assert names == ["mem_q[0]", "mem_q[1]", "mem_q[2]", "mem_q[3]"]
    assert all(s.width == 8 and s.reset == 0 for s in ts.states)

    state = {n: 0 for n in names}
    state, _ = simulate_step(ts, state, {"rst_n_in": 1, "we_in": 1,
                                         "addr_in": 2, "wdata_in": 0xAB})
    assert state["mem_q[2]"] == 0xAB
    assert state["mem_q[0]"] == 0
    _, outs = simulate_step(ts, state, {"rst_n_in": 1, "we_in": 0,
                                        "addr_in": 2, "wdata_in": 0})
    assert outs["rdata_out"] == 0xAB


def test_instance_flattening():
    ts, _ = compile_ts(PAIR, "top")
    state = {s.name: 0 for s in ts.states}
    state, _ = simulate_step(ts, state, {"rst_n_in": 1, "d_in": 0})
    assert state[ts.states[0].name] == 1  # q <= !d
    state, _ = simulate_step(ts, state, {"rst_n_in": 1, "d_in": 1})
    assert state[ts.states[0].name] == 0


def test_missing_top_module_is_a_diagnostic():
    unit, _ = parse_source(COUNTER)
    ts, _, diags = elaborate(unit, "nonexistent")
    assert ts is None and diags


def test_value_range_checks(counter_ts):
    with pytest.raises(ValueError):
        simulate_step(counter_ts, {"count_out": 16},
                      {"rst_n_in": 1, "en_in": 0})
    with pytest.raises(ValueError):
        simulate_step(counter_ts, {"count_out": 0},
                      {"rst_n_in": 2, "en_in": 0})


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                          st.integers(0, 3), st.integers(0, 255)),
                min_size=1, max_size=20))
def test_compiled_stepper_matches_interpreter(stimuli):
    ts, _ = compile_ts(RAM, "ram2")
    step = compile_stepper(ts)
    state = {s.name: 0 for s in ts.states}
    fast_state = tuple(0 for _ in ts.states)
    for rst, we, addr, data in stimuli:
        ins = {"rst_n_in": rst, "we_in": we, "addr_in": addr,
               "wdata_in": data}
        state, outs = simulate_step(ts, state, ins)
        fast_state, env = step(fast_state, tuple(ins[n] for n, _ in ts.inputs))
        assert fast_state == tuple(state[s.name] for s in ts.states)
        for n in ts.outputs:
            assert env[n] == outs[n]


def test_constructors_intern_equal_nodes():
    a, b, c = ex.Ref(4, "a"), ex.Ref(4, "b"), ex.Ref(1, "c")

    def build():
        return (ex.unop("not", a), ex.binop("add", a, ex.BV(4, 1)),
                ex.mux(c, a, b), ex.concat((a, b)), ex.slice_(a, 2, 1))

    for first, second in zip(build(), build()):
        assert first is second
    # Equal arguments are one object, so their parents are too.
    assert ex.binop("xor", ex.unop("not", a), b) \
        is ex.binop("xor", ex.unop("not", a), b)
    # The intern table does not keep a node alive.
    node = weakref.ref(ex.binop("sub", b, a))
    gc.collect()
    assert node() is None


def test_different_ops_of_one_width_are_unequal():
    # Op equality is identity, not the width-only comparison that a
    # dataclass generates for the Expr base.
    a, b = ex.Ref(4, "a"), ex.Ref(4, "b")
    add, sub = ex.binop("add", a, b), ex.binop("sub", a, b)
    assert add.width == sub.width and add != sub
    assert ex.binop("add", b, a) != add
    assert ex.slice_(a, 2, 1) != ex.slice_(a, 3, 2)
    assert ex.mux(ex.Ref(1, "c"), add, sub) != ex.mux(ex.Ref(1, "c"), sub, add)
    assert len({add, sub, ex.binop("add", a, b)}) == 2


PARITY = """\
module m(
  input logic clk_in,
  input logic [3:0] a_in,
  input logic [3:0] b_in,
  input logic [1:0] i_in,
  output logic [7:0] y_out
);
  logic [3:0] mem_q [0:3];

  always_ff @(posedge clk_in) begin
    mem_q[i_in] <= a_in;
  end

  {driver}
endmodule
"""

SUPPORTED_FORMS = [
    "a_in + b_in * 4'd3", "a_in - b_in", "a_in < b_in", "a_in != b_in",
    "^a_in", "&b_in", "a_in[0] ? a_in : b_in", "{a_in, b_in}", "{2{a_in}}",
    "a_in[2]", "a_in[i_in]", "mem_q[1]", "mem_q[i_in]", "a_in[2:1]",
    "a_in << i_in",
]
UNSUPPORTED_FORMS = [
    "a_in >>> 1", "a_in / b_in", "a_in % b_in", "a_in[7]", "a_in[5:1]",
    "mem_q[7]", "mem_q", "a_in[1][0]", "{a_in, a_in}[0]",
]


def _define_or_diagnostics(driver: str):
    unit, diags = parse_source(PARITY.format(driver=driver))
    assert unit is not None, [d.message for d in diags]
    ts, _, ediags = elaborate(unit, "m")
    if ts is None:
        return [(d.severity, d.message, d.line) for d in ediags]
    return dict(ts.defines)["y_out"]


@pytest.mark.parametrize("form", SUPPORTED_FORMS + UNSUPPORTED_FORMS)
def test_assign_and_always_comb_elaborate_alike(form):
    assign = _define_or_diagnostics(f"assign y_out = {form};")
    block = _define_or_diagnostics(f"always_comb begin\n    y_out = {form};\n  end")
    assert assign == block
    assert isinstance(assign, ex.Expr) == (form in SUPPORTED_FORMS)


@pytest.mark.parametrize("block", [
    "always_comb begin\n    {select} = a_in;\n  end",
    "always_ff @(posedge clk_in) begin\n    {select} <= a_in;\n  end",
], ids=["always_comb", "always_ff"])
@pytest.mark.parametrize("select", ["y_out[9]", "y_out[9:1]", "mem_q[7]"])
def test_out_of_range_target_is_worded_like_a_read(block, select):
    write = _define_or_diagnostics(block.format(select=select))
    read = _define_or_diagnostics(f"assign y_out = {select};")
    assert [message for _, message, _ in write] == \
        [message for _, message, _ in read]


@pytest.mark.parametrize("block", [
    "always_comb begin\n    y_out = {form};\n  end",
    "always_ff @(posedge clk_in) begin\n    y_out <= {form};\n  end",
], ids=["always_comb", "always_ff"])
@pytest.mark.parametrize("form", ["a_in[1][0]", "{a_in, a_in}[0]"])
def test_index_of_an_expression_in_a_block_is_a_compile_error(block, form):
    source = PARITY.format(driver=block.format(form=form))
    verdict = check_design(source, "m", "y_out == 8'd0")
    assert isinstance(verdict, CompileError)
    assert [d.message for d in verdict.diagnostics] == \
        ["index base must be an identifier"]


@pytest.mark.parametrize("ports, net, kind", [
    ("input logic [3:0] A, ", "", "port"),
    ("output logic [3:0] A, ", "", "port"),
    ("", "logic [3:0] A;", "net"),
])
def test_parameter_name_cannot_be_reused_by_a_port_or_net(ports, net, kind):
    source = (f"module m #(parameter A = 5) ({ports}output logic [3:0] y);\n"
              f"  {net}\n  assign y = 4'd0;\nendmodule\n")
    unit, diags = parse_source(source)
    assert unit is not None, [d.message for d in diags]
    ts, _, ediags = elaborate(unit, "m")
    assert ts is None
    assert [d.message for d in ediags] == \
        [f"{kind} 'A' has the same name as a parameter"]


FIRST_DIAGNOSTICS = '''\
from svsec.frontend import parse_source
from svsec.ir import elaborate

CLOCK_CYCLE = """module m(input logic d, output logic q, output logic r);
  logic ca;
  logic cb;
  assign ca = cb;
  assign cb = ca;
  always_ff @(posedge ca) begin q <= d; end
  always_ff @(posedge cb) begin r <= d; end
endmodule
"""
UNDRIVEN = """module m(input logic d, output logic y);
  logic zd;
  logic zc;
  logic zb;
  logic za;
  assign y = zd & zc & zb & za & d;
endmodule
"""
for source in (CLOCK_CYCLE, UNDRIVEN):
    print(elaborate(parse_source(source)[0], "m")[2][0].message)
'''


def test_first_diagnostic_does_not_depend_on_the_hash_seed():
    outputs = set()
    for hash_seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-c", FIRST_DIAGNOSTICS],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        outputs.add(run.stdout)
    assert outputs == {"clock alias cycle through 'ca'\n"
                       "undriven signal 'za' referenced by 'y'\n"}


CHILD_W = """module c #(parameter W = 2) (
  input logic [W-1:0] a,
  output logic [L-1:0] y
);
  localparam L = W;
  assign y = a;
endmodule
module top(input logic [7:0] d, output logic [7:0] q);
  c #({overrides}) u(.a(d), .y(q));
endmodule
"""


@pytest.mark.parametrize("overrides, width", [(".W(8)", 8), ("", 2)])
def test_instance_parameter_override_beats_the_default(overrides, width):
    ts, _ = compile_ts(CHILD_W.replace("{overrides}", overrides), "top")
    assert ts.widths["u.a"] == ts.widths["u.y"] == width


@pytest.mark.parametrize("name", ["N", "L"])
def test_override_of_an_undeclared_parameter_is_a_diagnostic(name):
    unit, diags = parse_source(CHILD_W.replace("{overrides}", f".{name}(8)"))
    assert unit is not None, [d.message for d in diags]
    ts, _, ediags = elaborate(unit, "top")
    assert ts is None
    assert [d.message for d in ediags] == \
        [f"module 'c' has no parameter '{name}' to override"]


DRIVER = """module buf1(input logic a, output logic y);
  assign y = a;
endmodule
module m(input logic clk, input logic d, output logic q);
{body}
endmodule
"""


@pytest.mark.parametrize("body", [
    "  assign q = d;",
    "  always_comb q = d;",
    "  always_ff @(posedge clk) q <= d;",
    "  buf1 u(.a(d), .y(q));",
    "  always_comb q[0] = d;",
], ids=["assign", "always_comb", "always_ff", "instance", "bit-select"])
def test_a_driven_output_port_elaborates(body):
    compile_ts(DRIVER.format(body=body), "m")


@pytest.mark.parametrize("body", ["", "  logic t;\n  assign t = d;"],
                         ids=["nothing", "unrelated net"])
def test_an_undriven_output_port_is_a_diagnostic(body):
    unit, diags = parse_source(DRIVER.format(body=body))
    assert unit is not None, [d.message for d in diags]
    ts, _, ediags = elaborate(unit, "m")
    assert ts is None
    assert [(d.message, d.line) for d in ediags] == \
        [("output port 'q' is never driven", 4)]


BRANCHES = """module m(input logic clk, input logic c, input logic [1:0] s,
  input logic [3:0] a, input logic [3:0] b, output logic [3:0] y,
  output logic [3:0] q);
  always_comb begin
    {comb}
  end
  always_ff @(posedge clk) begin
    {clocked}
  end
endmodule
"""
IF_CHAIN = "if (s == 2'd0) y = a; else if (s == 2'd1) y = b; else y = 4'd7;"


@pytest.mark.parametrize("comb", [
    "case (s) 2'd0: y = a; 2'd1: y = b; default: y = 4'd7; endcase",
    "case (s) 2'd0: y = a; default: y = 4'd7; 2'd1: y = b; endcase",
    "case (s) default: y = 4'd7; 2'd0: y = a; 2'd1: y = b; endcase",
], ids=["default last", "default in the middle", "default first"])
@pytest.mark.parametrize("clocked, chain", [
    ("if (c) q <= a;", "if (c) q <= a; else q <= q;"),
    ("case (s) 2'd0: q <= a; endcase", "if (s == 2'd0) q <= a; else q <= q;"),
], ids=["if without else", "case without default"])
def test_branches_build_the_node_of_the_if_else_chain(comb, clocked, chain):
    ts, _ = compile_ts(BRANCHES.format(comb=comb, clocked=clocked), "m")
    ref, _ = compile_ts(BRANCHES.format(comb=IF_CHAIN, clocked=chain), "m")
    assert dict(ts.defines)["y"] is dict(ref.defines)["y"]
    assert ts.next["q"] is ref.next["q"]


COMB_LINES = """module m(input logic [3:0] a, output logic [3:0] y,
  output logic [3:0] z);
  logic [3:0] t [0:1];
  always_comb begin
    t[0] = a;
    t[1] = a;
    y = a;
    case (a)
      4'd0: y = 4'd1;
      default: t[0] = 4'd2;
      4'd1: begin y = 4'd3; end
    endcase
    z = t[1];
  end
endmodule
"""


def test_a_comb_define_takes_its_last_assignment_line_in_any_arm():
    _, line_map = compile_ts(COMB_LINES, "m")
    # y: the last arm's line, below the default's; t[1]: the last line
    # that assigns any element of t
    assert {n: line_map[n] for n in ("y", "t[0]", "t[1]", "z")} == \
        {"y": 11, "t[0]": 10, "t[1]": 10, "z": 13}


def alias_chain(n: int) -> str:
    lines = ["module m(input logic d, output logic q);"]
    lines += [f"  logic s{i:05d};" for i in range(n + 1)]
    lines += [f"  assign s{i:05d} = s{i + 1:05d};" for i in range(n)]
    lines += [f"  assign s{n:05d} = d;", "  assign q = s00000;", "endmodule"]
    return "\n".join(lines) + "\n"


def test_a_long_define_chain_is_ordered_without_recursion():
    ts, _ = compile_ts(alias_chain(1200), "m")
    names = [n for n, _ in ts.defines]
    assert names == [f"s{i:05d}" for i in range(1200, -1, -1)] + ["q"]
    assert check_design(alias_chain(1200), "m", "q == d").status == "proven"


@pytest.mark.parametrize("op", ["^", "+"])
@pytest.mark.parametrize("clocked", [False, True])
def test_a_long_operator_chain_is_elaborated_without_recursion(op, clocked):
    # 2,500 a's and 2,500 b's: the 1-bit sum and xor are both 0.
    chain = f" {op} ".join(["a", "b"] * 2500)
    body = (f"  always_ff @(posedge clk or negedge rst_n)\n"
            f"    if (!rst_n) q <= 1'b0;\n    else q <= {chain};"
            if clocked else f"  assign q = {chain};")
    source = ("module m(input logic clk, input logic rst_n, input logic a,\n"
              f"         input logic b, output logic q);\n{body}\nendmodule\n")
    verdict = check_design(source, "m", "q == 1'b0")
    assert verdict.status == "proven", verdict


def test_a_combinational_loop_names_its_cycle_and_line():
    source = """module m(input logic d, output logic q);
  logic a, b, c;
  assign c = d & b;
  assign b = a;
  assign a = c;
  assign q = a;
endmodule
"""
    unit, _ = parse_source(source)
    ts, _, ediags = elaborate(unit, "m")
    assert ts is None
    assert [(d.message, d.line) for d in ediags] == \
        [("combinational loop: a -> c -> b -> a", 5)]


ASYNC_HIGH = """module m(input logic clk, input logic rst, input logic [3:0] d,
  output logic [3:0] q);
  always_ff @({edges}) if (rst) q <= 4'd0; else q <= d;
endmodule
"""


def test_the_clock_does_not_depend_on_the_edge_order():
    first, _ = compile_ts(ASYNC_HIGH.format(
        edges="posedge clk or posedge rst"), "m")
    second, _ = compile_ts(ASYNC_HIGH.format(
        edges="posedge rst or posedge clk"), "m")
    assert first.clock == second.clock == "clk"
    assert first.states == second.states == [StateVar("q", 4, 0)]
    assert first.next["q"] is second.next["q"]
