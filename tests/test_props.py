from __future__ import annotations

import pytest

from svsec.check import check_design
from svsec.engine import Trace
from svsec.engine.oracle import explicit_state_oracle
from svsec.engine.result import Falsified, Proven
from svsec.frontend.diagnostics import DiagnosticError
from svsec.ir import expr as ex
from svsec.props import (BAD, PAST_DEPTH_CAP, compile_obligation,
                         evaluate_on_trace, parse_property)

from conftest import COUNTER, compile_ts


def parse_ok(text, ts):
    prop, diags = parse_property(text, ts)
    assert prop is not None, [d.message for d in diags]
    return prop


def parse_bad(text, ts):
    prop, diags = parse_property(text, ts)
    assert prop is None and diags
    return [d.message for d in diags]


def test_plain_invariant(counter_ts):
    prop = parse_ok("count_out <= 4'hF", counter_ts)
    assert prop.antecedent is None and prop.disable is None
    assert not prop.nonoverlapped
    assert prop.lookback() == 0


def test_implication_forms(counter_ts):
    p1 = parse_ok("(en_in) |-> (count_out == count_out)", counter_ts)
    assert p1.antecedent is not None and not p1.nonoverlapped
    p2 = parse_ok("(en_in) |=> (count_out == count_out)", counter_ts)
    assert p2.nonoverlapped


def test_disable_iff(counter_ts):
    prop = parse_ok("disable iff (!rst_n_in) (en_in) |=> "
                    "(count_out == $past(count_out) + 1)", counter_ts)
    assert prop.disable is not None
    # $past needs 1 cycle; a delayed antecedent looks back 1 more
    assert prop.lookback() == 1


def test_lookback_accounting(counter_ts):
    assert parse_ok("count_out == $past(count_out, 3)",
                    counter_ts).lookback() == 3
    assert parse_ok("$rose(en_in) |-> count_out >= 0",
                    counter_ts).lookback() == 1
    assert parse_ok("$past(en_in) |=> count_out >= 0",
                    counter_ts).lookback() == 2


def test_validation_errors(counter_ts):
    # Names are the elaborator's to judge, in the design's words.
    prop = parse_ok("bogus_signal == 1", counter_ts)
    with pytest.raises(DiagnosticError,
                       match="unknown identifier 'bogus_signal'"):
        compile_obligation(prop, counter_ts)

    msgs = parse_bad("clk_in == 1", counter_ts)
    assert any("cannot appear" in m for m in msgs)

    msgs = parse_bad(f"count_out == $past(count_out, {PAST_DEPTH_CAP + 1})",
                     counter_ts)
    assert any("exceeds cap" in m for m in msgs)

    msgs = parse_bad("count_out == $past(count_out, 0)", counter_ts)
    assert any("positive constant" in m for m in msgs)

    msgs = parse_bad("$rose(en_in, en_in) == 1", counter_ts)
    assert any("exactly one argument" in m for m in msgs)

    msgs = parse_bad("en_in == 1 garbage", counter_ts)
    assert any("trailing input" in m for m in msgs)

    msgs = parse_bad("$display(en_in) == 1", counter_ts)
    assert any("not supported" in m for m in msgs)


def test_an_unknown_name_reads_the_same_in_a_design_and_a_property():
    design = COUNTER.replace("count_out + 4'h1", "count_out + step")
    in_design = check_design(design, "counter", "count_out != 4'h3")
    in_property = check_design(COUNTER, "counter", "count_out != step")
    assert [d.message for d in in_design.diagnostics] == \
        [d.message for d in in_property.diagnostics] == \
        ["unknown identifier 'step'"]
    assert not in_design.in_property and in_property.in_property


def test_a_property_cannot_name_a_history_register(counter_ts):
    prop = parse_ok("$past(count_out) == __p0_1", counter_ts)
    with pytest.raises(DiagnosticError, match="unknown identifier '__p0_1'"):
        compile_obligation(prop, counter_ts)


# A counter whose name is the one the obligation gives its first
# history register, and its twin, which names the counter `cnt_out`.
CLASH = """\
module m(
  input logic clk_in,
  input logic rst_n_in,
  input logic a_in,
  output logic [3:0] __p0_1
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) __p0_1 <= 4'd0;
    else __p0_1 <= __p0_1 + 4'd1;
  end
endmodule
"""


@pytest.mark.parametrize("text, depth", [
    ("$past(a_in) == a_in", 1),
    ("$past(__p0_1) == 4'd3 |-> __p0_1 == 4'd4", 4),
    ("disable iff (!rst_n_in) a_in |=> __p0_1 == $past(__p0_1) + 4'd1", None),
])
def test_a_design_signal_named_like_an_obligation_register(text, depth):
    twin = (CLASH.replace("__p0_1", "cnt_out"), text.replace("__p0_1",
                                                             "cnt_out"))
    verdicts = []
    for design, prop in ((CLASH, text), twin):
        verdict = check_design(design, "m", prop)
        ts, _ = compile_ts(design, "m")
        oracle = explicit_state_oracle(
            compile_obligation(parse_ok(prop, ts), ts))
        assert oracle.min_depth == depth
        verdicts.append((verdict.status, getattr(verdict, "depth", None),
                         getattr(verdict, "k_used", None)))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][:2] == (("falsified", depth) if depth is not None
                               else ("proven", None))


SHIFT = """\
module shift(
  input logic clk_in,
  input logic rst_n_in,
  input logic a_in,
  input logic b_in,
  input logic [1:0] sel_in,
  output logic [3:0] q_out
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) q_out <= 4'd0;
    else q_out <= {1'b0, q_out[1:0], a_in};
  end
endmodule
"""

ROTATE = """\
module rotate(
  input logic clk_in,
  input logic rst_n_in,
  input logic en_in,
  output logic [3:0] hot_out,
  output logic [1:0] idx_out
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      hot_out <= 4'b0001;
      idx_out <= 2'd0;
    end else if (en_in) begin
      hot_out <= {hot_out[2:0], hot_out[3]};
      idx_out <= idx_out + 2'd1;
    end
  end
endmodule
"""

# Properties that use the forms a property shares with a design:
# concatenation, replication, a variable bit-select and part-select
# bounds written as constant expressions.  Each row is (top module,
# property, depth of the first violation or None for proven).
SHARED_FORMS = [
    ("shift", "{a_in, b_in} != 2'b11", 0),
    ("shift", "{q_out[3], q_out[0]} != 2'b01", 1),
    ("shift", "{q_out[3], q_out[0]} != 2'b11", None),
    ("shift", "{2{q_out[3]}} == 2'b00", None),
    ("shift", "{2{q_out[2]}} == 2'b00", 3),
    ("shift", "{{2{q_out[1]}}, q_out[3]} != 3'b111", None),
    ("shift", "q_out[sel_in] == 1'b0", 1),
    ("shift", "q_out[sel_in + 2'd2] == 1'b0", 1),
    ("shift", "q_out[$past(sel_in)] == 1'b0", 1),
    ("shift", "q_out[2*2-1:2+1] == 1'b0", None),
    ("shift", "q_out[3-1:0] != 3'b111", 3),
    ("shift", "$past({a_in, b_in}) != 2'b11", 1),
    ("shift", "$past({rst_n_in, a_in}) == 2'b11 |-> q_out[0]", None),
    ("shift", "$past({rst_n_in, b_in}) == 2'b11 |-> q_out[0]", 1),
    ("rotate", "hot_out[idx_out] == 1'b1", None),
    ("rotate", "hot_out[idx_out + 2'd1] == 1'b0", None),
    ("rotate", "hot_out[$past(idx_out)] == 1'b1", 1),
    ("rotate", "$past(rst_n_in && en_in) |-> "
              "hot_out[$past(idx_out) + 2'd1]", None),
    ("rotate", "$past(rst_n_in && !en_in) |-> hot_out[$past(idx_out)]", None),
    ("rotate", "$past(rst_n_in && en_in) |-> hot_out[$past(idx_out)]", 1),
    ("rotate", "$past({hot_out, idx_out}) != {4'b0100, 2'd2}", 3),
]


@pytest.mark.parametrize("top, text, depth", SHARED_FORMS)
def test_shared_forms_agree_with_the_oracle(top, text, depth):
    design = {"shift": SHIFT, "rotate": ROTATE}[top]
    verdict = check_design(design, top, text)
    ts, _ = compile_ts(design, top)
    oracle = explicit_state_oracle(
        compile_obligation(parse_ok(text, ts), ts))
    if oracle.violated:
        assert isinstance(verdict, Falsified), verdict.status
        assert verdict.depth == oracle.min_depth
    else:
        assert isinstance(verdict, Proven), verdict.status
    assert oracle.min_depth == depth


def test_obligation_structure(counter_ts):
    prop = parse_ok("disable iff (!rst_n_in) (en_in) |=> "
                    "(count_out == $past(count_out) + 1)", counter_ts)
    obl = compile_obligation(prop, counter_ts)
    names = {s.name for s in obl.augmented.states}
    assert "__ant" in names          # antecedent delay register
    assert "__dis" in names          # disable shadow for the attempt cycle
    assert "__v_1" in names          # warm-up chain
    assert any(n.startswith("__p") for n in names)  # history register
    assert obl.bad_name == BAD
    assert obl.augmented.widths[obl.bad_name] == 1
    # original system is untouched
    assert {s.name for s in counter_ts.states} == {"count_out"}


def test_history_chains_are_allocated_in_post_order(counter_ts):
    # The chain order fixes the AIG and CNF variable order, and with it
    # the solver's work.  The inner `$past(count_out)` gets its chain
    # before the `$past` around it; chains are numbered left to right;
    # `$past(en_in, 2)` deepens the chain `$rose(en_in)` opened.
    prop = parse_ok("$past($past(count_out)) != 4'h1 |-> "
                    "$stable(rst_n_in) || $rose(en_in) && $past(en_in, 2)",
                    counter_ts)
    obl = compile_obligation(prop, counter_ts)
    assert [(s.name, s.width, s.reset) for s in obl.augmented.states] == [
        ("count_out", 4, 0),
        ("__p0_1", 4, 0),
        ("__p1_1", 4, 0),
        ("__p2_1", 1, 0),
        ("__p3_1", 1, 0), ("__p3_2", 1, 0),
        ("__v_1", 1, 0), ("__v_2", 1, 0),
    ]
    nxt = obl.augmented.next
    assert nxt["__p0_1"] == ex.Ref(4, "count_out")
    assert nxt["__p1_1"] == ex.Ref(4, "__p0_1")
    assert nxt["__p2_1"] == ex.Ref(1, "rst_n_in")
    assert nxt["__p3_1"] == ex.Ref(1, "en_in")
    assert nxt["__p3_2"] == ex.Ref(1, "__p3_1")


def trace_cycle(rst, en):
    return {"rst_n_in": rst, "en_in": en}


def run(obl, cycles):
    return evaluate_on_trace(obl, Trace(initial={"count_out": 0},
                                        inputs=cycles))


@pytest.fixture
def inc_obl(counter_ts):
    prop = parse_ok("disable iff (!rst_n_in) (en_in) |=> "
                    "(count_out == $past(count_out) + 1)", counter_ts)
    return compile_obligation(prop, counter_ts)


def test_holding_trace_has_no_violation(inc_obl):
    cycles = [trace_cycle(0, 0)] + [trace_cycle(1, 1)] * 6
    assert run(inc_obl, cycles) is None


def test_reset_mid_attempt_is_disabled_not_violated(inc_obl):
    # enable fires, then reset pulls count back to 0: disable must mask it
    cycles = [trace_cycle(1, 1), trace_cycle(0, 0), trace_cycle(1, 0)]
    assert run(inc_obl, cycles) is None


def test_violation_cycle_is_exact(counter_ts):
    # claim the counter never reaches 3
    prop = parse_ok("disable iff (!rst_n_in) count_out != 4'h3", counter_ts)
    obl = compile_obligation(prop, counter_ts)
    cycles = [trace_cycle(1, 1)] * 6
    # states are 0,1,2,3,... so __bad first holds at cycle 3
    assert run(obl, cycles) == 3


def test_overlapped_vs_nonoverlapped(counter_ts):
    # overlapped: consequent sampled in the same cycle as the antecedent
    now = parse_ok("(en_in) |-> (count_out == 4'h0)", counter_ts)
    later = parse_ok("(en_in) |=> (count_out == 4'h1)", counter_ts)
    cycles = [trace_cycle(1, 1)] * 3
    assert run(compile_obligation(now, counter_ts), cycles) == 1
    assert run(compile_obligation(later, counter_ts), cycles) == 2


def test_warm_up_suppresses_underfilled_history(counter_ts):
    # $past(count_out, 2) would read garbage in cycles 0-1; warm-up must
    # keep the check quiet until real history exists.
    prop = parse_ok("count_out >= $past(count_out, 2)", counter_ts)
    obl = compile_obligation(prop, counter_ts)
    assert run(obl, [trace_cycle(1, 0)] * 4) is None


def test_rose_fell_stable(counter_ts):
    rose = compile_obligation(
        parse_ok("!$rose(en_in)", counter_ts), counter_ts)
    fell = compile_obligation(
        parse_ok("!$fell(en_in)", counter_ts), counter_ts)
    stable = compile_obligation(
        parse_ok("$stable(en_in)", counter_ts), counter_ts)
    cycles = [trace_cycle(1, 0), trace_cycle(1, 1), trace_cycle(1, 1),
              trace_cycle(1, 0)]
    assert run(rose, cycles) == 1    # 0 -> 1 between cycles 0 and 1
    assert run(fell, cycles) == 3    # 1 -> 0 between cycles 2 and 3
    assert run(stable, cycles) == 1  # first change
