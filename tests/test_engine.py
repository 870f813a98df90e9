from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import svsec
from svsec.check import check_design
from svsec.engine import sat
from svsec.engine.aig import FALSE, Aig, blast_frame
from svsec.engine.bmc import Unroller, bmc
from svsec.engine.cnf import to_cnf
from svsec.engine.induction import k_induction
from svsec.engine.oracle import OracleRefused, explicit_state_oracle
from svsec.engine.result import (CompileError, Falsified, NoCexUpTo, Proven,
                                 Unknown)
from svsec.props import compile_obligation, parse_property
from svsec.props.obligation import evaluate_on_trace

from conftest import COUNTER, compile_ts, pipeline_design
from test_acceptance import (_gen_counter, _gen_lock, _gen_once,
                             _gen_regfile, _random_property)
from test_search_golden import GOLDEN, _check

BY_TWO = """\
module bytwo(
  input logic clk_in,
  input logic rst_n_in,
  output logic [3:0] count_out
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      count_out <= 4'h0;
    end else begin
      count_out <= count_out + 4'h2;
    end
  end
endmodule
"""


def obligation(source, top, text):
    ts, _ = compile_ts(source, top)
    prop, diags = parse_property(text, ts)
    assert prop is not None, [d.message for d in diags]
    return compile_obligation(prop, ts)


def test_bmc_reports_minimal_depth_and_matches_oracle(counter_ts):
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out != 4'h3")
    res = bmc(obl, max_depth=10)
    assert isinstance(res, Falsified) and res.depth == 3
    oracle = explicit_state_oracle(obl)
    assert oracle.violated and oracle.min_depth == 3


def test_bmc_bound_short_of_the_bug(counter_ts):
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out != 4'h3")
    res = bmc(obl, max_depth=2)
    assert isinstance(res, NoCexUpTo) and res.depth == 2


def test_bmc_trace_is_a_real_execution():
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out != 4'h5")
    res = bmc(obl, max_depth=10)
    assert isinstance(res, Falsified)
    tr = res.trace
    assert tr.depth == res.depth == 5
    # the counter must have been enabled and out of reset every cycle
    assert all(v["rst_n_in"] == 1 and v["en_in"] == 1 for v in tr.inputs[:5])
    doc = json.loads(tr.to_json())
    assert doc["depth"] == 5 and len(doc["cycles"]) == 6


def test_k_induction_proves_invariant():
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out <= 4'hF")
    res = k_induction(obl, max_k=4)
    assert isinstance(res, Proven)


def test_deep_induction_on_unreachable_odd_states():
    # counting by two from zero never hits an odd value, but the odd
    # residue class is an 8-cycle of non-violating free states, so the
    # induction step only closes once k covers that whole cycle.
    obl = obligation(BY_TWO, "bytwo",
                     "disable iff (!rst_n_in) count_out != 4'h9")
    res = k_induction(obl, max_k=12)
    assert isinstance(res, Proven) and res.k_used == 8
    oracle = explicit_state_oracle(obl)
    assert not oracle.violated


def test_k_induction_finds_bugs_at_minimal_depth():
    obl = obligation(BY_TWO, "bytwo",
                     "disable iff (!rst_n_in) count_out != 4'h8")
    res = k_induction(obl, max_k=12)
    assert isinstance(res, Falsified) and res.depth == 4
    assert explicit_state_oracle(obl).min_depth == 4


def test_work_budget_yields_unknown():
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out != 4'h3")
    res = k_induction(obl, max_k=32, budget=0)
    assert isinstance(res, Unknown)
    assert res.reason.endswith("exceeded the work budget of 0")
    # a check that needs no search is not cut short
    trivial = obligation(COUNTER, "counter",
                         "disable iff (!rst_n_in) count_out <= 4'hF")
    assert isinstance(k_induction(trivial, max_k=32, budget=0), Proven)


def test_work_budget_is_deterministic_and_monotonic():
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out != 4'h3")
    before = sat.work_units()
    full = k_induction(obl, max_k=12)
    work = sat.work_units() - before
    assert isinstance(full, Falsified) and full.depth == 3

    # the budget bounds the whole check: exactly its work is enough
    res = k_induction(obl, max_k=12, budget=work)
    assert isinstance(res, Falsified) and res.depth == 3

    phases = set()
    last_k = 0
    for budget in range(0, work, 7):
        res = k_induction(obl, max_k=12, budget=budget)
        assert isinstance(res, Unknown), budget
        phase, k = re.fullmatch(
            rf"(base case|induction step) at k=(\d+) exceeded the work "
            rf"budget of {budget}", res.reason).groups()
        assert int(k) == res.max_k
        phases.add(phase)
        # more budget never stops the check earlier
        assert res.max_k >= last_k
        last_k = res.max_k
        again = k_induction(obl, max_k=12, budget=budget)
        assert (again.max_k, again.reason) == (res.max_k, res.reason)
    assert phases == {"base case", "induction step"}


def test_oracle_refuses_oversized_designs(counter_ts):
    obl = obligation(COUNTER, "counter", "count_out <= 4'hF")
    with pytest.raises(OracleRefused):
        explicit_state_oracle(obl, state_bit_cap=2)
    with pytest.raises(OracleRefused):
        explicit_state_oracle(obl, input_bit_cap=1)


def test_free_initial_unroller_relaxes_reset():
    obl = obligation(COUNTER, "counter", "count_out != 4'h7")
    # reset-constrained frame 0 cannot be bad; a free frame 0 can
    assert isinstance(bmc(obl, max_depth=0), NoCexUpTo)
    res = bmc(obl, max_depth=0, unroller=Unroller(obl, free_initial=True))
    assert isinstance(res, Falsified) and res.depth == 0


def test_vcd_export():
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out != 4'h2")
    res = bmc(obl, max_depth=8)
    vcd = res.trace.to_vcd(obl.augmented, module="counter")
    assert "$scope module counter $end" in vcd
    assert "$var wire 4" in vcd and "$enddefinitions $end" in vcd
    assert vcd.count("#") >= 2 * len(res.trace.inputs)


def test_check_design_end_to_end():
    good = check_design(COUNTER, "counter",
                        "disable iff (!rst_n_in) count_out <= 4'hF")
    assert good.status == "proven"

    bad = check_design(COUNTER, "counter",
                       "disable iff (!rst_n_in) count_out != 4'h3")
    assert bad.status == "falsified" and bad.depth == 3
    # both assignments write count_out; the increment on line 12 of the
    # source is the one that produced the violating value
    assert bad.culprit_signal == "count_out" and bad.culprit_line == 12

    assert check_design("module m(", "m", "x == 1").status == "compile_error"
    assert check_design(COUNTER, "counter",
                        "no_such_signal == 1").status == "compile_error"
    assert isinstance(check_design(COUNTER, "wrong_top", "count_out == 0"),
                      CompileError)


def test_step_out_of_budget_is_unknown_not_a_failed_step():
    # with 50 work units, the step query at k=2 runs out; that must end
    # the search rather than count as a step that fails
    obl = obligation(COUNTER, "counter",
                     "disable iff (!rst_n_in) count_out != 4'h3")
    res = k_induction(obl, max_k=12, budget=50)
    assert isinstance(res, Unknown) and res.max_k == 2
    assert res.reason == "induction step at k=2 exceeded the work budget of 50"


def _blasted_frames(obl, free_initial: bool, depth: int):
    """Reference unrolling: blast every frame anew into one AIG.
    Returns the AIG and each frame's bus of every TS signal."""
    ts = obl.augmented
    aig = Aig()
    state = {s.name: aig.bus_input(s.width)
             if s.reset is None or free_initial
             else aig.bus_const(s.width, s.reset) for s in ts.states}
    frames = []
    for _ in range(depth + 1):
        frame, state = blast_frame(aig, ts, state)
        frames.append(frame)
    return aig, frames


def _input_values(aig: Aig, named_buses, seed: int) -> dict:
    """A random value for every AIG input among the bits of the named
    buses, drawn from the seed and the bit's name, so that two AIGs of
    the same system get the same valuation."""
    values = {}
    for key, bus in named_buses:
        for i, lit in enumerate(bus):
            if lit > 1 and aig.nodes[lit >> 1] is None:
                rng = random.Random(f"{seed}/{key}/{i}")
                values[lit] = rng.getrandbits(1)
    return values


@pytest.mark.parametrize("name", [n for n in GOLDEN if n.startswith("cwe")]
                         + ["prove8", "leak8"])
def test_copying_the_template_builds_the_blasted_aig(name):
    # The unroller copies only the cone of `bad`; a per-frame blast of
    # the whole system is the reference.  Under the same random inputs
    # and initial state, `bad` and every cone state bit must agree.
    source, top, text = _check(name)
    obl = obligation(source, top, text)
    ts = obl.augmented
    for free_initial in (False, True):
        un = Unroller(obl, free_initial)
        un.bad(2)
        aig, frames = _blasted_frames(obl, free_initial, 2)
        assert len(un.aig.nodes) <= len(aig.nodes)
        names = [n for n, _ in ts.inputs]
        for seed in range(8):
            def valuation(target, bus):
                keys = [((0, s.name), bus(0, s.name)) for s in ts.states]
                keys += [((t, n), bus(t, n)) for t in range(3) for n in names]
                return _input_values(target, keys, seed)

            full = valuation(aig, lambda t, n: frames[t][n])
            cone = valuation(un.aig, un.bus)
            for t, frame in enumerate(frames):
                want = [frame[obl.bad_name][0]] + [
                    frame[n][i] for n, i in un.template.state_bits]
                got = [un.bad(t)] + un.state_lits(t)
                assert (un.aig.evaluate(cone, got)
                        == aig.evaluate(full, want)), (free_initial, t)


def _eager_step_cnf(aig: Aig, bads: list[int], states: list[list[int]]):
    """One fresh CNF of the step at k = len(bads) - 1, with every
    pairwise distinctness constraint up front; None when the step holds
    vacuously."""
    k = len(bads) - 1
    if bads[k] == FALSE:
        return None
    roots = [bads[k]]
    for t in range(k):
        good = bads[t] ^ 1
        if good == FALSE:
            return None  # a good frame is impossible; vacuously holds
        roots.append(good)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            roots.append(aig.bus_eq(states[i], states[j]) ^ 1)
    if FALSE in roots:
        return None
    return to_cnf(aig, roots)


def _eager_step_holds(un: Unroller, k: int) -> bool:
    """Reference step over the unroller's frames."""
    f = _eager_step_cnf(un.aig, [un.bad(t) for t in range(k + 1)],
                        [un.state_lits(t) for t in range(k + 1)])
    return f is None or sat.solve(f.clauses, f.num_vars)[0] == sat.UNSAT


def _eager_k_induction(obl, max_k: int):
    base, step = Unroller(obl), Unroller(obl, free_initial=True)
    for k in range(max_k + 1):
        res = bmc(obl, max_depth=k, unroller=base)
        if isinstance(res, Falsified):
            return res
        if _eager_step_holds(step, k):
            return Proven(k_used=k)
    return Unknown(max_k=max_k, reason="induction depth exhausted")


def _summary(verdict):
    return (verdict.status, getattr(verdict, "k_used", None),
            getattr(verdict, "depth", None))


# State 1 loops on itself until go_in sends it to the bad state 2, and
# reset only reaches 0, so only the simple-path constraint closes the step.
STUCK = """\
module stuck(
  input logic clk_in,
  input logic rst_n_in,
  input logic go_in,
  output logic [1:0] state_out
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      state_out <= 2'd0;
    end else if (state_out == 2'd1 && go_in) begin
      state_out <= 2'd2;
    end
  end
endmodule
"""


@pytest.mark.parametrize("source, top, text, k_used", [
    (BY_TWO, "bytwo", "disable iff (!rst_n_in) count_out != 4'h9", 8),
    (STUCK, "stuck", "disable iff (!rst_n_in) state_out != 2'd2", 2),
], ids=["bytwo", "stuck"])
def test_lazy_simple_path_matches_eager(source, top, text, k_used):
    obl = obligation(source, top, text)
    eager = _eager_k_induction(obl, max_k=12)
    lazy = k_induction(obl, max_k=12)
    assert _summary(lazy) == _summary(eager) == ("proven", k_used, None)


def test_lazy_simple_path_matches_eager_on_random_designs():
    rng = random.Random(4242)
    generators = (_gen_counter, _gen_regfile, _gen_lock, _gen_once)
    statuses = set()
    for _ in range(50):
        src, ins, outs, candidates = rng.choice(generators)(rng)
        obl = obligation(src, "duv",
                         _random_property(rng, ins, outs, candidates))
        lazy = k_induction(obl, max_k=32)
        assert _summary(lazy) == _summary(_eager_k_induction(obl, 32))
        statuses.add(lazy.status)
    assert statuses == {"proven", "falsified"}


def _beside_a_counter(source: str, reset: int) -> str:
    """`source` with a free-running 8-bit counter, `tick_out`, that
    starts at `reset` and that no property reads."""
    block = ("  always_ff @(posedge clk_in or negedge rst_n_in) begin\n"
             "    if (!rst_n_in) begin\n"
             f"      tick_out <= 8'd{reset};\n"
             "    end else begin\n"
             "      tick_out <= tick_out + 8'd1;\n"
             "    end\n"
             "  end\n")
    port = ",\n  output logic [7:0] tick_out\n);\n"
    return (source.replace("\n);\n", port, 1)
            .replace("endmodule\n", block + "endmodule\n"))


def test_state_outside_the_cone_is_not_unrolled():
    # Only the simple-path constraint closes STUCK's step.  Unrolled,
    # the counter would make every path simple, and the step would not
    # close at any k below 256.
    text = "disable iff (!rst_n_in) state_out != 2'd2"
    obl = obligation(_beside_a_counter(STUCK, 0), "stuck", text)
    alone = obligation(STUCK, "stuck", text)
    step, step_alone = (Unroller(o, free_initial=True) for o in (obl, alone))
    assert all(name != "tick_out" for name, _ in step.template.state_bits)
    assert step.bus(0, "tick_out") == (FALSE,) * 8
    assert step.template.state_bits == step_alone.template.state_bits
    assert len(step.state_lits(2)) == len(step_alone.state_lits(2))
    assert (_summary(k_induction(obl, max_k=12))
            == _summary(k_induction(alone, max_k=12))
            == ("proven", 2, None))

    # the step at k = 2 over the cone, and over the whole system
    cone = _eager_step_cnf(step.aig, [step.bad(t) for t in range(3)],
                           [step.state_lits(t) for t in range(3)])
    aig, frames = _blasted_frames(obl, True, 2)
    full = _eager_step_cnf(
        aig, [frame[obl.bad_name][0] for frame in frames],
        [[lit for s in obl.augmented.states for lit in frame[s.name]]
         for frame in frames])
    assert cone.num_vars < full.num_vars
    assert sat.solve(cone.clauses, cone.num_vars)[0] == sat.UNSAT
    assert sat.solve(full.clauses, full.num_vars)[0] == sat.SAT


def test_trace_starts_state_outside_the_cone_at_reset():
    text = "disable iff (!rst_n_in) count_out != 4'h3"
    source = _beside_a_counter(COUNTER, 0xA5)
    obl = obligation(source, "counter", text)
    res = k_induction(obl, max_k=12)
    assert isinstance(res, Falsified) and res.depth == 3
    tr = res.trace
    assert tr.initial["tick_out"] == 0xA5
    assert tr.states[3]["tick_out"] == 0xA8
    assert evaluate_on_trace(obl, tr) == 3
    # the culprit is the increment, as without the counter
    verdict = check_design(source, "counter", text)
    line = source.splitlines()[verdict.culprit_line - 1]
    assert line.strip() == "count_out <= count_out + 4'h1;"
    assert verdict.culprit_line == check_design(COUNTER, "counter",
                                                text).culprit_line + 1


def test_deep_induction_work_stays_small():
    # the masked bit needs k = 16 to prove; solver work, unlike time,
    # is deterministic, so it guards the incremental step directly
    before = sat.work_units()
    res = check_design(pipeline_design(16, 8, 7), "pipe", "!q_out[7]")
    work = sat.work_units() - before
    assert res.status == "proven" and res.k_used == 16
    assert work < 5_000, work


SHARED_TERMS = r"""
import sys
from svsec.check import check_design
from svsec.frontend import parse_source
from svsec.ir.elaborate import elaborate
from svsec.ir.transition import compile_stepper, simulate_step

n = int(sys.argv[1])
steps = [f"if (d_in[{i % 4}]) x = x + 4'd1;" for i in range(n)]
comb = "\n".join(
    ["module m(input logic clk, input logic [3:0] d_in,",
     "         output logic [3:0] q);",
     "  logic [3:0] x;", "  always_comb begin", "    x = 4'd0;"]
    + ["    " + st for st in steps]
    + ["  end", "  assign q = x;", "endmodule", ""])
ff = "\n".join(
    ["module m(input logic clk, input logic rst_n, input logic [3:0] d_in,",
     "         output logic [3:0] x);",
     "  always_ff @(posedge clk or negedge rst_n) begin",
     "    if (!rst_n) x = 4'd0;", "    else begin"]
    + ["      " + st for st in steps]
    + ["    end", "  end", "endmodule", ""])
arms = "\n".join(
    ["module m(input logic clk, input logic c, input logic [3:0] d_in,",
     "         output logic [3:0] q);",
     "  logic [3:0] x;", "  always_comb begin", "    x = 4'd0;",
     "    if (c) begin"]
    + ["      " + st for st in steps] + ["    end else begin"]
    + ["      " + st for st in steps]
    + ["    end", "  end", "  assign q = x;", "endmodule", ""])
for source, prop in ((comb, "q != 4'd14"), (ff, "x != 4'd14"),
                     (arms, "q != 4'd14")):
    v = check_design(source, "m", prop)
    print(v.status, getattr(v, "depth", None), getattr(v, "culprit_line", 0))
ts = elaborate(parse_source(comb)[0], "m")[0]
ins = {n: 7 if n == "d_in" else 0 for n, _ in ts.inputs}
print(compile_stepper(ts)((), tuple(ins.values()))[1]["q"],
      simulate_step(ts, {}, ins)[1]["q"])
"""


def test_shared_terms_are_walked_once():
    # Each statement reads the value the one before it wrote, so the
    # IR shares every term; a walk that unfolds it into a tree takes
    # 2**n steps and did not finish in 60 s at n = 40.  The third
    # design repeats the statements in both arms of an `if (c)`, whose
    # values the mux fold compares; compared as trees, that took 2**n
    # steps too.
    n = 40
    path = [str(Path(svsec.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run([sys.executable, "-c", SHARED_TERMS, str(n)],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    # Three set bits of d_in fire 30 increments, and 30 mod 16 = 14:
    # the always_comb form is falsified at once, on its `assign q = x`
    # line, and the always_ff form in the first cycle, by its last
    # increment.  Identical arms fold to one value, so that design
    # fails like the first.  The stepper and the simulator agree on
    # d_in = 7.
    assert run.stdout.splitlines() == [
        f"falsified 0 {7 + n}", f"falsified 1 {5 + n}",
        f"falsified 0 {10 + 2 * n}", "14 14"], run.stdout


def test_nesting_past_the_recursion_limit_is_unknown():
    def parity(n):
        terms = " ^ ".join(f"d_in[{i}]" for i in range(n))
        return (f"module m(input logic [{n - 1}:0] d_in, output logic p);\n"
                f"  assign p = {terms};\nendmodule\n", "p == ^d_in")

    def parens(n):
        return ("module m(input logic a, output logic p);\n"
                f"  assign p = {'(' * n}a{')' * n};\nendmodule\n", "p == a")

    source, prop = parens(150)
    assert check_design(source, "m", prop).status == "proven"
    source, prop = parens(2000)
    deep = check_design(source, "m", prop)
    assert isinstance(deep, Unknown) and deep.max_k == 0
    assert "recursion limit" in deep.reason
    # An operator chain nests only down its left operands, which
    # elaboration walks in a loop: it stays below the limit.
    for n in (8, 2000):
        source, prop = parity(n)
        assert check_design(source, "m", prop).status == "proven"
