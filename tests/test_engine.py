from __future__ import annotations

import json
import random
import re

import pytest

from svsec.check import check_design
from svsec.engine import sat
from svsec.engine.aig import FALSE
from svsec.engine.bmc import Unroller, bmc
from svsec.engine.cnf import to_cnf
from svsec.engine.induction import k_induction
from svsec.engine.oracle import OracleRefused, explicit_state_oracle
from svsec.engine.result import (CompileError, Falsified, NoCexUpTo, Proven,
                                 Unknown)
from svsec.props import compile_obligation, parse_property

from conftest import COUNTER, compile_ts
from test_acceptance import (_gen_counter, _gen_lock, _gen_once,
                             _gen_regfile, _random_property)

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
    strong = k_induction(obl, max_k=12, simple_path=True)
    assert isinstance(strong, Proven) and strong.k_used == 8
    plain = k_induction(obl, max_k=12, simple_path=False)
    assert isinstance(plain, Proven) and plain.k_used >= strong.k_used
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


def _eager_step_holds(un: Unroller, k: int, simple_path: bool) -> bool:
    """Reference step: one fresh CNF with every pairwise distinctness
    constraint up front."""
    bad_k = un.bad(k)
    if bad_k == FALSE:
        return True
    roots = [bad_k]
    for t in range(k):
        good = un.bad(t) ^ 1
        if good == FALSE:
            return True  # a good frame is impossible; vacuously holds
        roots.append(good)
    if simple_path:
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                roots.append(un.aig.bus_eq(un.state_lits(i),
                                           un.state_lits(j)) ^ 1)
    if FALSE in roots:
        return True
    f = to_cnf(un.aig, roots)
    return sat.solve(f.clauses, f.num_vars)[0] == sat.UNSAT


def _eager_k_induction(obl, max_k: int, simple_path: bool = True):
    base, step = Unroller(obl), Unroller(obl, free_initial=True)
    for k in range(max_k + 1):
        res = bmc(obl, max_depth=k, unroller=base)
        if isinstance(res, Falsified):
            return res
        if _eager_step_holds(step, k, simple_path):
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


@pytest.mark.parametrize("simple_path", [True, False])
@pytest.mark.parametrize("source, top, text, k_used", [
    (BY_TWO, "bytwo", "disable iff (!rst_n_in) count_out != 4'h9", 8),
    (STUCK, "stuck", "disable iff (!rst_n_in) state_out != 2'd2", 2),
], ids=["bytwo", "stuck"])
def test_lazy_simple_path_matches_eager(source, top, text, k_used,
                                        simple_path):
    obl = obligation(source, top, text)
    eager = _eager_k_induction(obl, max_k=12, simple_path=simple_path)
    lazy = k_induction(obl, max_k=12, simple_path=simple_path)
    assert _summary(lazy) == _summary(eager)
    if simple_path:
        assert _summary(lazy) == ("proven", k_used, None)


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


def _pipeline_design(depth: int, width: int, masked_bit: int) -> str:
    """A depth-stage register pipeline whose input has one bit masked."""
    regs = [f"s{i}_q" for i in range(depth - 1)] + ["q_out"]
    mask = ((1 << width) - 1) & ~(1 << masked_bit)
    lines = ["module pipe(",
             "  input logic clk_in,",
             "  input logic rst_n_in,",
             f"  input logic [{width - 1}:0] d_in,",
             f"  output logic [{width - 1}:0] q_out",
             ");"]
    lines += [f"  logic [{width - 1}:0] {r};" for r in regs[:-1]]
    lines += ["  always_ff @(posedge clk_in or negedge rst_n_in) begin",
              "    if (!rst_n_in) begin"]
    lines += [f"      {r} <= {width}'d0;" for r in regs]
    lines += ["    end else begin",
              f"      {regs[0]} <= d_in & {width}'d{mask};"]
    lines += [f"      {regs[i]} <= {regs[i - 1]};" for i in range(1, depth)]
    lines += ["    end", "  end", "endmodule"]
    return "\n".join(lines) + "\n"


def test_deep_induction_work_stays_small():
    # the masked bit needs k = 16 to prove; solver work, unlike time,
    # is deterministic, so it guards the incremental step directly
    before = sat.work_units()
    res = check_design(_pipeline_design(16, 8, 7), "pipe", "!q_out[7]")
    work = sat.work_units() - before
    assert res.status == "proven" and res.k_used == 16
    assert work < 5_000, work
