"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS` line on success (visible
with -v/-s); a failure reads as the usual pytest failure for that
criterion.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import svsec
from svsec.catalog import list_problems
from svsec.catalog.problems import design_text, instantiate_property_text
from svsec.check import check_design
from svsec.engine.induction import k_induction
from svsec.engine.oracle import explicit_state_oracle
from svsec.engine.result import Falsified, Proven
from svsec.gen import StubProvider, generate_batch
from svsec.metrics import (check_scope, export_csv, keyword_frequency,
                           label_batch, pass_at_k, passatk_by_difficulty,
                           verdict_counts, write_heatmap_json,
                           write_keywords_csv)
from svsec.props import compile_obligation, parse_property

from conftest import compile_ts


# =====================================================================
# criterion 1: the printed adjudication fixture
# =====================================================================

def test_criterion_1_reference_adjudication_fixture():
    (spec,) = list_problems(cwe=1209, difficulty="basic")
    prop_text = instantiate_property_text(spec)

    t0 = time.monotonic()
    good = check_design(design_text(spec.correct_file), spec.module_name,
                        prop_text)
    t_good = time.monotonic() - t0
    assert good.status == "proven"
    assert t_good < 5.0

    t0 = time.monotonic()
    bad = check_design(design_text(spec.vulnerable_file), spec.module_name,
                       prop_text)
    t_bad = time.monotonic() - t0
    assert bad.status == "falsified"
    assert t_bad < 5.0

    # the counterexample must point at the reserved-register readout
    src_lines = design_text(spec.vulnerable_file).splitlines()
    assert bad.culprit_line == 21
    assert bad.culprit_signal == "data_out"
    assert "data_out <= registers[1];" in src_lines[20]

    print(f"criterion 1: PASS — proven in {t_good:.2f}s, falsified at "
          f"depth {bad.depth} citing line 21 in {t_bad:.2f}s")


# =====================================================================
# criterion 2: oracle equivalence on randomized designs
# =====================================================================

def _gen_counter(rng):
    w = rng.choice((2, 3, 4))
    step = rng.randint(1, 3)
    src = f"""\
module duv(
  input logic clk_in,
  input logic rst_n_in,
  input logic en_in,
  output logic [{w - 1}:0] count_out
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      count_out <= {w}'d0;
    end else if (en_in) begin
      count_out <= count_out + {w}'d{step};
    end
  end
endmodule
"""
    outs = [("count_out", w)]
    ins = [("en_in", 1)]
    candidates = [
        "disable iff (!rst_n_in) (!en_in) |=> $stable(count_out)",
        f"disable iff (!rst_n_in) count_out <= {w}'d{(1 << w) - 1}",
        f"disable iff (!rst_n_in) count_out != {w}'d"
        f"{rng.randrange(1 << w)}",
    ]
    return src, ins, outs, candidates


def _gen_regfile(rng):
    w = rng.choice((2, 3))
    src = f"""\
module duv(
  input logic clk_in,
  input logic rst_n_in,
  input logic we_in,
  input logic addr_in,
  input logic [{w - 1}:0] data_in,
  output logic [{w - 1}:0] rdata_out
);
  logic [{w - 1}:0] mem_q [0:1];

  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      mem_q[0] <= {w}'d0;
      mem_q[1] <= {w}'d0;
    end else if (we_in) begin
      mem_q[addr_in] <= data_in;
    end
  end

  assign rdata_out = addr_in ? mem_q[1] : mem_q[0];
endmodule
"""
    outs = [("rdata_out", w)]
    ins = [("we_in", 1), ("addr_in", 1), ("data_in", w)]
    candidates = [
        "disable iff (!rst_n_in) (!we_in && $stable(addr_in)) |=> "
        "$stable(rdata_out)",
        f"disable iff (!rst_n_in) rdata_out <= {w}'d{(1 << w) - 1}",
    ]
    return src, ins, outs, candidates


def _gen_lock(rng):
    w = rng.choice((2, 3))
    guard = "!locked_out && write_in" if rng.random() < 0.5 else "write_in"
    src = f"""\
module duv(
  input logic clk_in,
  input logic rst_n_in,
  input logic write_in,
  input logic lock_in,
  input logic [{w - 1}:0] data_in,
  output logic [{w - 1}:0] data_out,
  output logic locked_out
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      locked_out <= 1'b0;
      data_out <= {w}'d0;
    end else begin
      if (lock_in) begin
        locked_out <= 1'b1;
      end
      if ({guard}) begin
        data_out <= data_in;
      end
    end
  end
endmodule
"""
    outs = [("data_out", w), ("locked_out", 1)]
    ins = [("write_in", 1), ("lock_in", 1), ("data_in", w)]
    candidates = [
        # true exactly when the write path honours the lock bit
        "disable iff (!rst_n_in) (locked_out && write_in) |=> "
        "$stable(data_out)",
        "disable iff (!rst_n_in) $rose(locked_out) |-> 1'b1",
        "disable iff (!rst_n_in) (lock_in) |=> locked_out",
    ]
    return src, ins, outs, candidates


def _gen_once(rng):
    w = rng.choice((2, 3))
    guard = "!written_out" if rng.random() < 0.5 else "1'b1"
    src = f"""\
module duv(
  input logic clk_in,
  input logic rst_n_in,
  input logic write_in,
  input logic [{w - 1}:0] data_in,
  output logic [{w - 1}:0] data_out,
  output logic written_out
);
  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      written_out <= 1'b0;
      data_out <= {w}'d0;
    end else if (write_in && ({guard})) begin
      written_out <= 1'b1;
      data_out <= data_in;
    end
  end
endmodule
"""
    outs = [("data_out", w), ("written_out", 1)]
    ins = [("write_in", 1), ("data_in", w)]
    candidates = [
        # true exactly when the register really is write-once
        "disable iff (!rst_n_in) (written_out && write_in) |=> "
        "$stable(data_out)",
        "disable iff (!rst_n_in) (written_out) |=> written_out",
        "disable iff (!rst_n_in) (!write_in) |=> $stable(written_out)",
    ]
    return src, ins, outs, candidates


def _random_property(rng, ins, outs, candidates):
    if rng.random() < 0.5:
        return rng.choice(candidates)
    def comparison(pool):
        name, w = rng.choice(pool)
        form = rng.randrange(5)
        k = rng.randrange(1 << w)
        if form == 0:
            return f"{name} != {w}'d{k}"
        if form == 1:
            return f"{name} == {w}'d{k}"
        if form == 2:
            return f"{name} <= {w}'d{k}"
        if form == 3:
            return f"$stable({name})"
        return f"{name} == $past({name})"

    consequent = comparison(outs)
    roll = rng.random()
    if roll < 0.34:
        return f"disable iff (!rst_n_in) {consequent}"
    name, w = rng.choice(ins)
    trigger = f"{name} == {w}'d{rng.randrange(1 << w)}"
    arrow = "|=>" if rng.random() < 0.5 else "|->"
    return f"disable iff (!rst_n_in) ({trigger}) {arrow} ({consequent})"


def test_criterion_2_oracle_equivalence():
    rng = random.Random(20260823)
    generators = (_gen_counter, _gen_regfile, _gen_lock, _gen_once)
    t0 = time.monotonic()
    checked = 0
    violated = 0
    while checked < 220:
        src, ins, outs, candidates = rng.choice(generators)(rng)
        prop_text = _random_property(rng, ins, outs, candidates)
        ts, _ = compile_ts(src, "duv")
        prop, diags = parse_property(prop_text, ts)
        assert prop is not None, (prop_text, [d.message for d in diags])
        obl = compile_obligation(prop, ts)

        oracle = explicit_state_oracle(obl)
        verdict = k_induction(obl, max_k=64)
        if oracle.violated:
            assert isinstance(verdict, Falsified), (prop_text, verdict)
            assert verdict.depth == oracle.min_depth, \
                (prop_text, verdict.depth, oracle.min_depth)
            violated += 1
        else:
            assert isinstance(verdict, Proven), (prop_text, verdict)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    # the sample must exercise both outcomes heavily
    assert 30 < violated < checked - 30
    print(f"criterion 2: PASS — {checked} designs, {violated} falsified / "
          f"{checked - violated} proven, 0 disagreements, {elapsed:.1f}s")


# =====================================================================
# criterion 3: catalog soundness, 60/60
# =====================================================================

def test_criterion_3_catalog_soundness():
    t0 = time.monotonic()
    adjudicated = 0
    for spec in list_problems():
        prop_text = instantiate_property_text(spec)
        for fname, expected in ((spec.correct_file, "proven"),
                                (spec.vulnerable_file, "falsified")):
            t1 = time.monotonic()
            verdict = check_design(design_text(fname), spec.module_name,
                                   prop_text)
            per = time.monotonic() - t1
            assert verdict.status == expected, (fname, verdict)
            assert per < 60.0, fname
            adjudicated += 1
    assert adjudicated == 60
    print(f"criterion 3: PASS — 60/60 reference adjudications correct in "
          f"{time.monotonic() - t0:.1f}s")


# =====================================================================
# criterion 4: SAT core vs exhaustive enumeration + external check
# =====================================================================

import functools


@functools.lru_cache(maxsize=4)
def _truth_patterns(n_vars):
    """patt[v] bit i = value of variable v+1 in assignment number i."""
    patt = []
    for v in range(n_vars):
        # block 0^(2^v) 1^(2^v), then double the word until full width
        col = ((1 << (1 << v)) - 1) << (1 << v)
        width = 1 << (v + 1)
        while width < (1 << n_vars):
            col |= col << width
            width <<= 1
        patt.append(col)
    return patt


def _exhaustive_cnf_sat(clauses, n_vars):
    """All 2^n assignments at once: each variable is a 2^n-bit column."""
    total = 1 << n_vars
    ones = (1 << total) - 1
    patt = _truth_patterns(n_vars)
    formula = ones
    for clause in clauses:
        acc = 0
        for lit in clause:
            col = patt[abs(lit) - 1]
            acc |= col if lit > 0 else (~col & ones)
        formula &= acc
        if formula == 0:
            return False
    return formula != 0


def test_criterion_4_sat_core():
    from svsec.engine.aig import Aig
    from svsec.engine.cnf import parse_dimacs, to_cnf
    from svsec.engine.sat import SAT, UNSAT, solve

    rng = random.Random(4)

    # 500 random 3-CNF instances at 20 variables vs exhaustive enumeration
    cnf_samples = []
    for _ in range(500):
        n = 20
        m = rng.randint(30, 100)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in vs))
        status, model = solve(clauses, n)
        expect = _exhaustive_cnf_sat(clauses, n)
        assert status == (SAT if expect else UNSAT)
        if status == SAT:
            assert all(any((lit > 0) == bool(model[abs(lit) - 1])
                           for lit in c) for c in clauses)
        cnf_samples.append((clauses, n, status))

    # 500 random 10-node circuits vs brute force over their inputs
    for _ in range(500):
        aig = Aig()
        n_in = rng.randint(2, 6)
        lits = [aig.new_input() for _ in range(n_in)]
        for _ in range(10):
            a = rng.choice(lits) ^ rng.randint(0, 1)
            b = rng.choice(lits) ^ rng.randint(0, 1)
            lits.append(aig.land(a, b))
        root = rng.choice(lits) ^ rng.randint(0, 1)
        f = to_cnf(aig, [root])
        status, _ = solve(f.clauses, f.num_vars)
        expect = any(aig.evaluate(dict(zip(lits[:n_in], vals)), [root])[0]
                     for vals in product((0, 1), repeat=n_in))
        assert status == (SAT if expect else UNSAT)

    # DIMACS export -> independent solver, 50-instance sample
    from sympy import symbols
    from sympy.logic.boolalg import And, Or, Not
    from sympy.logic.inference import satisfiable

    for clauses, n, status in rng.sample(cnf_samples, 50):
        from svsec.engine.cnf import CnfFormula

        text = CnfFormula(num_vars=n, clauses=list(clauses)).to_dimacs()
        back = parse_dimacs(text)
        syms = symbols(f"x1:{back.num_vars + 1}")
        f = And(*[Or(*[syms[abs(l) - 1] if l > 0 else Not(syms[abs(l) - 1])
                       for l in c]) for c in back.clauses])
        assert (satisfiable(f) is not False) == (status == SAT)

    print("criterion 4: PASS — 500 CNF + 500 circuit instances match "
          "enumeration, 50 DIMACS round-trips match the external solver")


# =====================================================================
# criteria 5/7/9 share one measured stub corpus
# =====================================================================

def run_pipeline(tmp_path, seed):
    specs = list_problems()
    stub = StubProvider(seed=seed, n=20)
    gens = generate_batch(specs, None, 20, tmp_path / "cache", stub=stub,
                          workers=4)
    rows = label_batch(gens, specs, seed=seed)
    return gens, rows


@pytest.fixture(scope="module")
def stub_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    gens, rows = run_pipeline(tmp, seed=0)
    return tmp, gens, rows


def test_criterion_5_desk_scale_pipeline(stub_corpus):
    t0 = time.monotonic()
    _, gens, rows = stub_corpus
    assert len(rows) == 2400  # 30 problems x 4 providers x n=20

    counts = verdict_counts(rows)
    # planted mix per (provider, problem): 6 correct, 10 vulnerable,
    # 3 broken, 1 refusal out of 20
    assert counts["proven"] == 120 * 6 == 720
    assert counts["falsified"] == 120 * 10 == 1200
    assert counts["compile_error"] == 120 * 4 == 480
    assert counts.get("unknown", 0) == 0

    table = passatk_by_difficulty(rows, check_scope(rows))
    for excl, incl in table.values():
        assert incl == pytest.approx(6 / 20, abs=0)      # 0.300
        assert excl == pytest.approx(6 / 16, abs=0)      # 0.375

    # share of designs prone to a CWE (vulnerable + broken)
    prone = (1200 + 360) / 2400
    assert abs(prone - 0.60) <= 0.10
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    print(f"criterion 5: PASS — 2400 rows, Pass@k 0.300/0.375 exactly, "
          f"prone share {prone:.2f}, checks in {elapsed:.1f}s")


def test_criterion_6_metric_fixture():
    assert round(pass_at_k(2835, 10, 500), 3) == 0.567
    assert round(pass_at_k(2935, 10, 500), 3) == 0.587
    print("criterion 6: PASS — pass_at_k(2835,10,500)=0.567 and "
          "pass_at_k(2935,10,500)=0.587")


def test_criterion_7_heatmap_dominance(stub_corpus, tmp_path):
    _, _, rows = stub_corpus

    def assert_dominates(rws):
        write_heatmap_json(rws, tmp_path / "heatmap.json", check_scope(rws))
        doc = json.loads((tmp_path / "heatmap.json").read_text())
        incl = doc["include_noncompilable"]
        excl = doc["exclude_noncompilable"]
        for ri, re in zip(incl, excl):
            for ci, ce in zip(ri, re):
                assert ci <= ce + 1e-12

    assert any(r.verdict == "compile_error" for r in rows)
    assert_dominates(rows)

    from test_metrics import full_grid

    rng = random.Random(77)
    verdicts = ("proven", "falsified", "unknown", "compile_error")
    corpora = 0
    while corpora < 50:
        rws = full_grid([f"p{i}" for i in range(rng.randint(1, 3))],
                        rng.randint(1, 4),
                        lambda p, c, d, i: rng.choice(verdicts))
        if not any(r.verdict == "compile_error" for r in rws):
            continue
        assert_dominates(rws)
        corpora += 1
    print("criterion 7: PASS — include-non-compilable cells never exceed "
          "exclude cells on the stub corpus and 50 random corpora")


def test_criterion_8_keyword_metric():
    (spec,) = list_problems(cwe=1209, difficulty="basic")
    listing = design_text(spec.correct_file)
    hist, skipped = keyword_frequency([listing])
    assert skipped == 0
    assert hist["logic"] == 7
    assert hist["input"] == 5
    assert hist["begin"] == 7
    assert hist["always_ff"] == 1

    noisy = ("// logic input begin always_ff module\n"
             "/* begin begin\n   end end */\n"
             + listing.replace("\n", "\n\n   \n").replace("  ", "\t "))
    noisy_hist, _ = keyword_frequency([noisy])
    assert noisy_hist == hist
    print("criterion 8: PASS — hand counts logic=7 input=5 begin=7 "
          "always_ff=1 match and survive comment/whitespace injection")


ARTIFACTS = ("dataset.csv", "heatmap.json", "keywords.csv")


def write_pipeline_artifacts(out) -> None:
    """Run the seed-0 stub pipeline and write its artifacts into `out`."""
    out = Path(out)
    out.mkdir()
    gens, rows = run_pipeline(out, seed=0)
    export_csv(rows, out / "dataset.csv")
    write_heatmap_json(rows, out / "heatmap.json", check_scope(rows), seed=0)
    hist, _ = keyword_frequency([g.source for g in gens if g.source])
    write_keywords_csv(hist, out / "keywords.csv")


def test_criterion_9_determinism(tmp_path):
    write_pipeline_artifacts(tmp_path / "one")
    # The second run is another process under another hash seed, so
    # set iteration order cannot agree by accident.
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = [str(Path(svsec.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys, test_acceptance; "
            "test_acceptance.write_pipeline_artifacts(sys.argv[1])")
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "two")],
                   env=env, check=True, timeout=600)
    for name in ARTIFACTS:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name
    print("criterion 9: PASS — same-seed pipeline runs in two processes "
          f"(PYTHONHASHSEED={hash_seed} in the second) produced "
          "byte-identical dataset.csv, heatmap.json, keywords.csv")
