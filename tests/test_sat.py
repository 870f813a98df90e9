from __future__ import annotations

import copy
import random
from collections import Counter
from itertools import product

import reference_sat
from svsec.engine import sat
from svsec.engine.cnf import CnfFormula
from svsec.engine.sat import SAT, UNKNOWN, UNSAT, solve, work_units


def random_cnf(rng, n_vars, n_clauses, k=3):
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), min(k, n_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def brute_force(clauses, n_vars):
    for bits in product((0, 1), repeat=n_vars):
        if all(any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in c)
               for c in clauses):
            return SAT
    return UNSAT


def model_satisfies(clauses, model):
    return all(any((lit > 0) == bool(model[abs(lit) - 1]) for lit in c)
               for c in clauses)


def test_against_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        clauses = random_cnf(rng, n, rng.randint(1, 4 * n))
        status, model = solve(clauses, n)
        assert status == brute_force(clauses, n)
        if status == SAT:
            assert model_satisfies(clauses, model)


def test_trivial_cases():
    assert solve([], 0)[0] == SAT
    assert solve([(1,), (-1,)], 1)[0] == UNSAT
    status, model = solve([(1,)], 1)
    assert status == SAT and model[0] == 1


def test_assumptions():
    s = sat.Solver()
    s.ensure_vars(2)
    s.add_clauses([(1, 2)])
    assert s.solve(assumptions=(-1,)) == SAT
    assert s.model[1] == 1      # DIMACS var 2
    s.add_clauses([(-2,)])
    assert s.solve(assumptions=(-1,)) == UNSAT
    assert s.solve(assumptions=(1,)) == SAT
    # solver is incremental: no permanent damage from failed assumptions
    assert s.solve() == SAT


def test_incremental_solving_matches_fresh_solves():
    # clauses arrive in batches between solves under varying assumptions,
    # as the incremental BMC and induction step use the solver
    rng = random.Random(29)
    outcomes = set()
    for _ in range(80):
        n = rng.randint(3, 10)
        s = sat.Solver()
        s.ensure_vars(n)
        clauses = []
        for _ in range(6):
            batch = random_cnf(rng, n, rng.randint(1, n))
            for c in batch:
                s.add_clauses([c])
            clauses += batch
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, n + 1),
                                               rng.randint(0, 3))]
            status = s.solve(assumptions=assumptions)
            units = [(a,) for a in assumptions]
            assert status == solve(clauses + units, n)[0]
            if status == SAT:
                assert model_satisfies(clauses + units, s.model)
            outcomes.add((status, bool(assumptions)))
    assert outcomes == {(SAT, False), (SAT, True), (UNSAT, False),
                        (UNSAT, True)}


def test_work_budget_gives_unknown():
    # pigeonhole: 7 pigeons in 6 holes, hard for CDCL, trivially UNSAT
    holes, pigeons = 6, 7
    v = lambda p, h: p * holes + h + 1
    clauses = [tuple(v(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-v(p1, h), -v(p2, h)))
    num_vars = pigeons * holes
    status, _ = solve(clauses, num_vars, budget=10)
    assert status == UNKNOWN
    status, _ = solve(clauses, num_vars)
    assert status == UNSAT
    for budget in (0, 1, 10, 100, 1000, 5000):
        s = sat.Solver()
        for c in clauses:
            s.add_clauses([c])
        before = s.work()
        assert s.solve(budget=budget) == UNKNOWN
        # checked once per step: one propagation pass, then one
        # decision or conflict, may run past the budget
        assert s.work() - before <= budget + num_vars + 1
        # an exhausted call leaves the solver usable
        assert s.solve() == UNSAT


def test_work_units_are_monotonic_and_deterministic():
    rng = random.Random(5)
    clauses = random_cnf(rng, 30, 120)
    before = work_units()
    r1 = solve(clauses, 30)
    mid = work_units()
    r2 = solve(clauses, 30)
    after = work_units()
    assert mid > before and after > mid
    assert r1 == r2
    # identical problems cost identical work
    assert after - mid == mid - before


def test_work_units_charge_each_call_of_a_reused_solver():
    # BMC and the induction step reuse one solver across calls; labeling's
    # runtime_ms and the benchmark's work units sum per-call deltas, so
    # each call must be charged only its own effort
    rng = random.Random(31)
    n = 20
    s = sat.Solver()
    total = 0
    statuses = []
    for _ in range(10):
        batch = random_cnf(rng, n, rng.randint(4, 12))
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1), 3)]
        before = work_units()
        status, _ = solve(batch, n, solver=s, assumptions=assumptions)
        total += work_units() - before
        statuses.append(status)
    assert SAT in statuses and UNSAT in statuses
    assert total == s.propagations + s.decisions + s.conflicts
    assert total > 0


def test_sympy_cross_check():
    # independent oracle: sympy's satisfiable() on the same formulas
    from sympy import symbols
    from sympy.logic.boolalg import And, Not, Or
    from sympy.logic.inference import satisfiable

    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 8)
        clauses = random_cnf(rng, n, rng.randint(2, 4 * n))
        status, _ = solve(clauses, n)
        syms = symbols(f"x1:{n + 1}")
        f = And(*[Or(*[syms[abs(l) - 1] if l > 0 else Not(syms[abs(l) - 1])
                       for l in c]) for c in clauses])
        assert (satisfiable(f) is not False) == (status == SAT)


def _messy_batch(rng, n, size):
    """Clauses with duplicate literals, tautologies and units mixed in."""
    batch = []
    for _ in range(size):
        kind = rng.random()
        lits = [v if rng.random() < 0.5 else -v
                for v in (rng.randint(1, n) for _ in range(rng.randint(1, 4)))]
        if kind < 0.15:
            lits = lits[:1]                       # unit
        elif kind < 0.3:
            lits.append(lits[0])                  # duplicate literal
        elif kind < 0.4:
            lits.append(-lits[0])                 # tautology
        batch.append(tuple(lits))
    return batch


def test_bulk_clause_adds_match_single_adds():
    # the units of one batch propagate to the root before later clauses
    # of the same batch are simplified, and later batches meet literals
    # already true or false at the root
    rng = random.Random(43)
    statuses = set()
    for _ in range(120):
        n = rng.randint(2, 9)
        bulk, single = sat.Solver(), sat.Solver()
        clauses = []
        for _ in range(5):
            batch = _messy_batch(rng, n, rng.randint(1, 2 * n))
            ok = bulk.add_clauses(batch)
            assert ok == all([single.add_clauses([c]) for c in batch])
            clauses += batch
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, n + 1),
                                               rng.randint(0, 2))]
            status = bulk.solve(assumptions=assumptions)
            assert single.solve(assumptions=assumptions) == status
            units = [(a,) for a in assumptions]
            assert status == brute_force(clauses + units, n)
            if status == SAT:
                assert bulk.model == single.model
                assert model_satisfies(clauses + units, bulk.model)
            assert bulk.work() == single.work()
            assert bulk.clauses == single.clauses
            statuses.add(status)
    assert statuses == {SAT, UNSAT}


def test_decisions_follow_activity_after_a_rescale():
    # a bump past 1e100 scales every activity down by 1e-100; the
    # decision order must still be by activity
    s = sat.Solver()
    s.ensure_vars(3)
    s._bump([0, 1, 1])          # activities 1, 2, 0
    s.add_clauses([(3,)])       # var 2 is assigned at the root
    s.var_inc = 1e100
    s._bump([2, 2])             # 2e100 > 1e100: rescale
    assert s.activity[1] > s.activity[0]
    assert s._decide() >> 1 == 1


def test_a_rescale_that_ties_two_activities_breaks_the_tie_on_the_index():
    # two adjacent doubles can round to one value when scaled by 1e-100
    low, high = 1.5000000000000007, 1.5000000000000009
    assert low < high and low * 1e-100 == high * 1e-100
    s = sat.Solver()
    s.ensure_vars(5)
    s.var_inc = low
    s._bump([0])
    s.var_inc = high
    s._bump([1])                # var 1 ranks above var 0
    s.add_clauses([(4,)])       # var 3 is assigned at the root
    s.var_inc = 1e100
    s._bump([3, 3])             # rescale: var 0 and var 1 tie
    assert s.activity[0] == s.activity[1]
    assert s._decide() >> 1 == 0


def test_a_full_trail_answers_sat_without_popping_the_heap(monkeypatch):
    # one assumption propagates to every variable, so the answer needs
    # no decision, and the heap is left as it was
    pops = []
    real_heappop = sat.heappop

    def heappop(heap):
        pops.append(heap[0])
        return real_heappop(heap)

    def no_decision(self):
        raise AssertionError("_decide called on a full trail")

    monkeypatch.setattr(sat, "heappop", heappop)
    monkeypatch.setattr(sat.Solver, "_decide", no_decision)
    n = 12
    chain = [(-v, v + 1) for v in range(1, n)] + [(-1, -v) for v in
                                                  range(n + 1, n + 4)]
    new, ref = sat.Solver(), reference_sat.Solver()
    for s in (new, ref):
        s.ensure_vars(n + 3)
        s.add_clauses(chain)
    heap = list(new.heap)
    assert new.solve(assumptions=(1,)) == ref.solve(assumptions=(1,)) == SAT
    assert new.model == ref.model == [1] * n + [0] * 3
    assert new.decisions == ref.decisions == 0
    assert not pops and new.heap == heap
    # `solve` hands back the solver's own model list
    status, model = solve([], 0, solver=new, assumptions=(1,))
    assert status == SAT and model is new.model


def _check_the_heap(s):
    """The heap holds at most 2 * nvars + 64 entries; a queued variable
    has exactly one entry keyed on its current activity, and any other
    variable none; and every unassigned variable is queued."""
    nvars = len(s.level)
    assert len(s.heap) <= 2 * nvars + 64
    current = Counter(e for e in s.heap if e[0] == -s.activity[e[1]])
    for v in range(nvars):
        assert current[-s.activity[v], v] == s.queued[v]
        assert s.queued[v] or s.lval[2 * v] != sat._UNASSIGNED


def test_order_heap_grows_with_the_problem_not_the_search(monkeypatch):
    # a heap that pushed on every bump and backtrack, with nothing to
    # bound it, grew with the search; a full trail that answers SAT
    # leaves its assigned variables queued
    from conftest import pipeline_design
    from svsec.catalog import list_problems
    from svsec.catalog.problems import design_text, instantiate_property_text
    from svsec.check import check_design

    solvers = []
    solves = 0

    class Checked(sat.Solver):
        def __init__(self):
            super().__init__()
            solvers.append(self)

        def solve(self, *args, **kwargs):
            nonlocal solves
            status = super().solve(*args, **kwargs)
            _check_the_heap(self)
            solves += 1
            return status

    monkeypatch.setattr(sat, "Solver", Checked)
    (spec,) = list_problems(cwe=1261, difficulty="advanced")
    verdict = check_design(design_text(spec.correct_file), spec.module_name,
                           instantiate_property_text(spec))
    assert verdict.status == "proven" and verdict.k_used == 1
    step = max(solvers, key=lambda s: s.conflicts)
    assert step.conflicts > 500

    for spec in list_problems():
        for fname in (spec.correct_file, spec.vulnerable_file):
            verdict = check_design(design_text(fname), spec.module_name,
                                   instantiate_property_text(spec))
            assert verdict.status in ("proven", "falsified")
    # the deep family: a proof that needs k = d and a leaky twin
    for d in (8, 10, 12, 14):
        verdict = check_design(pipeline_design(d, 4, 1), "pipe", "!q_out[1]")
        assert verdict.status == "proven" and verdict.k_used == d
        verdict = check_design(pipeline_design(d, 4, 2), "pipe", "!q_out[1]")
        assert verdict.status == "falsified" and verdict.depth == d
    assert solves > 250


def test_decide_returns_the_unassigned_variable_of_highest_activity(
        monkeypatch):
    # random bumps (a rescale past 1e100 among them), new variables,
    # root units, decisions and backtracks; after each step a decision
    # is the unassigned variable of highest activity, the lowest index
    # winning a tie, as a scan finds it
    rebuilds = Counter()
    rebuild = sat.Solver._rebuild_heap

    def counted(self):
        rebuilds[len(self.heap) > 2 * len(self.level) + 64] += 1
        rebuild(self)

    monkeypatch.setattr(sat.Solver, "_rebuild_heap", counted)
    rng = random.Random(7)
    for _ in range(30):
        s = sat.Solver()
        s.ensure_vars(rng.randint(1, 10))
        for _ in range(200):
            n = len(s.level)
            step = rng.random()
            if step < 0.5:
                s._bump(rng.choices(range(n), k=rng.randint(1, 8)))
                s.var_inc /= 0.95
            elif step < 0.55:
                s.var_inc = rng.choice((1e98, 1e100))
                s._bump([rng.randrange(n)])
            elif step < 0.7:
                p = s._decide()
                if p != -1:
                    s.trail_lim.append(len(s.trail))
                    s._enqueue(p, None)
            elif step < 0.85:
                s._backtrack(rng.randint(0, len(s.trail_lim)))
            elif not s.trail_lim:
                free = [v for v in range(n)
                        if s.lval[2 * v] == sat._UNASSIGNED]
                if free and rng.random() < 0.5:
                    v = rng.choice(free) + 1
                    assert s.add_clauses([(rng.choice((v, -v)),)])
                else:
                    s.ensure_vars(n + rng.randint(1, 2))
            _check_the_heap(s)
            free = [v for v in range(len(s.level))
                    if s.lval[2 * v] == sat._UNASSIGNED]
            best = min(free, key=lambda v: (-s.activity[v], v), default=-1)
            p = copy.deepcopy(s)._decide()
            assert (-1 if p == -1 else p >> 1) == best
    # the heap was rebuilt on growth and on a rescale
    assert rebuilds[True] > 20 and rebuilds[False] > 20


def test_a_backtrack_that_grows_the_heap_past_its_bound_rebuilds_it():
    # nine decisions leave one variable queued, whose bumps fill the
    # heap to its bound with stale entries; the backtrack queues the
    # nine again
    s = sat.Solver()
    s.ensure_vars(10)
    for _ in range(9):
        s.trail_lim.append(len(s.trail))
        s._enqueue(s._decide(), None)
    for _ in range(2 * 10 + 64 - 1):
        s._bump([9])
    assert len(s.heap) == 2 * 10 + 64
    s._backtrack(0)
    _check_the_heap(s)
    assert len(s.heap) == 10


# ------------------------------------------- agreement with the reference

def _solver_state(s):
    """Everything a search step can change, with clauses named by their
    index in the clause database so that watch lists and reasons compare
    by identity and order."""
    index = {id(c): i for i, c in enumerate(s.clauses)}
    return {
        "ok": s.ok, "counters": (s.propagations, s.decisions, s.conflicts),
        "model": s.model, "clauses": s.clauses,
        "watches": [[index[id(c)] for c in ws] for ws in s.watches],
        "trail": (s.trail, s.trail_lim, s.qhead), "lval": s.lval,
        "level": s.level, "phase": s.phase,
        "activity": (s.activity, s.var_inc),
        "reason": [None if r is None else index[id(r)] for r in s.reason],
    }


def _growing_batch(rng, n):
    """Random 3-clauses, with one duplicate literal, one tautology and,
    sometimes, a unit in the middle."""
    batch = random_cnf(rng, n, rng.randint(n // 2, 3 * n // 5))
    batch[0] += batch[0][:1]
    batch[-1] += (-batch[-1][0],)
    if rng.random() < 0.4:
        batch.insert(len(batch) // 2, batch[1][:1])
    return batch


def test_solver_matches_the_reference_step_for_step():
    # incremental CNFs that pass the 3-SAT threshold over eight
    # batches, solved under assumptions and budgets that sometimes run
    # out; one round in four forces a rescale of every activity
    rng = random.Random(53)
    statuses = set()
    rescales = restarts = 0
    for round_ in range(24):
        new, ref = sat.Solver(), reference_sat.Solver()
        n = rng.randint(60, 160)
        for s in (new, ref):
            s.ensure_vars(n // 2)
        for call in range(8):
            batch = _growing_batch(rng, n)
            assert new.add_clauses(batch) == ref.add_clauses(batch)
            assert _solver_state(new) == _solver_state(ref)
            if round_ % 4 == 0 and call == 2:
                # the next bump passes 1e100
                new.var_inc = ref.var_inc = 2e100
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, n + 1),
                                               rng.randint(0, 4))]
            budget = rng.choice([None, rng.randint(0, 2000)])
            inc, conflicts = new.var_inc, new.conflicts
            status = new.solve(assumptions, budget)
            assert status == ref.solve(assumptions, budget)
            assert _solver_state(new) == _solver_state(ref)
            statuses.add(status)
            rescales += new.var_inc < inc
            restarts += new.conflicts - conflicts >= 100
    assert statuses == {SAT, UNSAT, UNKNOWN}
    assert rescales >= 4 and restarts >= 4
