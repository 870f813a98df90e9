from __future__ import annotations

import random
from itertools import product

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
    s.add_clause((1, 2))
    assert s.solve(assumptions=(-1,)) == SAT
    assert s.model_value(2) == 1
    s.add_clause((-2,))
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
                s.add_clause(c)
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
            s.add_clause(c)
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
