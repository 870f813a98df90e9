"""Conflict-driven clause learning SAT solver.

Two-literal watching, first-UIP learning, activity-ordered decisions
with phase saving, and Luby restarts.  Fully deterministic: ties in
the decision order break on the lowest variable index.

Literals use DIMACS convention at the API (nonzero ints, negative for
negation) and the packed form 2*v / 2*v+1 internally.

Every caller solves through `solve`, which also keeps the cumulative
solver effort (propagations + decisions + conflicts): a
machine-independent, reproducible stand-in for wall-clock time.
"""

from __future__ import annotations

import heapq

SAT = 1
UNSAT = 0
UNKNOWN = -1

# There is one core, and it is not compiled; perfbench/worker.py records this.
COMPILED = False

_UNASSIGNED = 2


def _pack(dimacs_lit: int) -> int:
    v = abs(dimacs_lit) - 1
    return 2 * v + (1 if dimacs_lit < 0 else 0)


class Solver:
    def __init__(self):
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = []  # packed lit -> clause indices
        self.assign: list[int] = []         # var -> 0/1/_UNASSIGNED
        self.level: list[int] = []
        self.reason: list[int] = []         # var -> clause index or -1
        self.phase: list[int] = []
        self.activity: list[float] = []
        self.heap: list[tuple[float, int]] = []
        self.trail: list[int] = []          # packed lits in assignment order
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.model: list[int] = []

    # ---- problem construction ------------------------------------------

    def ensure_vars(self, n: int) -> None:
        while len(self.assign) < n:
            self.assign.append(_UNASSIGNED)
            self.level.append(0)
            self.reason.append(-1)
            self.phase.append(0)
            self.activity.append(0.0)
            self.watches.append([])
            self.watches.append([])
            heapq.heappush(self.heap, (0.0, len(self.assign) - 1))

    def add_clause(self, dimacs_lits) -> bool:
        if not self.ok:
            return False
        lits = []
        seen = set()
        for dl in dimacs_lits:
            self.ensure_vars(abs(dl))
            p = _pack(dl)
            if p ^ 1 in seen:
                return True  # tautology
            if p in seen:
                continue
            seen.add(p)
            v = self.assign[p >> 1]
            if v != _UNASSIGNED and self.level[p >> 1] == 0:
                if v == (p & 1) ^ 1:
                    return True  # satisfied at root
                continue  # falsified at root, drop literal
            lits.append(p)
        if not lits:
            self.ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], -1):
                self.ok = False
                return False
            conf = self._propagate()
            if conf != -1:
                self.ok = False
                return False
            return True
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0] ^ 1].append(ci)
        self.watches[lits[1] ^ 1].append(ci)
        return True

    # ---- assignment ----------------------------------------------------

    def _value(self, p: int) -> int:
        v = self.assign[p >> 1]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v ^ (p & 1)

    def _enqueue(self, p: int, reason: int) -> bool:
        val = self._value(p)
        if val != _UNASSIGNED:
            return val == 1
        var = p >> 1
        self.assign[var] = (p & 1) ^ 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(p)
        return True

    def _propagate(self) -> int:
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            ws = self.watches[p]
            i = 0
            while i < len(ws):
                ci = ws[i]
                c = self.clauses[ci]
                # make sure the falsified literal is in slot 1
                if c[0] == p ^ 1:
                    c[0], c[1] = c[1], c[0]
                if self._value(c[0]) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    if self._value(c[k]) != 0:
                        c[1], c[k] = c[k], c[1]
                        self.watches[c[1] ^ 1].append(ci)
                        ws[i] = ws[-1]
                        ws.pop()
                        moved = True
                        break
                if moved:
                    continue
                # unit or conflicting
                if not self._enqueue(c[0], ci):
                    self.qhead = len(self.trail)
                    return ci
                i += 1
        return -1

    # ---- conflict analysis ---------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(len(self.activity)):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        if self.assign[var] == _UNASSIGNED:
            heapq.heappush(self.heap, (-self.activity[var], var))

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learned = [0]  # slot for the asserting literal
        seen = [False] * len(self.assign)
        counter = 0
        p = -1
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            c = self.clauses[confl]
            start = 0 if p == -1 else 1
            for q in c[start:]:
                var = q >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                p = self.trail[index]
                index -= 1
                if seen[p >> 1]:
                    break
            counter -= 1
            seen[p >> 1] = False
            if counter == 0:
                break
            confl = self.reason[p >> 1]
        learned[0] = p ^ 1

        # clause minimization: drop literals implied by the rest
        keep = [learned[0]]
        for q in learned[1:]:
            r = self.reason[q >> 1]
            if r == -1:
                keep.append(q)
                continue
            if any(not seen[x >> 1] and self.level[x >> 1] > 0
                   for x in self.clauses[r] if x != (q ^ 1)):
                keep.append(q)
        learned = keep

        if len(learned) == 1:
            back = 0
        else:
            # second-highest decision level in the clause
            back = max(self.level[q >> 1] for q in learned[1:])
            hi = max(range(1, len(learned)),
                     key=lambda ix: self.level[learned[ix] >> 1])
            learned[1], learned[hi] = learned[hi], learned[1]
        return learned, back

    def _backtrack(self, target_level: int) -> None:
        while len(self.trail_lim) > target_level:
            start = self.trail_lim.pop()
            for p in reversed(self.trail[start:]):
                var = p >> 1
                self.phase[var] = self.assign[var]
                self.assign[var] = _UNASSIGNED
                heapq.heappush(self.heap, (-self.activity[var], var))
            del self.trail[start:]
        self.qhead = len(self.trail)

    # ---- search --------------------------------------------------------

    def _decide(self) -> int:
        while self.heap:
            act, var = heapq.heappop(self.heap)
            if self.assign[var] == _UNASSIGNED and -act == self.activity[var]:
                return 2 * var + (1 if self.phase[var] == 0 else 0)
        for var in range(len(self.assign)):
            if self.assign[var] == _UNASSIGNED:
                return 2 * var + (1 if self.phase[var] == 0 else 0)
        return -1

    def work(self) -> int:
        """Effort spent so far: propagations + decisions + conflicts."""
        return self.propagations + self.decisions + self.conflicts

    def solve(self, assumptions=(), budget: int | None = None) -> int:
        """SAT, UNSAT, or UNKNOWN once this call has spent more than
        `budget` work units.

        The budget is checked once per search step, so a call that runs
        out charges at most `budget` plus one propagation pass plus one
        decision or conflict.
        """
        if not self.ok:
            return UNSAT
        packed_assumps = []
        for dl in assumptions:
            self.ensure_vars(abs(dl))
            packed_assumps.append(_pack(dl))
        restart_count = 0
        limit = _luby(restart_count) * 100
        base_conflicts = self.conflicts
        stop = None if budget is None else self.work() + budget
        while True:
            if stop is not None and self.work() > stop:
                self._backtrack(0)
                return UNKNOWN
            confl = self._propagate()
            if confl != -1:
                self.conflicts += 1
                if len(self.trail_lim) <= len(packed_assumps):
                    self._backtrack(0)
                    return UNSAT
                learned, back = self._analyze(confl)
                self._backtrack(back)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], -1):
                        return UNSAT
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches[learned[0] ^ 1].append(ci)
                    self.watches[learned[1] ^ 1].append(ci)
                    self._enqueue(learned[0], ci)
                self.var_inc /= 0.95
                if self.conflicts - base_conflicts >= limit:
                    restart_count += 1
                    limit = (self.conflicts - base_conflicts
                             + _luby(restart_count) * 100)
                    self._backtrack(0)
                continue
            # extend with assumptions, then decisions
            if len(self.trail_lim) < len(packed_assumps):
                p = packed_assumps[len(self.trail_lim)]
                val = self._value(p)
                if val == 0:
                    self._backtrack(0)
                    return UNSAT
                self.trail_lim.append(len(self.trail))
                if val == _UNASSIGNED:
                    self._enqueue(p, -1)
                continue
            p = self._decide()
            if p == -1:
                self.model = [1 if a == 1 else 0 for a in self.assign]
                self._backtrack(0)
                return SAT
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(p, -1)

    def model_value(self, dimacs_var: int) -> int:
        return self.model[dimacs_var - 1]


def _luby(i: int) -> int:
    i += 1
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


# Cumulative solver effort over every `solve` call.
_work_units = 0


def solve(clauses, num_vars: int, budget: int | None = None,
          solver=None, assumptions=()):
    """Add `clauses` to `solver` (a fresh one if None) and solve under
    `assumptions`; returns (status, model or None).

    A given solver keeps the clauses, and what it learned, for later
    calls.  `budget` bounds the work of this call (see `Solver.solve`).
    """
    global _work_units
    s = Solver() if solver is None else solver
    before = s.work()
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    status = s.solve(assumptions, budget=budget)
    _work_units += s.work() - before
    return status, (list(s.model) if status == SAT else None)


def work_units() -> int:
    return _work_units
