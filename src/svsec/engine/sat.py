"""Conflict-driven clause learning SAT solver.

Two-literal watching, first-UIP learning, activity-ordered decisions
with phase saving, and Luby restarts.  Fully deterministic: ties in
the decision order break on the lowest variable index.

Literals use DIMACS convention at the API (nonzero ints, negative for
negation) and the packed form 2*v / 2*v+1 internally.

Data layout:

- `lval[p]` is the value of packed literal p: 1 true, 0 false,
  `_UNASSIGNED` otherwise.  Both literals of a variable are written on
  assignment, so every value test is one list read.
- `heap` is a `heapq` min-heap of (-activity, var) entries, and
  `queued[v]` says whether v is in the decision order.  A queued
  variable has exactly one entry whose key is its current activity;
  any other entry is stale, and `_decide` skips it when it pops it.  A
  bump pushes a new entry for a queued variable and leaves the old one
  stale; `_decide` un-queues what it pops, and `_backtrack` queues each
  unassigned variable that is not queued.  So every unassigned
  variable is always queued, and an assigned one may stay queued until
  a pop finds it.  The key is a total order, so what a pop returns
  depends only on which variables are queued and on their activities:
  the same variable that an indexed heap of the queued variables would
  give.  A full trail answers SAT without popping.  The heap is
  rebuilt from the queued variables when it grows past
  `2 * nvars + 64` entries, so its size follows the problem, not the
  search.  It is also rebuilt after a rescale of all activities, which
  keeps their order but can round two of them to a tie.
- A clause is a list of packed literals whose first two are watched.
  `watches[p]` lists the clauses that watch the negation of p, and
  `reason[v]` is the clause that implied v, or None.  Both refer to
  the clause lists themselves.  `_propagate` moves a clause off a
  watch list by putting the list's last unvisited clause in its slot,
  and truncates the list once, after its scan.
- `add_clauses` adds a batch of clauses in one call, with the same
  result as adding them one at a time: a unit clause is propagated
  before the next clause is simplified against the root assignment.

No clause is ever deleted: `clauses` holds every clause of two or more
literals in the order it was added or learned, and every learned
clause is implied by the clauses before it, so a reverse-unit-
propagation log needs no deletion records.

Every caller solves through `solve`, which also keeps the cumulative
solver effort (propagations + decisions + conflicts): a
machine-independent, reproducible stand-in for wall-clock time.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

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
        self.watches: list[list[list[int]]] = []  # packed lit -> clauses
        self.lval: list[int] = []           # packed lit -> 0/1/_UNASSIGNED
        self.level: list[int] = []
        self.reason: list = []              # var -> clause or None
        self.phase: list[int] = []
        self.activity: list[float] = []
        self.heap: list[tuple[float, int]] = []  # (-activity, var)
        self.queued: list[bool] = []        # var -> in the decision order
        self.seen: list[bool] = []          # scratch for _analyze
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
        old = len(self.level)
        if n <= old:
            return
        k = n - old
        self.lval += [_UNASSIGNED] * (2 * k)
        self.watches += [[] for _ in range(2 * k)]
        self.level += [0] * k
        self.reason += [None] * k
        self.phase += [0] * k
        self.activity += [0.0] * k
        self.seen += [False] * k
        # a new variable has the lowest activity and the highest index,
        # so its entry goes last in the heap without moving anything
        self.queued += [True] * k
        self.heap += [(-0.0, v) for v in range(old, n)]

    def add_clauses(self, clauses) -> bool:
        """Add DIMACS clauses between solves (at decision level 0).

        Duplicate literals and literals false at the root are dropped;
        tautologies and clauses true at the root are skipped; a unit is
        assigned and propagated at once.  Returns False once the
        clauses are unsatisfiable.
        """
        assert not self.trail_lim, "clauses are added at decision level 0"
        if not self.ok:
            return False
        lval = self.lval
        watches = self.watches
        nlits = len(lval)
        for clause in clauses:
            lits = []
            for dl in clause:
                p = 2 * dl - 2 if dl > 0 else -2 * dl - 1  # _pack(dl)
                if p >= nlits:
                    self.ensure_vars((p >> 1) + 1)
                    nlits = len(lval)
                val = lval[p]
                if val == _UNASSIGNED:
                    if p ^ 1 in lits:
                        break  # tautology
                    if p not in lits:
                        lits.append(p)
                elif val == 1:
                    break  # satisfied at root
                # else: falsified at root, drop the literal
            else:
                if len(lits) > 1:
                    self.clauses.append(lits)
                    watches[lits[0] ^ 1].append(lits)
                    watches[lits[1] ^ 1].append(lits)
                    continue
                if not lits:
                    self.ok = False
                    return False
                self._enqueue(lits[0], None)
                if self._propagate() is not None:
                    self.ok = False
                    return False
        return True

    # ---- assignment ----------------------------------------------------

    def _enqueue(self, p: int, reason) -> None:
        """Assign the unassigned literal p true."""
        self.lval[p] = 1
        self.lval[p ^ 1] = 0
        var = p >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(p)

    def _propagate(self):
        """Propagate the trail from qhead; returns a conflicting clause,
        or None."""
        trail = self.trail
        start = qhead = self.qhead
        if qhead == len(trail):
            return None
        watches = self.watches
        lval = self.lval
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        confl = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            ws = watches[p]
            i = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                # make sure the falsified literal is in slot 1
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                if lval[first] == 1:
                    i += 1
                    continue
                # look for a new literal to watch; most clauses are
                # ternary, so slot 2 is read without a loop
                if len(c) == 3:
                    k = 2 if lval[c[2]] != 0 else 0
                else:
                    k = 0
                    for j in range(2, len(c)):
                        if lval[c[j]] != 0:
                            k = j
                            break
                if k:
                    q = c[k]
                    c[1] = q
                    c[k] = false_lit
                    watches[q ^ 1].append(c)
                    # swap with the last clause; the list is cut once
                    # the loop is done
                    n -= 1
                    ws[i] = ws[n]
                    continue
                # unit or conflicting
                if lval[first] == 0:
                    confl = c
                    break
                lval[first] = 1
                lval[first ^ 1] = 0
                var = first >> 1
                level[var] = cur_level
                reason[var] = c
                trail.append(first)
                i += 1
            del ws[n:]
            if confl is not None:
                break
        self.propagations += qhead - start
        self.qhead = len(trail)
        return confl

    # ---- decision order ------------------------------------------------

    def _bump(self, variables: list[int]) -> None:
        """Add var_inc to each variable's activity, in order."""
        act = self.activity
        heap = self.heap
        queued = self.queued
        for v in variables:
            a = act[v] + self.var_inc
            act[v] = a
            if a > 1e100:
                for u in range(len(act)):
                    act[u] *= 1e-100
                self.var_inc *= 1e-100
                self._rebuild_heap()
            elif queued[v]:
                heappush(heap, (-a, v))
        if len(heap) > 2 * len(act) + 64:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Make the heap one entry per queued variable, in place: the
        callers hold the list."""
        act = self.activity
        heap = self.heap
        heap[:] = [(-act[v], v) for v, q in enumerate(self.queued) if q]
        heapify(heap)

    # ---- conflict analysis ---------------------------------------------

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = self.seen
        learned = [0]  # slot for the asserting literal
        marked = []    # the variables seen, in order: bumped and cleared
        counter = 0
        p = -1
        index = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            # a resolved variable stays marked, which skips the first
            # literal of its reason: the one it implied.  Minimization
            # reads only the marks of lower levels.
            for q in confl:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    marked.append(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                p = trail[index]
                index -= 1
                if seen[p >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            confl = reason[p >> 1]
        learned[0] = p ^ 1
        self._bump(marked)

        # clause minimization: drop literals implied by the rest.  The
        # literal a reason implied is q's negation, and q is marked.
        keep = [learned[0]]
        for q in learned[1:]:
            r = reason[q >> 1]
            if r is None:
                keep.append(q)
                continue
            for x in r:
                if not seen[x >> 1] and level[x >> 1] > 0:
                    keep.append(q)
                    break
        learned = keep
        for var in marked:
            seen[var] = False

        if len(learned) == 1:
            return learned, 0
        # second-highest decision level in the clause, moved to slot 1
        hi = 1
        back = level[learned[1] >> 1]
        for ix in range(2, len(learned)):
            lv = level[learned[ix] >> 1]
            if lv > back:
                hi = ix
                back = lv
        learned[1], learned[hi] = learned[hi], learned[1]
        return learned, back

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) > target_level:
            trail = self.trail
            lval = self.lval
            phase = self.phase
            heap = self.heap
            queued = self.queued
            act = self.activity
            start = self.trail_lim[target_level]
            for ix in range(len(trail) - 1, start - 1, -1):
                p = trail[ix]
                var = p >> 1
                phase[var] = lval[p & ~1]
                lval[p] = lval[p ^ 1] = _UNASSIGNED
                if not queued[var]:
                    queued[var] = True
                    heappush(heap, (-act[var], var))
            if len(heap) > 2 * len(act) + 64:
                self._rebuild_heap()
            del trail[start:]
            del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # ---- search --------------------------------------------------------

    def _decide(self) -> int:
        """Pop the queued variable of highest activity until one is
        unassigned; returns its literal in the saved phase, or -1 when
        all are assigned."""
        lval = self.lval
        heap = self.heap
        queued = self.queued
        act = self.activity
        while heap:
            key, v = heappop(heap)
            if queued[v] and key == -act[v]:
                queued[v] = False
                if lval[2 * v] == _UNASSIGNED:
                    return 2 * v + (1 if self.phase[v] == 0 else 0)
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
        n_assumps = len(packed_assumps)
        trail = self.trail
        trail_lim = self.trail_lim
        lval = self.lval
        nvars = len(self.level)
        restart_count = 0
        limit = _luby(restart_count) * 100
        base_conflicts = self.conflicts
        stop = None if budget is None else self.work() + budget
        while True:
            if (stop is not None and self.propagations + self.decisions
                    + self.conflicts > stop):
                self._backtrack(0)
                return UNKNOWN
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if len(trail_lim) <= n_assumps:
                    self._backtrack(0)
                    return UNSAT
                learned, back = self._analyze(confl)
                self._backtrack(back)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self.clauses.append(learned)
                    self.watches[learned[0] ^ 1].append(learned)
                    self.watches[learned[1] ^ 1].append(learned)
                    self._enqueue(learned[0], learned)
                self.var_inc /= 0.95
                if self.conflicts - base_conflicts >= limit:
                    restart_count += 1
                    limit = (self.conflicts - base_conflicts
                             + _luby(restart_count) * 100)
                    self._backtrack(0)
                continue
            # extend with assumptions, then decisions
            if len(trail_lim) < n_assumps:
                p = packed_assumps[len(trail_lim)]
                val = lval[p]
                if val == 0:
                    self._backtrack(0)
                    return UNSAT
                trail_lim.append(len(trail))
                if val == _UNASSIGNED:
                    self._enqueue(p, None)
                continue
            # a full trail answers SAT without draining the heap
            p = -1 if len(trail) == nvars else self._decide()
            if p == -1:
                # every variable is assigned: lval[2v] is v's 0/1 value
                self.model = lval[0::2]
                self._backtrack(0)
                return SAT
            self.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue(p, None)


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

    The model is the caller's own list: each SAT answer builds a new
    one, and no later call changes it.  A given solver keeps the
    clauses, and what it learned, for later calls.  `budget` bounds the
    work of this call (see `Solver.solve`).
    """
    global _work_units
    s = Solver() if solver is None else solver
    before = s.work()
    s.ensure_vars(num_vars)
    s.add_clauses(clauses)
    status = s.solve(assumptions, budget=budget)
    _work_units += s.work() - before
    return status, (s.model if status == SAT else None)


def work_units() -> int:
    return _work_units
