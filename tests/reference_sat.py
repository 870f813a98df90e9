"""The CDCL solver that `svsec.engine.sat.Solver` replaced, kept verbatim
as the reference the faster one must match step for step: after every
call, the same status, counters, model, clauses (literal order
included), watch-list order, trail, phases and activities.  Its heap
sifts are methods of their own, its watch moves pop one clause each, and
its conflict analysis slices each reason; the search is the same.
"""

from __future__ import annotations

SAT = 1
UNSAT = 0
UNKNOWN = -1

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
        self.heap: list[int] = []           # vars, best first
        self.heap_pos: list[int] = []       # var -> slot in heap, or -1
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
        # so it goes last in the heap without moving anything
        self.heap_pos += range(len(self.heap), len(self.heap) + k)
        self.heap += range(old, n)

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
                for k in range(2, len(c)):
                    q = c[k]
                    if lval[q] != 0:
                        c[1] = q
                        c[k] = false_lit
                        watches[q ^ 1].append(c)
                        n -= 1
                        ws[i] = ws[n]
                        ws.pop()
                        break
                else:
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
            if confl is not None:
                break
        self.propagations += qhead - start
        self.qhead = len(trail)
        return confl

    # ---- decision order ------------------------------------------------

    def _heap_up(self, i: int) -> None:
        """Move the variable in heap slot i up to its place."""
        heap = self.heap
        pos = self.heap_pos
        act = self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            up = (i - 1) >> 1
            u = heap[up]
            b = act[u]
            if a < b or (a == b and v > u):
                break
            heap[i] = u
            pos[u] = i
            i = up
        heap[i] = v
        pos[v] = i

    def _heap_pop(self) -> int:
        """Remove and return the variable of highest activity."""
        heap = self.heap
        pos = self.heap_pos
        act = self.activity
        top = heap[0]
        pos[top] = -1
        v = heap.pop()
        n = len(heap)
        if n == 0:
            return top
        a = act[v]
        i = 0
        while True:
            c = 2 * i + 1
            if c >= n:
                break
            u = heap[c]
            b = act[u]
            if c + 1 < n:
                w = heap[c + 1]
                bw = act[w]
                if bw > b or (bw == b and w < u):
                    c += 1
                    u = w
                    b = bw
            if a > b or (a == b and v < u):
                break
            heap[i] = u
            pos[u] = i
            i = c
        heap[i] = v
        pos[v] = i
        return top

    def _bump(self, variables: list[int]) -> None:
        """Add var_inc to each variable's activity, in order."""
        act = self.activity
        pos = self.heap_pos
        for v in variables:
            a = act[v] + self.var_inc
            act[v] = a
            if a > 1e100:
                for u in range(len(act)):
                    act[u] *= 1e-100
                self.var_inc *= 1e-100
                # rounding may tie two activities; re-sort so that
                # ties break on the index
                self.heap.sort(key=lambda u: (-act[u], u))
                for slot, u in enumerate(self.heap):
                    pos[u] = slot
            if pos[v] > 0:
                self._heap_up(pos[v])

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
            for q in (confl if p == -1 else confl[1:]):
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
            seen[p >> 1] = False
            if counter == 0:
                break
            confl = reason[p >> 1]
        learned[0] = p ^ 1
        self._bump(marked)

        # clause minimization: drop literals implied by the rest
        keep = [learned[0]]
        for q in learned[1:]:
            r = reason[q >> 1]
            if r is None:
                keep.append(q)
                continue
            implied = q ^ 1
            for x in r:
                if x != implied and not seen[x >> 1] and level[x >> 1] > 0:
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
            pos = self.heap_pos
            start = self.trail_lim[target_level]
            for ix in range(len(trail) - 1, start - 1, -1):
                p = trail[ix]
                var = p >> 1
                phase[var] = lval[p & ~1]
                lval[p] = lval[p ^ 1] = _UNASSIGNED
                if pos[var] < 0:
                    pos[var] = len(heap)
                    heap.append(var)
                    self._heap_up(pos[var])
            del trail[start:]
            del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # ---- search --------------------------------------------------------

    def _decide(self) -> int:
        lval = self.lval
        while self.heap:
            var = self._heap_pop()
            if lval[2 * var] == _UNASSIGNED:
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
        n_assumps = len(packed_assumps)
        trail = self.trail
        trail_lim = self.trail_lim
        lval = self.lval
        restart_count = 0
        limit = _luby(restart_count) * 100
        base_conflicts = self.conflicts
        stop = None if budget is None else self.work() + budget
        while True:
            if stop is not None and self.work() > stop:
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
            p = self._decide()
            if p == -1:
                self.model = [1 if x == 1 else 0 for x in lval[0::2]]
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
