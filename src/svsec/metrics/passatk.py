"""Pass@k: functionally correct designs over (CWE count x regenerations).

`pass_at_k` is the formula, and every table cell holds both of its
variants as (excluding, including).  Including non-compilable designs,
a cell is `pass_at_k(proven, groups, n)`; excluding them, they leave
both numerator and denominator.  The including variant can never
exceed the excluding one.  `unknown` verdicts always count against the
rate but are never silently dropped — they are reported alongside.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter

from svsec.catalog.problems import CWE_IDS, DIFFICULTIES, list_problems
from svsec.metrics.rows import design_id


class ScopeError(ValueError):
    pass


def pass_at_k(num_correct: int, num_cwes: int, n: int) -> float:
    return num_correct / (num_cwes * n)


def check_scope(rows) -> int:
    """Verify every row is unique by (provider, cwe, difficulty, regen),
    lies inside the catalog and is named `<provider>:<problem id>:<regen>`
    by its design_id, and every (provider, cwe, difficulty) cell holds
    the same regen count; returns n.  Raises ScopeError naming the
    repeated row, the foreign cell, the misnamed row or the missing
    cells."""
    problem_ids = {(s.cwe_id, s.difficulty): s.problem_id
                   for s in list_problems()}
    cells = defaultdict(set)
    for r in rows:
        problem_id = problem_ids.get((r.cwe_id, r.difficulty))
        if problem_id is None:
            raise ScopeError(f"row {r.key()} lies outside the catalog's "
                             f"CWEs x difficulties")
        name = design_id(r.provider, problem_id, r.regen_index)
        if r.design_id != name:
            raise ScopeError(f"row {r.key()} has design_id "
                             f"{r.design_id!r}, not {name!r}")
        have = cells[(r.provider, r.cwe_id, r.difficulty)]
        if r.regen_index in have:
            raise ScopeError(f"duplicate row {r.key()}")
        have.add(r.regen_index)
    if not cells:
        raise ScopeError("empty row set")
    n = max(len(v) for v in cells.values())
    providers = sorted({p for p, _, _ in cells})
    missing = []
    for p in providers:
        for cwe in CWE_IDS:
            for diff in DIFFICULTIES:
                have = cells.get((p, cwe, diff), set())
                if len(have) != n:
                    missing.append((p, cwe, diff, n - len(have)))
    if missing:
        raise ScopeError(f"incomplete scope, missing cells: {missing[:10]}"
                         + ("..." if len(missing) > 10 else ""))
    return n


def _table(rows, key, groups: int, n: int) -> dict:
    """key(row) -> (excluding, including) over the `groups` x n designs
    of each cell, in key order."""
    counts = defaultdict(lambda: [0, 0])  # proven, compile_error
    for r in rows:
        tally = counts[key(r)]
        if r.verdict == "proven":
            tally[0] += 1
        elif r.verdict == "compile_error":
            tally[1] += 1
    table = {}
    for cell, (proven, compile_errors) in sorted(counts.items()):
        compiled = groups * n - compile_errors
        table[cell] = (proven / compiled if compiled else 0.0,
                       pass_at_k(proven, groups, n))
    return table


def passatk_by_difficulty(rows, n: int) -> dict:
    """(provider, difficulty) -> (excluding, including) over the 10 CWEs
    x n cell.  `n` is what `check_scope(rows)` returned."""
    return _table(rows, attrgetter("provider", "difficulty"),
                  len(CWE_IDS), n)


def passatk_by_cwe(rows, n: int) -> dict:
    """(provider, cwe) -> (excluding, including) over the 3 difficulties
    x n cell; `n` as for `passatk_by_difficulty`."""
    return _table(rows, attrgetter("provider", "cwe_id"),
                  len(DIFFICULTIES), n)


def verdict_counts(rows) -> dict:
    out = defaultdict(int)
    for r in rows:
        out[r.verdict] += 1
    return dict(out)
