"""Pass@k: functionally correct designs over (CWE count x regenerations).

Two variants per cell: excluding non-compilable designs (they leave
both numerator and denominator) and including them (they stay in the
denominator).  The including variant can never exceed the excluding
one.  `unknown` verdicts always count against the rate but are never
silently dropped — they are reported alongside.
"""

from __future__ import annotations

from collections import defaultdict

from svsec.catalog.problems import CWE_IDS, DIFFICULTIES


class ScopeError(ValueError):
    pass


def pass_at_k(num_correct: int, num_cwes: int, n: int) -> float:
    return num_correct / (num_cwes * n)


def check_scope(rows) -> int:
    """Verify every (provider, cwe, difficulty) cell holds the same
    regen count; returns n.  Raises ScopeError naming missing cells."""
    cells = defaultdict(set)
    for r in rows:
        cells[(r.provider, r.cwe_id, r.difficulty)].add(r.regen_index)
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


def _rate(group, n_cells: int, include_noncompilable: bool) -> float:
    proven = sum(1 for r in group if r.verdict == "proven")
    if include_noncompilable:
        denom = n_cells
    else:
        denom = n_cells - sum(1 for r in group
                              if r.verdict == "compile_error")
    return proven / denom if denom else 0.0


def passatk_by_difficulty(rows, include_noncompilable: bool = False,
                          n: int | None = None) -> dict:
    """(provider, difficulty) -> rate over the 10 CWEs x n cell.  `n` is
    what `check_scope(rows)` returned; when None, the scope is checked
    here."""
    if n is None:
        n = check_scope(rows)
    groups = defaultdict(list)
    for r in rows:
        groups[(r.provider, r.difficulty)].append(r)
    return {key: _rate(g, len(CWE_IDS) * n, include_noncompilable)
            for key, g in sorted(groups.items())}


def passatk_by_cwe(rows, include_noncompilable: bool = False,
                   n: int | None = None) -> dict:
    """(provider, cwe) -> rate over the 3 difficulties x n cell; `n` as
    for `passatk_by_difficulty`."""
    if n is None:
        n = check_scope(rows)
    groups = defaultdict(list)
    for r in rows:
        groups[(r.provider, r.cwe_id)].append(r)
    return {key: _rate(g, len(DIFFICULTIES) * n, include_noncompilable)
            for key, g in sorted(groups.items())}


def verdict_counts(rows) -> dict:
    out = defaultdict(int)
    for r in rows:
        out[r.verdict] += 1
    return dict(out)
