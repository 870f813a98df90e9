"""SAT core selection: compiled extension when available, else pure Python.

Set SVSEC_SAT_CORE=python or SVSEC_SAT_CORE=compiled to force a core.
"""

from __future__ import annotations

import os

from svsec.engine.sat import pycore
from svsec.engine.sat.pycore import SAT, UNSAT, UNKNOWN

_choice = os.environ.get("SVSEC_SAT_CORE", "auto")

if _choice == "python":
    _core = pycore
    COMPILED = False
else:
    try:
        from svsec.engine.sat import _satcore as _core  # type: ignore
        COMPILED = True
    except ImportError:
        if _choice == "compiled":
            raise
        _core = pycore
        COMPILED = False

Solver = _core.Solver
solve_formula = _core.solve_formula

# Cumulative solver effort (propagations + decisions + conflicts).  Both
# cores take identical search paths, so this is a machine-independent,
# reproducible stand-in for wall-clock time.
_work_units = 0


def solve(clauses, num_vars: int, conflict_budget: int | None = None,
          solver=None, assumptions=()):
    """Add `clauses` to `solver` (a fresh one if None) and solve under
    `assumptions`; returns (status, model or None).

    A given solver keeps the clauses, and what it learned, for later
    calls.  `conflict_budget` bounds the conflicts of this call.
    """
    global _work_units
    s = Solver() if solver is None else solver
    before = s.propagations + s.decisions + s.conflicts
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    status = s.solve(assumptions, conflict_budget=conflict_budget)
    _work_units += s.propagations + s.decisions + s.conflicts - before
    return status, (list(s.model) if status == SAT else None)


def work_units() -> int:
    return _work_units


__all__ = ["Solver", "solve", "solve_formula", "SAT", "UNSAT", "UNKNOWN",
           "COMPILED", "work_units"]
