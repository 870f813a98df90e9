"""Checker verdicts."""

from __future__ import annotations

from svsec.engine.trace import Trace
from svsec.frontend.diagnostics import Diagnostic


class Proven:
    status = "proven"

    def __init__(self, k_used: int):
        self.k_used = k_used


class Falsified:
    status = "falsified"

    def __init__(self, trace: Trace, depth: int, culprit_line: int = 0,
                 culprit_signal: str = ""):
        self.trace = trace
        self.depth = depth
        # source line of the assignment that produced the violating value
        self.culprit_line = culprit_line
        self.culprit_signal = culprit_signal


class Unknown:
    status = "unknown"

    def __init__(self, max_k: int, reason: str):
        self.max_k = max_k
        self.reason = reason


class CompileError:
    status = "compile_error"

    def __init__(self, diagnostics: list[Diagnostic] | None = None,
                 in_property: bool = False):
        self.diagnostics = [] if diagnostics is None else diagnostics
        # True when the diagnostics' lines and columns are in the
        # property text, not in the design source.
        self.in_property = in_property
