"""Checker verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field

from svsec.engine.trace import Trace
from svsec.frontend.diagnostics import Diagnostic


@dataclass
class Proven:
    k_used: int
    status = "proven"


@dataclass
class Falsified:
    trace: Trace
    depth: int
    # source line of the assignment that produced the violating value
    culprit_line: int = 0
    culprit_signal: str = ""
    status = "falsified"


@dataclass
class NoCexUpTo:
    depth: int
    status = "no_cex_up_to"


@dataclass
class Unknown:
    max_k: int
    reason: str
    status = "unknown"


@dataclass
class CompileError:
    diagnostics: list[Diagnostic] = field(default_factory=list)
    # True when the diagnostics' lines and columns are in the property
    # text, not in the design source.
    in_property: bool = False
    status = "compile_error"
