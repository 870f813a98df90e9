from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    # Construct is outside the supported language subset (not a syntax error).
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Diagnostic:
    """Every diagnostic rejects the design: it is labelled compile_error."""
    severity: Severity
    message: str
    line: int = 0
    col: int = 0

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity.value}: {self.message}"


class DiagnosticError(Exception):
    """A frontend stage stops at `diag`."""

    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


def error(message: str, line: int = 0, col: int = 0,
          severity: Severity = Severity.ERROR) -> DiagnosticError:
    """The exception that stops a stage with this diagnostic."""
    return DiagnosticError(Diagnostic(severity, message, line, col))
