from __future__ import annotations

from enum import Enum

from svsec.node import Node


class Severity(Enum):
    ERROR = "error"
    # Construct is outside the supported language subset (not a syntax error).
    UNSUPPORTED = "unsupported"


class Diagnostic(Node):
    """Every diagnostic rejects the design: it is labelled compile_error."""
    severity: Severity
    message: str
    line: int = 0
    col: int = 0
    _uncompared = ()  # unlike an AST node's, its line tells two apart

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
