from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    # Construct is outside the supported language subset (not a syntax error).
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    message: str
    line: int = 0
    col: int = 0

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity.value}: {self.message}"

    @property
    def is_fatal(self) -> bool:
        return self.severity in (Severity.ERROR, Severity.UNSUPPORTED)
