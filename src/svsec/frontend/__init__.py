from svsec.frontend.diagnostics import Diagnostic, Severity
from svsec.frontend.lexer import Token, TokenKind, tokenize, KEYWORDS
from svsec.frontend.parser import parse, parse_source

__all__ = [
    "Diagnostic",
    "Severity",
    "Token",
    "TokenKind",
    "tokenize",
    "KEYWORDS",
    "parse",
    "parse_source",
]
