"""The character-at-a-time tokenizer that `svsec.frontend.lexer` replaced,
kept verbatim as the reference the regex scanner must agree with on every
input: the same tokens (kind, text, line, col) and the same diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

from svsec.frontend.diagnostics import Diagnostic, Severity
from svsec.frontend.lexer import KEYWORDS, TokenKind


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r}, {self.line}:{self.col})"


_PUNCT = frozenset("()[]{};,.@#")

# Longest-match-first operator table.
_OPERATORS = (
    "|->", "|=>", ">>>", "<<<",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "<", ">", "=", "?", ":", "$",
)

_BASE_CHARS = "bodhBODH"


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                diags.append(Diagnostic(Severity.ERROR, "unterminated block comment",
                                        start_line, start_col))
                break
            advance(2)
            continue
        if c == '"':
            start_line, start_col = line, col
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                diags.append(Diagnostic(Severity.ERROR, "unterminated string literal",
                                        start_line, start_col))
                advance(j - i)
                continue
            tokens.append(Token(TokenKind.UNSIZED_LIT, source[i:j + 1], start_line, start_col))
            advance(j + 1 - i)
            continue

        if c.isalpha() or c == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            word = source[i:j]
            # A size prefix glued to a based literal: 8'hFF
            if j < n and source[j] == "'" and word.isdigit():
                pass  # handled by the numeric branch below; cannot occur here
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, start_line, start_col))
            advance(j - i)
            continue

        if c.isdigit():
            start_line, start_col = line, col
            j = i
            while j < n and (source[j].isdigit() or source[j] == "_"):
                j += 1
            if j < n and source[j] == "'":
                based = _lex_based(source, i, j, diags, start_line, start_col)
                if based is not None:
                    lit, has_digits = based
                    if has_digits:
                        tokens.append(Token(TokenKind.SIZED_LIT, lit, start_line,
                                            start_col))
                    advance(len(lit))
                    continue
            tokens.append(Token(TokenKind.UNSIZED_LIT, source[i:j], start_line, start_col))
            advance(j - i)
            continue

        if c == "'":
            start_line, start_col = line, col
            based = _lex_based(source, i, i, diags, start_line, start_col)
            if based is not None:
                lit, has_digits = based
                if has_digits:
                    tokens.append(Token(TokenKind.UNSIZED_LIT, lit, start_line,
                                        start_col))
                advance(len(lit))
                continue
            diags.append(Diagnostic(Severity.ERROR, "stray ' in input", start_line, start_col))
            advance(1)
            continue

        if c == "$":
            start_line, start_col = line, col
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            if j > i + 1:
                tokens.append(Token(TokenKind.IDENT, source[i:j], start_line, start_col))
                advance(j - i)
                continue
            diags.append(Diagnostic(Severity.ERROR, "stray $ in input", start_line, start_col))
            advance(1)
            continue

        if c in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, c, line, col))
            advance(1)
            continue

        matched = False
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(TokenKind.OP, op, line, col))
                advance(len(op))
                matched = True
                break
        if matched:
            continue

        diags.append(Diagnostic(Severity.ERROR, f"unexpected character {c!r}", line, col))
        advance(1)

    return tokens, diags


def _lex_based(source: str, start: int, tick: int, diags, line: int, col: int):
    """Lex a based literal starting at `start` with the ' at `tick`.

    Returns (lexeme text, whether it has digits), or None if this is
    not a based literal.  A base without digits (8'h) is reported here,
    once.  Handles 8'b0101, 'hFF, and the unbased forms '0 / '1, which
    take no sign ('s1 is not a literal).
    """
    n = len(source)
    j = tick + 1
    if j >= n:
        return None
    c = source[j]
    if c in "sS":
        j += 1
        if j >= n:
            return None
        c = source[j]
    if c in _BASE_CHARS:
        j += 1
        k = j
        while k < n and (source[k].isalnum() or source[k] == "_"):
            k += 1
        if k == j:
            diags.append(Diagnostic(Severity.ERROR, "based literal missing digits", line, col))
            return source[start:k], False
        return source[start:k], True
    if c in "01xXzZ" and tick == start and j == tick + 1:
        # Unbased unsized literal: '0, '1, 'x, 'z
        return source[start:j + 1], True
    return None
