"""Tokenizer for the SystemVerilog subset.

Total: any input yields a token stream plus zero or more diagnostics,
never an exception.  Comments and whitespace produce no tokens.  Based
literals (8'b0101, 'h1, '0) are single tokens.

One compiled master regex of named groups scans the source, one match
per token or skipped run; line and column come from the offset of the
last newline.  The classes follow `str.isalpha`/`isalnum`/`isdigit`:
`\\w` is exactly `isalnum` or `_`, but `\\d` is narrower than
`isdigit` (it misses e.g. '²'), so the regex only starts words and
numbers at ASCII characters and a non-ASCII letter or digit takes the
`other` branch, which applies the `str` predicates directly.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import partial
from typing import NamedTuple

from svsec.frontend.diagnostics import Diagnostic, Severity

# Closed keyword table.  Deliberately wider than what the parser accepts:
# the keyword-frequency metric must classify e.g. `typedef` as a keyword
# even though the parser reports it as unsupported.
KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout",
    "logic", "reg", "wire", "bit", "byte", "integer", "int",
    "signed", "unsigned", "packed",
    "parameter", "localparam", "genvar", "generate", "endgenerate",
    "assign", "always", "always_ff", "always_comb", "always_latch",
    "begin", "end", "if", "else",
    "case", "casez", "casex", "endcase", "default",
    "posedge", "negedge", "edge",
    "function", "endfunction", "task", "endtask", "initial", "final",
    "for", "while", "repeat", "forever", "return", "break", "continue",
    "typedef", "enum", "struct", "union",
    "unique", "priority",
    "property", "endproperty", "sequence", "endsequence",
    "assert", "assume", "cover", "disable", "iff",
    "class", "endclass", "interface", "endinterface",
    "program", "endprogram", "package", "endpackage",
    "import", "export", "virtual", "extends",
    "wait", "fork", "join", "automatic", "static", "const", "var",
    "timeunit", "timeprecision", "string", "real", "time",
    "supply0", "supply1", "tri", "tri0", "tri1", "wand", "wor",
    "defparam", "specify", "endspecify",
})


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    SIZED_LIT = "sized-literal"
    UNSIZED_LIT = "unsized-literal"
    OP = "operator"
    PUNCT = "punctuation"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r}, {self.line}:{self.col})"


# Longest-match-first operator table.
_OPERATORS = (
    "|->", "|=>", ">>>", "<<<",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "<", ">", "=", "?", ":",
)

# A base after the ' of a literal: 'b, 'sh, ...
_BASE = r"'[sS]?[bodhBODH]"

# Tried in order at each offset; the first group that matches wins.
# Each match also takes the blanks after it, so blanks cost no match of
# their own except at the very start.  No group holds an inner capture,
# so `lastgroup` names the group that matched.
_GROUPS = (
    ("word", r"[A-Za-z_][\w$]*"),
    ("punct", r"[()\[\]{};,.@#]"),
    ("newline", r"\n[ \t\r\n]*"),
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*(?s:.*?)\*/"),
    ("open_comment", r"/\*"),
    ("op", "|".join(map(re.escape, _OPERATORS))),
    # A number that `_number` would lex as these digits and their base,
    # or as these digits alone; any other number takes `number`.
    ("sized", rf"[0-9][0-9_]*{_BASE}\w+"),
    ("unsized", r"[0-9][0-9_]*(?![\w'])"),
    ("number", r"[0-9][0-9_]*"),
    # Unbased forms ('0, 'x) only without a size prefix or a sign.
    ("based", rf"{_BASE}\w+|'[01xXzZ]"),
    ("based_no_digits", rf"{_BASE}(?!\w)"),
    ("tick", r"'"),
    ("string", r'"[^"\n]*"'),
    ("open_string", r'"[^"\n]*'),
    ("system_name", r"\$\w+"),
    ("dollar", r"\$"),
    ("space", r"[ \t\r]+"),
    ("other", r"(?s:.)"),
)
_MASTER = re.compile("(?:" + "|".join(f"(?P<{name}>{pattern})"
                                      for name, pattern in _GROUPS)
                     + r")[ \t\r]*")

# What may follow the digits of a number: a base makes it one sized
# literal, and a base without digits is an error.
_SIZE = re.compile(rf"{_BASE}(\w*)")
_WORD_TAIL = re.compile(r"[\w$]*")

# A Token from its (kind, text, line, col) tuple: the namedtuple's own
# constructor takes its fields one by one, which costs a Python call.
_token = partial(tuple.__new__, Token)

# Groups whose whole text is one token of a fixed kind.
_KIND_OF_GROUP = {
    "punct": TokenKind.PUNCT,
    "op": TokenKind.OP,
    "sized": TokenKind.SIZED_LIT,
    "unsized": TokenKind.UNSIZED_LIT,
    "based": TokenKind.UNSIZED_LIT,
    "string": TokenKind.UNSIZED_LIT,
    "system_name": TokenKind.IDENT,
}


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    append = tokens.append
    diags: list[Diagnostic] = []
    match = _MASTER.match
    kind_of_group = _KIND_OF_GROUP
    keyword, ident = TokenKind.KEYWORD, TokenKind.IDENT
    n = len(source)
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`

    while pos < n:
        m = match(source, pos)
        group = m.lastgroup
        col = pos - line_start + 1
        if group == "word":
            text = m[group]
            append(_token((keyword if text in KEYWORDS else ident, text,
                           line, col)))
        elif group in kind_of_group:
            append(_token((kind_of_group[group], m[group], line, col)))
        elif group == "newline" or group == "block_comment":
            text = m[group]
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = pos + text.rindex("\n") + 1
        elif group == "number":
            pos = _number(source, pos, m.end(group), line, col, tokens, diags)
            continue
        elif group == "based_no_digits":
            diags.append(Diagnostic(Severity.ERROR, "based literal missing digits",
                                    line, col))
        elif group == "tick":
            diags.append(Diagnostic(Severity.ERROR, "stray ' in input", line, col))
        elif group == "dollar":
            diags.append(Diagnostic(Severity.ERROR, "stray $ in input", line, col))
        elif group == "open_string":
            diags.append(Diagnostic(Severity.ERROR, "unterminated string literal",
                                    line, col))
        elif group == "open_comment":
            diags.append(Diagnostic(Severity.ERROR, "unterminated block comment",
                                    line, col))
            break
        elif group == "other":  # one character no ASCII-only group takes
            c = m.group(group)
            if c.isalpha():  # not a keyword: keywords are ASCII
                end = _WORD_TAIL.match(source, pos + 1).end()
                tokens.append(Token(TokenKind.IDENT, source[pos:end], line, col))
                pos = end
                continue
            if c.isdigit():
                pos = _number(source, pos, pos + 1, line, col, tokens, diags)
                continue
            diags.append(Diagnostic(Severity.ERROR, f"unexpected character {c!r}",
                                    line, col))
        pos = m.end()

    return tokens, diags


def _number(source, start, end, line, col, tokens, diags) -> int:
    """Lex the number whose first digits span source[start:end]; returns
    where it ends.  Digits run on as far as `str.isdigit` (or `_`) does,
    and a following base (8'hFF) makes the number a sized literal.  A
    base without digits (8'h) is reported once and yields no token."""
    n = len(source)
    while end < n and (source[end].isdigit() or source[end] == "_"):
        end += 1
    size = _SIZE.match(source, end)
    if size is not None:
        if size.group(1):
            tokens.append(Token(TokenKind.SIZED_LIT, source[start:size.end()],
                                line, col))
            return size.end()
        diags.append(Diagnostic(Severity.ERROR, "based literal missing digits",
                                line, col))
        return size.end()
    tokens.append(Token(TokenKind.UNSIZED_LIT, source[start:end], line, col))
    return end
