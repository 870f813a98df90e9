"""Tokenizer for the SystemVerilog subset.

Total: any input yields a token stream plus zero or more diagnostics,
never an exception.  Comments and whitespace produce no tokens.  Based
literals (8'b0101, 'h1, '0) are single tokens.

One compiled master regex of named groups scans the source, one match
per token, error or skipped run; line and column come from the offset
of the last newline.  Outside comments and strings the source is the
ASCII character set of IEEE 1800-2017 Annex A.9.3: identifiers are
`[a-zA-Z_][a-zA-Z0-9_$]*` and numbers take `0-9` only (5.6, 5.7), so
the master regex is ASCII and any other character there, a non-ASCII
letter or digit among them, is an unexpected character.
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
    # An unclosed comment takes the rest of the input.
    ("open_comment", r"/\*(?s:.*)"),
    ("op", "|".join(map(re.escape, _OPERATORS))),
    ("sized", rf"[0-9][0-9_]*{_BASE}\w+"),
    ("no_digits", rf"(?:[0-9][0-9_]*)?{_BASE}(?!\w)"),
    ("unsized", r"[0-9][0-9_]*"),
    # Unbased forms ('0, 'x) only without a size prefix or a sign.
    ("based", rf"{_BASE}\w+|'[01xXzZ]"),
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
                     + r")[ \t\r]*", re.ASCII)

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

# Groups that yield no token but one error at their first character.
_ERROR_OF_GROUP = {
    "no_digits": "based literal missing digits",
    "tick": "stray ' in input",
    "dollar": "stray $ in input",
    "open_string": "unterminated string literal",
    "open_comment": "unterminated block comment",
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
        elif group in _ERROR_OF_GROUP:
            diags.append(Diagnostic(Severity.ERROR, _ERROR_OF_GROUP[group],
                                    line, col))
        elif group == "other":
            diags.append(Diagnostic(Severity.ERROR,
                                    f"unexpected character {m[group]!r}",
                                    line, col))
        pos = m.end()

    return tokens, diags
