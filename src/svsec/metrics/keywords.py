"""Keyword histogram over generated sources.

Counts language-keyword tokens only — comments, string-free prose, and
identifiers never contribute — over a fixed set of 44 commonly
used SystemVerilog keywords.  Untokenizable files, those with any lexer
diagnostic (a non-ASCII letter or digit outside comments and strings
among them), are skipped and tallied as warnings.

Regenerations often repeat a source verbatim, so each distinct source is
tokenized once and its counts (or its skip) weigh by how many times it
occurs in the input.
"""

from __future__ import annotations

import csv
from collections import Counter

from svsec.frontend.lexer import TokenKind, tokenize

DEFAULT_KEYWORDS = (
    "module", "endmodule", "input", "output", "logic", "reg", "wire",
    "assign", "always", "always_ff", "always_comb", "begin", "end", "if",
    "else", "case", "casez", "endcase", "default", "posedge", "negedge",
    "parameter", "localparam", "genvar", "generate", "endgenerate",
    "function", "endfunction", "task", "endtask", "initial", "for", "while",
    "typedef", "enum", "struct", "packed", "signed", "unsigned", "integer",
    "bit", "byte", "return", "unique",
)

assert len(DEFAULT_KEYWORDS) == 44


def keyword_frequency(sources) -> tuple[dict, int]:
    """Returns ({keyword: count} over the full set, skipped-file count)."""
    hist = {kw: 0 for kw in DEFAULT_KEYWORDS}
    skipped = 0
    for source, copies in Counter(sources).items():
        tokens, diags = tokenize(source)
        if diags:
            skipped += copies
            continue
        for tok in tokens:
            if tok.kind is TokenKind.KEYWORD and tok.text in hist:
                hist[tok.text] += copies
    return hist, skipped


def write_keywords_csv(hist: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["keyword", "count"])
        for kw in sorted(hist):
            w.writerow([kw, hist[kw]])
