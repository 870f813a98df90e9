from __future__ import annotations

import string

import pytest
from hypothesis import given, strategies as st

import reference_lexer
from svsec.catalog import list_problems
from svsec.catalog.problems import design_text
from svsec.frontend import KEYWORDS, TokenKind, lexer, tokenize
from svsec.gen.extract import extract_code
from svsec.gen.stub import StubProvider


def kinds(src):
    toks, _ = tokenize(src)
    return [(t.kind, t.text) for t in toks]


def test_identifiers_and_keywords():
    assert kinds("module foo") == [(TokenKind.KEYWORD, "module"),
                                   (TokenKind.IDENT, "foo")]
    assert all(kind is TokenKind.KEYWORD
               for kind, _ in kinds(" ".join(sorted(KEYWORDS))))


def test_sized_and_unsized_literals():
    toks, diags = tokenize("4'hA 8'b0101 'h1 '0 12 3'd7")
    assert not diags
    assert [t.text for t in toks] == ["4'hA", "8'b0101", "'h1", "'0", "12",
                                      "3'd7"]


def test_comments_and_whitespace_produce_no_tokens():
    toks, diags = tokenize("// line comment\n/* block\ncomment */  \t\n")
    assert toks == [] and not diags


def test_stray_quote_after_literal_is_an_error():
    # 'h0' — the trailing quote starts a literal with no digits
    toks, diags = tokenize("addr == 'h0' && rw")
    assert diags, "stray quote must produce a diagnostic"


@pytest.mark.parametrize("src, col", [("8'h;", 1), ("'h;", 1),
                                      ("x = 4'sb ;", 5)])
def test_base_without_digits_is_reported_once(src, col):
    toks, diags = tokenize(src)
    assert [(d.message, d.line, d.col) for d in diags] == \
        [("based literal missing digits", 1, col)]
    assert toks[-1].text == ";"


@pytest.mark.parametrize("src", ["'s0", "'s1", "'sx", "'sz", "'S1"])
def test_signed_unbased_forms_are_not_literals(src):
    toks, diags = tokenize(src)
    assert [(d.message, d.col) for d in diags] == [("stray ' in input", 1)]
    assert [t.kind for t in toks] == [TokenKind.IDENT]


KW, ID, OP, PUNCT = (TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.OP,
                     TokenKind.PUNCT)
SIZED, UNSIZED = TokenKind.SIZED_LIT, TokenKind.UNSIZED_LIT

# (group of the first match, source, tokens as (kind, text), diagnostics
# as (message, column)): one source per alternative of the master regex,
# and the sources on the boundaries between them.
GROUP_CASES = [
    ("word", "module", [(KW, "module")], []),
    ("word", "a_b$1", [(ID, "a_b$1")], []),
    ("word", "a_é", [(ID, "a_")], [("unexpected character 'é'", 3)]),
    ("punct", "@", [(PUNCT, "@")], []),
    ("newline", "\n\r\n \t", [], []),
    ("line_comment", "// 'é", [], []),
    ("block_comment", "/* é\n */", [], []),
    ("open_comment", "/* é", [], [("unterminated block comment", 1)]),
    ("op", "|->", [(OP, "|->")], []),
    ("sized", "4'sb0_1", [(SIZED, "4'sb0_1")], []),
    ("no_digits", "8'h;", [(PUNCT, ";")], [("based literal missing digits", 1)]),
    ("no_digits", "'h;", [(PUNCT, ";")], [("based literal missing digits", 1)]),
    ("no_digits", "4'sb ;", [(PUNCT, ";")],
     [("based literal missing digits", 1)]),
    ("unsized", "1_0", [(UNSIZED, "1_0")], []),
    ("unsized", "12abc", [(UNSIZED, "12"), (ID, "abc")], []),
    ("unsized", "8'x", [(UNSIZED, "8"), (UNSIZED, "'x")], []),
    ("based", "'hF", [(UNSIZED, "'hF")], []),
    ("tick", "'s1", [(ID, "s1")], [("stray ' in input", 1)]),
    ("string", '"é"', [(UNSIZED, '"é"')], []),
    ("open_string", '"é\n', [], [("unterminated string literal", 1)]),
    ("system_name", "$past", [(ID, "$past")], []),
    ("dollar", "$ ", [], [("stray $ in input", 1)]),
    ("space", " \tx", [(ID, "x")], []),
    ("other", "`", [], [("unexpected character '`'", 1)]),
    ("other", "é", [], [("unexpected character 'é'", 1)]),
    ("other", "²", [], [("unexpected character '²'", 1)]),
]


@pytest.mark.parametrize("group, src, want_tokens, want_diags", GROUP_CASES,
                         ids=[repr(case[1]) for case in GROUP_CASES])
def test_each_group_has_one_outcome(group, src, want_tokens, want_diags):
    assert lexer._MASTER.match(src).lastgroup == group
    toks, diags = tokenize(src)
    assert [(t.kind, t.text) for t in toks] == want_tokens
    assert [(d.message, d.line, d.col) for d in diags] == \
        [(message, 1, col) for message, col in want_diags]


def test_every_group_has_a_case():
    assert {group for group, *_ in GROUP_CASES} == \
        {name for name, _ in lexer._GROUPS}


def test_operators_longest_match():
    assert [text for _, text in kinds("a |-> b |=> c <= d == e")] \
        == ["a", "|->", "b", "|=>", "c", "<=", "d", "==", "e"]


def test_line_and_column_tracking():
    toks, _ = tokenize("a\n  bb\n")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


@given(st.text(max_size=200))
def test_tokenize_is_total(src):
    # Any input yields a token stream plus diagnostics, never a crash.
    toks, diags = tokenize(src)
    assert isinstance(toks, list) and isinstance(diags, list)


@given(st.lists(st.sampled_from(sorted(KEYWORDS) + ["x", "y12", "_z"]),
                max_size=30))
def test_word_stream_round_trips(words):
    toks, diags = tokenize(" ".join(words))
    assert not diags
    assert [t.text for t in toks] == words


# ------------------------------------------- agreement with the reference

def assert_matches_reference(src):
    toks, diags = tokenize(src)
    ref_toks, ref_diags = reference_lexer.tokenize(src)
    assert [(t.kind, t.text, t.line, t.col) for t in toks] \
        == [(t.kind, t.text, t.line, t.col) for t in ref_toks]
    assert diags == ref_diags


def test_catalog_designs_match_reference():
    designs = [design_text(getattr(spec, which)) for spec in list_problems()
               for which in ("correct_file", "vulnerable_file")]
    assert len(designs) == 60
    for src in designs:
        assert_matches_reference(src)


def test_stub_broken_truncations_match_reference():
    stub = StubProvider(seed=0, n=20)
    for spec in list_problems():
        i = next(i for i in range(stub.n)
                 if stub.kind_of("stub-a", spec, i) == "broken")
        src = extract_code(stub.complete("stub-a", spec, i))
        assert not src.rstrip().endswith("endmodule")
        assert_matches_reference(src)


@pytest.mark.parametrize("src", [
    "/* open", "/*/", "a /* x\n y */ b", '"open\nnext', '"a" "b', "$", "$x1",
    "'", "'s", "'sx", "'sh", "'h0'", "8'", "8'h", "8'hx'", "8'0", "1_0'sb1",
    "8'sd 3", "a$b", "\x0b", "`x", "é1", "²'b1", "1²'b1", "3٣2", "½x",
    "x½", "Ⅷ", "a\r\n\tb", "\n\n  c",
])
def test_edge_cases_match_reference(src):
    assert_matches_reference(src)


@given(st.text(max_size=200))
def test_unicode_text_matches_reference(src):
    assert_matches_reference(src)


@given(st.text(alphabet=string.printable, max_size=200))
def test_printable_text_matches_reference(src):
    assert_matches_reference(src)


# Pieces that sit on the lexer's boundaries: bases and ticks, comment and
# string delimiters, and non-ASCII letters and digits, which are kept
# inside comments and strings and are unexpected characters anywhere else.
_FRAGMENTS = ["'", "'s", "'b", "'h", "8", "1_", "0", "x", "z", "s", "b",
              "_", "$", "/", "*", "//", "/*", "*/", '"', "\n", " ", "\t",
              "|->", "<=", "=", ";", "é", "²", "½", "٣", "Ⅷ", "\x0b"]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
def test_boundary_fragments_match_reference(src):
    assert_matches_reference(src)
