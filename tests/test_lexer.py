from __future__ import annotations

import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from solmetrics.errors import LexError
from solmetrics.lexer import (
    BLOCK_COMMENT,
    IDENTIFIER,
    KEYWORD,
    LINE_COMMENT,
    LITERAL,
    PRAGMA_DIRECTIVE,
    PUNCTUATION,
    line_start_offsets,
    slice_span,
    tokenize,
)


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


def test_empty_input():
    assert tokenize("") == []


def test_line_comment_then_contract():
    tokens = tokenize("// hi\ncontract A {}")
    assert kinds_and_texts(tokens) == [
        (LINE_COMMENT, "// hi"),
        (KEYWORD, "contract"),
        (IDENTIFIER, "A"),
        (PUNCTUATION, "{"),
        (PUNCTUATION, "}"),
    ]


def test_block_comment_span_and_code_tokens():
    tokens = tokenize("/* a */ uint x;")
    assert tokens[0].kind == BLOCK_COMMENT
    assert tokens[0].span == (1, 1, 1, 7)
    assert [t.kind for t in tokens[1:]] == [KEYWORD, IDENTIFIER, PUNCTUATION]


def test_multiline_block_comment_span():
    tokens = tokenize("/* a\n b\n c */ x")
    assert tokens[0].span == (1, 1, 3, 5)
    assert tokens[1].span == (3, 7, 3, 7)


def test_unterminated_block_comment_carries_line():
    with pytest.raises(LexError) as exc:
        tokenize("uint x;\n/* oops")
    assert exc.value.line == 2


def test_unterminated_string_carries_line():
    with pytest.raises(LexError) as exc:
        tokenize('x = "no end')
    assert exc.value.line == 1


def test_unterminated_comment_ends_the_scan():
    # the first unterminated comment takes the rest of the source with it,
    # so the openers after it are not each scanned to the end of the file
    src = "uint x;\n" + "/* " * 100_000
    start = time.perf_counter()
    with pytest.raises(LexError) as exc:
        tokenize(src)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == "line 2: unterminated block comment"


def test_string_with_escapes():
    tokens = tokenize(r'"a\"b" x')
    assert tokens[0].kind == LITERAL
    assert tokens[0].text == r'"a\"b"'


def test_pragma_is_one_token():
    tokens = tokenize("pragma solidity ^0.8.0;\ncontract A {}")
    assert tokens[0].kind == PRAGMA_DIRECTIVE
    assert tokens[0].text == "pragma solidity ^0.8.0;"
    assert tokens[1].text == "contract"


def test_sized_types_are_keywords():
    tokens = tokenize("uint256 bytes32 ufixed128x18 mapping")
    assert all(t.kind == KEYWORD for t in tokens)


def test_maximal_munch_operators():
    tokens = tokenize("a && b || c >>= 2 ** 3")
    ops = [t.text for t in tokens if t.kind == PUNCTUATION]
    assert ops == ["&&", "||", ">>=", "**"]


def test_numbers_and_hex():
    tokens = tokenize("1_000 0xFF 2.5e3 10 ether")
    literals = [t.text for t in tokens if t.kind == LITERAL]
    assert literals == ["1_000", "0xFF", "2.5e3", "10"]


def test_lone_cr_is_a_line_break():
    tokens = tokenize("a\rb\r\nc")
    assert [(t.text, t.start_line) for t in tokens] == [("a", 1), ("b", 2), ("c", 3)]


def test_spans_non_decreasing():
    src = "contract A { function f() public { x = 1; /* c */ } }\n// end"
    tokens = tokenize(src)
    starts = [(t.span[0], t.span[1]) for t in tokens]
    assert starts == sorted(starts)


def test_span_round_trip_on_fixture():
    src = 'pragma solidity ^0.8.0;\ncontract A {\n  // note\n  uint x = 1; /* two\nlines */\n  string s = "q";\n}'
    for token in tokenize(src):
        assert slice_span(src, token.span) == token.text


def test_comments_retained_one_token_each():
    src = "// one\ncontract A { /* two */ uint x; // three\n}"
    comments = [t for t in tokenize(src) if t.is_comment]
    assert [t.text for t in comments] == ["// one", "/* two */", "// three"]


_word = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
_piece = st.one_of(
    _word,
    st.sampled_from(
        ["{", "}", "(", ")", ";", ",", "+", "&&", "||", "==", "=>", "42", "0xAB", '"str"']
    ),
)


@given(st.lists(_piece, min_size=0, max_size=40))
def test_lexical_round_trip(pieces):
    # joining non-comment token texts with spaces re-tokenizes identically
    src = " ".join(pieces)
    tokens = [t for t in tokenize(src) if not t.is_comment]
    rejoined = " ".join(t.text for t in tokens)
    again = [t for t in tokenize(rejoined) if not t.is_comment]
    assert [(t.kind, t.text) for t in again] == [(t.kind, t.text) for t in tokens]


@given(st.lists(_piece, min_size=1, max_size=30), st.integers(min_value=0, max_value=29))
def test_span_round_trip_generated(pieces, newline_every):
    sep = "\n" if newline_every % 2 else " "
    src = sep.join(pieces)
    for token in tokenize(src):
        assert slice_span(src, token.span) == token.text


# Text from the characters that start, end or break tokens: line breaks of
# every kind, characters only Unicode calls blank or a digit, quotes, comment
# markers and backslashes, plus quoted runs of what a literal may hold (a
# backslash escapes a raw \r there). Pieces are joined by blanks or breaks.
_TRICKY = st.sampled_from(
    ["\r", "\n", "\r\n", "\f", "\v", "\ufeff", '"', "'", "\\", "/*", "*/", "//",
     "pragma", "\u0663", "\u2028", " ", "x", ";", "1"]
)
_IN_QUOTES = st.sampled_from(
    ["x", " ", "\\\r", '\\"', "\\'", "\\\\", "\u2028", "\ufeff", "/*", "//"]
)
_QUOTED = st.builds(
    lambda quote, body: quote + "".join(body) + quote,
    st.sampled_from(['"', "'"]),
    st.lists(_IN_QUOTES, max_size=3),
)
_SEPARATORS = st.sampled_from(["", " ", "\r", "\n", "\r\n", "\f", "\v", "\ufeff", "\u2028"])
_ARBITRARY_TEXT = st.lists(st.tuples(_TRICKY | _QUOTED, _SEPARATORS), max_size=15).map(
    lambda pairs: "".join(piece + sep for piece, sep in pairs)
)
_BLANK_RE = re.compile(r"[ \t\f\v\r\n\ufeff]*")


@settings(deadline=None)
@given(_ARBITRARY_TEXT)
@example('"\\\r"\nx')  # a literal spanning two lines, then a token on the third
def test_spans_round_trip_on_arbitrary_text(src):
    try:
        tokens = tokenize(src)
    except LexError:
        return
    starts = line_start_offsets(src)
    offset = 0
    for token in tokens:
        assert slice_span(src, token.span) == token.text
        sl, sc, _, _ = token.span
        start = starts[sl - 1] + sc - 1
        assert start >= offset
        # nothing but blanks between tokens, so no character is dropped
        assert _BLANK_RE.fullmatch(src, offset, start)
        offset = start + len(token.text)
    assert _BLANK_RE.fullmatch(src, offset)
