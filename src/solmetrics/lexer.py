"""Tokenizer for Solidity source text.

Produces a flat token stream with 1-based, inclusive (line, col) spans.
Comments are kept in the stream (one token per comment, block comments
spanning as many lines as they cover) so that downstream line accounting
can attribute comment lines. A ``pragma`` directive is swallowed as a
single token up to its terminating semicolon.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .errors import LexError

KEYWORD = "keyword"
IDENTIFIER = "identifier"
PUNCTUATION = "punctuation"
LITERAL = "literal"
LINE_COMMENT = "line-comment"
BLOCK_COMMENT = "block-comment"
PRAGMA_DIRECTIVE = "pragma-directive"

COMMENT_KINDS = frozenset({LINE_COMMENT, BLOCK_COMMENT})

KEYWORDS = frozenset(
    """
    abstract address anonymous as assembly bool break byte bytes calldata
    catch constant constructor continue contract delete do else emit enum
    event external fallback for function if immutable import indexed
    interface internal is library mapping memory modifier new override
    payable private public pure receive return returns storage string
    struct try type unchecked using var view virtual while
    """.split()
)

# Sized elementary types (uint256, bytes32, fixed128x18, ...) are keywords too.
_SIZED_TYPE_RE = re.compile(r"^(?:u?int(?:\d+)?|bytes(?:\d+)?|u?fixed(?:\d+x\d+)?)$")

ELEMENTARY_TYPE_WORDS = frozenset({"address", "bool", "string", "bytes", "byte", "var"})


def is_elementary_type(text: str) -> bool:
    return text in ELEMENTARY_TYPE_WORDS or bool(_SIZED_TYPE_RE.match(text))

_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")

_OPERATORS = [
    "<<=", ">>=",
    "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
    "|=", "&=", "^=", "<<", ">>", "**", "++", "--", "=>", "->", ":=",
    "+", "-", "*", "/", "%", "!", "<", ">", "=", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "{", "}", "[", "]",
]

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\f\v\r\n﻿]+)
    | (?P<line_comment>//[^\r\n]*)
    | (?P<block_comment>/\*)
    | (?P<string>"(?:[^"\\\r\n]|\\.)*"|'(?:[^'\\\r\n]|\\.)*')
    | (?P<bad_string>["'])
    | (?P<number>0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.[\d_]+)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<punct>%s)
    """ % "|".join(re.escape(op) for op in _OPERATORS),
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token. ``span`` is (start_line, start_col, end_line, end_col)."""

    kind: str
    text: str
    span: tuple[int, int, int, int]

    @property
    def start_line(self) -> int:
        return self.span[0]

    @property
    def end_line(self) -> int:
        return self.span[2]

    @property
    def is_comment(self) -> bool:
        return self.kind in COMMENT_KINDS


def line_start_offsets(source: str) -> list[int]:
    """Absolute offset of the first character of each line."""
    starts = [0]
    for m in _LINE_BREAK_RE.finditer(source):
        starts.append(m.end())
    return starts


def slice_span(source: str, span: tuple[int, int, int, int]) -> str:
    """Source text covered by a token span (inclusive on both ends)."""
    starts = line_start_offsets(source)
    sl, sc, el, ec = span
    return source[starts[sl - 1] + sc - 1 : starts[el - 1] + ec]


class _Locator:
    def __init__(self, source: str):
        self._starts = line_start_offsets(source)

    def linecol(self, offset: int) -> tuple[int, int]:
        idx = bisect_right(self._starts, offset) - 1
        return idx + 1, offset - self._starts[idx] + 1

    def span(self, start: int, end: int) -> tuple[int, int, int, int]:
        # end is exclusive; spans are inclusive on both ends
        sl, sc = self.linecol(start)
        el, ec = self.linecol(end - 1)
        return (sl, sc, el, ec)


def _classify_word(text: str) -> str:
    if text in ("true", "false"):
        return LITERAL
    if text in KEYWORDS or _SIZED_TYPE_RE.match(text):
        return KEYWORD
    return IDENTIFIER


def _pragma_end(source: str, start: int) -> int:
    """Extent of a pragma directive: up to and including ';', stopping
    short of a line break or a comment opener."""
    i = start
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == ";":
            return i + 1
        if ch in "\r\n":
            return i
        if ch == "/" and i + 1 < n and source[i + 1] in "/*":
            return i
        i += 1
    return n


def tokenize(source: str) -> list[Token]:
    """Tokenize Solidity source into a comment-preserving token stream.

    Raises :class:`LexError` (carrying the line number) on an unterminated
    block comment or string literal. Characters outside the recognized
    vocabulary become single-character punctuation tokens so that odd
    inputs degrade instead of failing.
    """
    loc = _Locator(source)
    tokens: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            end = pos + 1
            tokens.append(Token(PUNCTUATION, source[pos:end], loc.span(pos, end)))
            pos = end
            continue
        kind = m.lastgroup
        if kind == "ws":
            pos = m.end()
            continue
        if kind == "line_comment":
            tokens.append(Token(LINE_COMMENT, m.group(), loc.span(pos, m.end())))
            pos = m.end()
            continue
        if kind == "block_comment":
            close = source.find("*/", pos + 2)
            if close < 0:
                raise LexError("unterminated block comment", loc.linecol(pos)[0])
            end = close + 2
            tokens.append(Token(BLOCK_COMMENT, source[pos:end], loc.span(pos, end)))
            pos = end
            continue
        if kind == "bad_string":
            raise LexError("unterminated string literal", loc.linecol(pos)[0])
        if kind == "string" or kind == "number":
            tokens.append(Token(LITERAL, m.group(), loc.span(pos, m.end())))
            pos = m.end()
            continue
        if kind == "ident":
            text = m.group()
            if text == "pragma":
                end = _pragma_end(source, pos)
                tokens.append(Token(PRAGMA_DIRECTIVE, source[pos:end], loc.span(pos, end)))
                pos = end
                continue
            tokens.append(Token(_classify_word(text), text, loc.span(pos, m.end())))
            pos = m.end()
            continue
        tokens.append(Token(PUNCTUATION, m.group(), loc.span(pos, m.end())))
        pos = m.end()
    return tokens
