"""Tokenizer for Solidity source text.

Produces a flat token stream with 1-based, inclusive (line, col) spans.
Comments are kept in the stream (one token per comment, block comments
spanning as many lines as they cover) so that downstream line accounting
can attribute comment lines. A ``pragma`` directive is swallowed as a
single token up to its terminating semicolon.
"""

from __future__ import annotations

import re
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

_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")

# Any character no alternative below claims is a one-character punctuation
# token, so only the longer operators are listed (longest first).
_MULTI_CHAR_OPERATORS = [
    "<<=", ">>=",
    "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
    "|=", "&=", "^=", "<<", ">>", "**", "++", "--", "=>", "->", ":=",
]

# One alternative per token shape, tried in order at each position. Only
# ``newline``, ``block_comment`` and ``string`` (a backslash escapes a raw
# ``\r``) can hold a line break. Horizontal whitespace matches nothing, so
# ``finditer`` steps over it without handing back a match.
_TOKEN_RE = re.compile(
    r"""
      (?P<newline>[\r\n][ \t\f\v\r\n\ufeff]*)
    | (?P<pragma>pragma(?![A-Za-z0-9_$])(?:[^;\r\n/]|/(?![/*]))*;?)
    | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<line_comment>//[^\r\n]*)
    | (?P<block_comment>/\*[\s\S]*?\*/)
    | (?P<open_comment>/\*)
    | (?P<string>"(?:[^"\\\r\n]|\\.)*"|'(?:[^'\\\r\n]|\\.)*')
    | (?P<open_string>["'])
    | (?P<number>0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.[\d_]+)?(?:[eE][+-]?\d+)?)
    | (?P<punct>%s|[^ \t\f\v\ufeff])
    """ % "|".join(re.escape(op) for op in _MULTI_CHAR_OPERATORS),
    re.VERBOSE,
)

_GROUP_KINDS = {
    "pragma": PRAGMA_DIRECTIVE,
    "line_comment": LINE_COMMENT,
    "block_comment": BLOCK_COMMENT,
    "string": LITERAL,
    "number": LITERAL,
}

_LEX_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
}

# Kinds of the fixed words; ``tokenize`` extends a copy with the words of
# one source.
_WORD_KINDS = dict.fromkeys(KEYWORDS, KEYWORD)
_WORD_KINDS.update(true=LITERAL, false=LITERAL)


@dataclass(slots=True)
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


def _line_breaks(text: str) -> tuple[int, int]:
    """Number of line breaks in ``text`` and the offset just past the last."""
    count = last = 0
    for m in _LINE_BREAK_RE.finditer(text):
        count += 1
        last = m.end()
    return count, last


def tokenize(source: str) -> list[Token]:
    """Tokenize Solidity source into a comment-preserving token stream.

    Raises :class:`LexError` (carrying the line number) on an unterminated
    block comment or string literal. Characters outside the recognized
    vocabulary become single-character punctuation tokens so that odd
    inputs degrade instead of failing.

    One forward scan: the current line number and the offset of its first
    character move on only at the matches that can hold a line break.
    """
    tokens: list[Token] = []
    append = tokens.append
    words = _WORD_KINDS.copy()
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        text = m.group()
        if group == "word":
            kind = words.get(text)
            if kind is None:
                kind = words[text] = KEYWORD if _SIZED_TYPE_RE.match(text) else IDENTIFIER
        elif group == "punct":
            kind = PUNCTUATION
        elif group == "newline":
            if "\r" in text:
                count, last = _line_breaks(text)
                line += count
                line_start = m.start() + last
            else:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        elif group in _LEX_ERRORS:
            raise LexError(_LEX_ERRORS[group], line)
        else:
            kind = _GROUP_KINDS[group]
            if "\n" in text or "\r" in text:
                start, end = m.span()
                count, last = _line_breaks(text)
                first_line, first_col = line, start - line_start + 1
                line += count
                line_start = start + last
                append(Token(kind, text, (first_line, first_col, line, end - line_start)))
                continue
        start, end = m.span()
        append(Token(kind, text, (line, start - line_start + 1, line, end - line_start)))
    return tokens
