"""Tokenizer for Solidity source text.

Produces a flat token stream with 1-based, inclusive (line, col) spans.
Comments are kept in the stream (one token per comment, block comments
spanning as many lines as they cover) so that downstream line accounting
can attribute comment lines. A ``pragma`` directive is swallowed as a
single token up to its terminating semicolon.

The stream is a :class:`TokenStream`: one scan fills the parser's
comment-free token lists and the per-line code/comment counts, and a
:class:`Token` is built only when a caller reads one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

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

# Four groups, tried in order at each position: a run of line breaks and
# the blanks after them; a token whose kind its first characters tell (a
# pragma directive, a comment, a string or a number); an unterminated
# comment or string, which takes the rest of the source with it so the
# scan ends there; and a word or punctuation, which the parser reads. Only
# the first three can hold a line break (a backslash escapes a raw ``\r``
# inside a string). Horizontal whitespace matches nothing, so the scan
# steps over it without handing back a match.
_TOKEN_RE = re.compile(
    r"""
      (?P<breaks>[\r\n][ \t\f\v\r\n\ufeff]*)
    | (?P<other>
          pragma(?![A-Za-z0-9_$])(?:[^;\r\n/]|/(?![/*]))*;?
        | //[^\r\n]* | /\*[\s\S]*?\*/
        | "(?:[^"\\\r\n]|\\.)*" | '(?:[^'\\\r\n]|\\.)*'
        | 0[xX][0-9a-fA-F_]+ | \d[\d_]*(?:\.[\d_]+)?(?:[eE][+-]?\d+)?
      )
    | (?P<unterminated>(?:/\*|["'])[\s\S]*)
    | (?P<code>[A-Za-z_$][A-Za-z0-9_$]* | %s | [^ \t\f\v\ufeff])
    """ % "|".join(re.escape(op) for op in _MULTI_CHAR_OPERATORS),
    re.VERBOSE,
)

_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")

# Kinds of the fixed code texts; ``tokenize`` extends a copy with the texts
# of one source.
_CODE_KINDS = dict.fromkeys(KEYWORDS, KEYWORD)
_CODE_KINDS.update(true=LITERAL, false=LITERAL)
_CODE_KINDS.update(dict.fromkeys([*_MULTI_CHAR_OPERATORS, *"(){}[];,.=<>+-*/%!&|^~?:"], PUNCTUATION))


def _code_kind(text: str) -> str:
    kind = _CODE_KINDS.get(text)
    if kind is not None:
        return kind
    if text[0] not in _WORD_START:
        return PUNCTUATION
    return KEYWORD if _SIZED_TYPE_RE.match(text) else IDENTIFIER


def _other_kind(text: str) -> str:
    """Kind of an ``other`` match."""
    if text[0] == "/":
        return LINE_COMMENT if text[1] == "/" else BLOCK_COMMENT
    return PRAGMA_DIRECTIVE if text[0] == "p" else LITERAL


def _count_breaks(text: str) -> int:
    """Line breaks in ``text``, a ``\\r\\n`` counting once."""
    n = text.count("\n")
    return n if "\r" not in text else n + text.count("\r") - text.count("\r\n")


def _mark(flags: bytearray, first: int, last: int) -> None:
    """Flag lines ``first`` to ``last``."""
    flags[first : last + 1] = b"\x01" * (last + 1 - first)


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


class TokenStream(Sequence):
    """A file's tokens, comments included, as a read-only sequence of
    :class:`Token`, plus the comment-free lists the parser reads.

    ``kinds``, ``texts``, ``starts`` and ``ends`` hold each code token's
    kind, text, start line and end line in stream order, and end with one
    end-of-stream entry (kind and text ``""``, both lines the last code
    token's end line, 1 if there is none). ``code_upto[n]`` and
    ``comment_upto[n]`` count the lines 1..n touched by a code token and by
    a comment token, so the count over any line span is one subtraction.

    Reading an item builds its :class:`Token` from the source; the parser
    reads none.
    """

    __slots__ = (
        "kinds", "texts", "starts", "ends", "code_upto", "comment_upto",
        "_count", "_source", "_offsets", "_line_starts",
    )

    def __init__(self, kinds, texts, starts, ends, code_flags, comment_flags, count, source: str):
        last = ends[-1] if ends else 1
        kinds.append("")
        texts.append("")
        starts.append(last)
        ends.append(last)
        self.kinds: list[str] = kinds
        self.texts: list[str] = texts
        self.starts: list[int] = starts
        self.ends: list[int] = ends
        self.code_upto = list(accumulate(code_flags))
        self.comment_upto = list(accumulate(comment_flags))
        self._count = count
        self._source = source
        self._offsets: list[int] | None = None
        self._line_starts: list[int] = []

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if self._offsets is None:
            self._offsets = [
                m.start() for m in _TOKEN_RE.finditer(self._source) if m.lastgroup != "breaks"
            ]
            self._line_starts = line_start_offsets(self._source)
        start = self._offsets[index]
        m = _TOKEN_RE.match(self._source, start)
        text = m.group()
        kind = _code_kind(text) if m.lastgroup == "code" else _other_kind(text)
        starts = self._line_starts
        first = bisect_right(starts, start)
        last = bisect_right(starts, m.end() - 1)
        return Token(kind, text, (first, start - starts[first - 1] + 1, last, m.end() - starts[last - 1]))


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


def tokenize(source: str) -> TokenStream:
    """Tokenize Solidity source into a comment-preserving token stream.

    Raises :class:`LexError` (carrying the line number) on an unterminated
    block comment or string literal. Characters outside the recognized
    vocabulary become single-character punctuation tokens so that odd
    inputs degrade instead of failing.

    One forward scan: the current line number moves on only at the matches
    that can hold a line break, and no :class:`Token` is built.
    """
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    multi_line: list[tuple[int, int]] = []  # code index and end line of a token crossing lines
    comments: list[tuple[int, int]] = []  # first and last line of each comment
    code_kinds = _CODE_KINDS.copy()
    kind_of = code_kinds.get
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    line = 1
    for breaks, other, unterminated, code in _TOKEN_RE.findall(source):
        if code:
            kind = kind_of(code)
            if kind is None:
                kind = code_kinds[code] = _code_kind(code)
            add_kind(kind)
            add_text(code)
            add_start(line)
        elif breaks:
            line += breaks.count("\n") if "\r" not in breaks else _count_breaks(breaks)
        elif other:
            first = line
            if "\n" in other or "\r" in other:
                line += _count_breaks(other)
            kind = _other_kind(other)
            if kind in COMMENT_KINDS:
                comments.append((first, line))
                continue
            if line != first:
                multi_line.append((len(texts), line))
            add_kind(kind)
            add_text(other)
            add_start(first)
        else:
            what = "block comment" if unterminated[0] == "/" else "string literal"
            raise LexError(f"unterminated {what}", line)
    ends = starts.copy()
    code_lines = bytearray(line + 1)
    comment_lines = bytearray(line + 1)
    for n in set(starts):
        code_lines[n] = 1
    for i, last in multi_line:
        ends[i] = last
        _mark(code_lines, starts[i], last)
    for first, last in comments:
        _mark(comment_lines, first, last)
    return TokenStream(
        kinds, texts, starts, ends, code_lines, comment_lines, len(texts) + len(comments), source
    )
