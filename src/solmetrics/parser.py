"""Recursive-descent parser for the supported Solidity subset.

The parser is tolerant by construction: constructs outside the subset are
brace-matched and swallowed as opaque statements, and one rule bounds
every top-level item: it ends at the next pragma, import or contract
header, so a fault inside it never reaches the next one. Each item is
parsed inside that window of tokens. A malformed item (a contract,
file-level body left open, import missing its ';', truncated header,
statements nested deeper than :data:`MAX_NESTING`, a pragma inside a
contract) produces one diagnostic, and parsing resumes at the window's
end. A file-level item outside a contract is skipped through its braced
body or its ';' outside parentheses and brackets, or else to the end of
its window.

The parser reads the comment-free kind, text and line lists of a
:class:`~solmetrics.lexer.TokenStream` by index, so it builds no
:class:`~solmetrics.lexer.Token`; the unit keeps the stream for line
accounting and dedupe.

No statement becomes a node. As the parser descends a function body it
sums that function's decisions, condition operators, statements and
invocations, and tracks its NL/NLE depth: a loop or ``if`` body is one
level deeper, an ``else if`` stays at its parent's depth, and a ``{}``
block or ``unchecked`` wrapper counts as no statement. Each
:class:`~solmetrics.nodes.FunctionDef` carries the finished
:class:`~solmetrics.nodes.FunctionMetrics`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import compress, count

from .errors import ParseError
from .lexer import (
    IDENTIFIER,
    KEYWORD,
    PRAGMA_DIRECTIVE,
    PUNCTUATION,
    TokenStream,
    tokenize,
)
from .nodes import (
    ContractDef,
    Diagnostic,
    FunctionDef,
    FunctionMetrics,
    LineCounts,
    SourceUnit,
)

# Deepest nesting of statements inside one function body. Each level costs
# at most three Python frames, so the limit sits well below the default
# recursion limit wherever the parser is called from, and a contract parses
# or fails the same way in-process and in a forked worker.
MAX_NESTING = 200

# A declaration without a body: McCC 1, and every count 0, NUMPAR included.
_BODYLESS = FunctionMetrics(1, 1, 0, 0, 0, 0, 0)

_GUARD_NAMES = frozenset({"require", "assert", "revert"})
_CONTRACT_KINDS = frozenset({"contract", "interface", "library"})
_TOP_LEVEL_KEYWORDS = _CONTRACT_KINDS | {"abstract", "import"}
_FUNCTION_KINDS = {
    "function": "function",
    "constructor": "constructor",
    "fallback": "fallback",
    "receive": "receive",
    "modifier": "modifier-def",
}
_STORAGE_KEYWORDS = frozenset(
    {
        "memory",
        "storage",
        "calldata",
        "public",
        "private",
        "internal",
        "external",
        "constant",
        "immutable",
        "payable",
        "indexed",
        "override",
        "virtual",
    }
)


class _Cursor:
    """Forward-only view over a stream's comment-free token lists.

    ``i`` indexes ``kinds``, ``texts``, ``starts`` and ``ends``. Index ``n``
    ends the window of the top-level item being parsed: every item ends at
    the next pragma, import or contract header, so a fault inside it never
    reaches the next one. The token at ``n`` is the stream's end-of-stream
    entry (empty text and kind) or that header, whose kind is never
    IDENTIFIER or PUNCTUATION and whose text no ``check`` or ``match``
    looks for, so reading at the cursor needs no bounds check and the
    cursor never passes ``n``. A token run is a pair of indexes ``(lo,
    hi)``, ``hi`` excluded.

    ``depth`` counts the statements being parsed inside one another,
    ``item_line`` is the first line of the top-level item being parsed, and
    ``type_refs`` is the :attr:`ContractDef.type_refs` of the contract being
    parsed. The rest are the running sums of the function body being
    parsed: decisions, condition logical operators, statements and
    invocations, and the current and deepest NL and NLE levels.
    """

    def __init__(self, stream: TokenStream):
        self.kinds = stream.kinds
        self.texts = stream.texts
        self.starts = stream.starts
        self.ends = stream.ends
        self.n = len(stream.texts) - 1
        self.i = 0
        self.depth = 0
        self.item_line = 1
        self.type_refs: set[str] = set()
        self.decisions = self.logical = self.nos = self.noi = 0
        self.nl = self.nle = self.max_nl = self.max_nle = 0

    def advance(self) -> int:
        """Consume the token at the cursor; returns its index."""
        i = self.i
        if i == self.n:
            raise self.unexpected_end("unexpected end of file")
        self.i = i + 1
        return i

    def unexpected_end(self, eof_message: str) -> ParseError:
        """The error for an item cut off at the end of its window: it names
        the header there, or at the end of file reads ``eof_message``."""
        text = self.texts[self.n]
        return ParseError(f"unexpected '{text}'" if text else eof_message, self.starts[self.n])

    def skip_path(self) -> str:
        """Consume the dotted identifier path at the cursor; returns its text."""
        text, self.i = _path_end(self, self.i, self.n)
        return text

    def check(self, text: str, k: int = 0) -> bool:
        return self.texts[self.i + k] == text

    def match(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False


# ---------------------------------------------------------------------------
# token-run helpers


def _group_end(texts: list[str], i: int, hi: int, open_text: str, close_text: str) -> int | None:
    """Index just past the group opened at ``texts[i]``, looking no further
    than ``hi``; None if it never closes."""
    depth = 0
    for j in range(i, hi):
        text = texts[j]
        if text == open_text:
            depth += 1
        elif text == close_text:
            depth -= 1
            if depth == 0:
                return j + 1
    return None


def _collect_balanced(cur: _Cursor, open_text: str, close_text: str) -> int:
    """Consume a balanced group including both delimiters; returns the index
    past it.

    An unclosed group consumes the rest of the window before raising.
    """
    start = cur.i
    end = _group_end(cur.texts, start, cur.n, open_text, close_text)
    if end is None:
        cur.i = cur.n
        raise ParseError(f"unbalanced '{open_text}'", cur.starts[start])
    cur.i = end
    return end


def _paren_inner(cur: _Cursor) -> tuple[int, int]:
    """Consume a parenthesized group; returns the run inside it."""
    start = cur.i
    return start + 1, _collect_balanced(cur, "(", ")") - 1


def _split_top(cur: _Cursor, lo: int, hi: int, sep: str) -> list[tuple[int, int]]:
    """Split a run at ``sep`` tokens outside brackets; [] for an empty run."""
    if lo == hi:
        return []
    texts = cur.texts
    groups = []
    depth = 0
    start = lo
    for j in range(lo, hi):
        text = texts[j]
        if text in "([{":
            depth += 1
        elif text in ")]}":
            depth -= 1
        if text == sep and depth == 0:
            groups.append((start, j))
            start = j + 1
    groups.append((start, hi))
    return groups


def _path_end(cur: _Cursor, i: int, hi: int) -> tuple[str, int]:
    """Longest dotted identifier path starting at i and ending before hi;
    returns (text, next index)."""
    kinds, texts = cur.kinds, cur.texts
    j = i + 1
    if j + 1 >= hi or texts[j] != ".":
        return texts[i], j
    parts = [texts[i]]
    while j + 1 < hi and kinds[j] == PUNCTUATION and texts[j] == "." and kinds[j + 1] == IDENTIFIER:
        parts.append(texts[j + 1])
        j += 2
    return ".".join(parts), j


def _scan_expression(cur: _Cursor, lo: int, hi: int, refs: set[str]) -> tuple[int, int, int]:
    """Count a run's invocations (the require/assert/revert guards aside),
    logical-and/or operators and ternaries; the first name of each ``new``
    expression's type is added to ``refs``."""
    kinds, texts = cur.kinds, cur.texts
    invocations = logical = ternaries = 0
    i = lo
    while i < hi:
        kind = kinds[i]
        if kind == PUNCTUATION:
            text = texts[i]
            if text == "&&" or text == "||":
                logical += 1
            elif text == "?":
                ternaries += 1
            i += 1
        elif kind == IDENTIFIER:
            path, i = _path_end(cur, i, hi)
            k = i
            if k < hi and texts[k] == "{":
                # call options: path{value: ...}(args)
                k = _group_end(texts, k, hi, "{", "}") or hi
            if k < hi and texts[k] == "(" and path not in _GUARD_NAMES:
                invocations += 1
        elif kind == KEYWORD and texts[i] == "new" and i + 1 < hi and kinds[i + 1] == IDENTIFIER:
            name = texts[i + 1]
            i = _path_end(cur, i + 1, hi)[1]
            if i < hi and texts[i] == "(":
                invocations += 1
                refs.add(name)
        else:
            i += 1
    return invocations, logical, ternaries


def _collect_generic_run(cur: _Cursor) -> tuple[int, int, bool]:
    """Consume one generic statement; returns its run and whether it is opaque.

    Stops after a top-level ';' (left out of the run), before the enclosing
    '}', or after a brace-balanced unknown construct (reported as opaque,
    and its run ends with it). Never consumes the closing brace of the
    surrounding block.
    """
    kinds, texts, n = cur.kinds, cur.texts, cur.n
    start = i = cur.i
    paren = bracket = brace = 0
    while i < n:
        text = texts[i]
        top = paren == 0 and bracket == 0 and brace == 0
        if top and text == ";":
            cur.i = i + 1
            return start, i, False
        if text == "}" and brace == 0:
            break
        if text == "{":
            if top:
                continuation = i > start and (
                    kinds[i - 1] == IDENTIFIER or texts[i - 1] in (")", "]")
                )
                if not continuation:
                    # unknown block construct: swallow it whole
                    cur.i = i
                    end = _collect_balanced(cur, "{", "}")
                    cur.match(";")
                    return start, end, True
            brace += 1
        elif text == "}":
            brace -= 1
        elif text == "(":
            paren += 1
        elif text == ")":
            paren = max(0, paren - 1)
        elif text == "[":
            bracket += 1
        elif text == "]":
            bracket = max(0, bracket - 1)
        i += 1
    cur.i = i
    return start, i, False


def _skip_to_brace(cur: _Cursor) -> bool:
    """Consume a construct's header up to its '{'; False if a ';', '}' or the
    end of file comes first."""
    texts, n = cur.texts, cur.n
    i = cur.i
    while i < n and (text := texts[i]) not in (";", "}"):
        if text == "{":
            cur.i = i
            return True
        i += 1
    cur.i = i
    return False


def _take_name(cur: _Cursor) -> str:
    """Consume an identifier at the cursor and return it; '' if there is none."""
    return cur.texts[cur.advance()] if cur.kinds[cur.i] == IDENTIFIER else ""


# ---------------------------------------------------------------------------
# statements


def _count(cur: _Cursor, invocations: int = 0, decisions: int = 0, logical: int = 0) -> None:
    """Count one statement toward NOS, with its invocations toward NOI, its
    branches (the statement's own and its ternaries) toward McCC, and the
    logical operators of its condition toward strict McCC."""
    cur.nos += 1
    cur.noi += invocations
    cur.decisions += decisions
    cur.logical += logical


def _parse_nested(cur: _Cursor, nle: int) -> None:
    """Parse a loop or ``if`` body one NL level deeper, and ``nle`` NLE levels."""
    cur.nl += 1
    cur.nle += nle
    cur.max_nl = max(cur.max_nl, cur.nl)
    cur.max_nle = max(cur.max_nle, cur.nle)
    _parse_statement(cur)
    cur.nl -= 1
    cur.nle -= nle


def _parse_block(cur: _Cursor) -> None:
    """A `{...}` block; it counts as no statement and nests no deeper."""
    opener = cur.advance()  # '{'
    while not cur.check("}"):
        if cur.i == cur.n:
            raise ParseError("unbalanced '{'", cur.starts[opener])
        _parse_statement(cur)
    cur.advance()


def _generic_after(cur: _Cursor, kw: int) -> None:
    """A keyword statement missing its opener, parsed as a generic statement
    that starts at the keyword (index ``kw``, just consumed)."""
    _, end, _ = _collect_generic_run(cur)
    _finish_generic(cur, kw, end)


def _parse_conditional(cur: _Cursor) -> None:
    """`if (...) S [else S]` or `while (...) S`. An `else if` keeps its
    parent's depth."""
    kw = cur.advance()
    if not cur.check("("):
        return _generic_after(cur, kw)
    invocations, logical, ternaries = _scan_expression(cur, *_paren_inner(cur), cur.type_refs)
    _count(cur, invocations, 1 + ternaries, logical)
    if cur.texts[kw] != "if":
        return _parse_nested(cur, 0)
    _parse_nested(cur, 1)
    if cur.match("else"):
        if cur.check("if"):
            _parse_statement(cur)
        else:
            _parse_nested(cur, 1)


def _parse_for(cur: _Cursor) -> None:
    kw = cur.advance()
    if not cur.check("("):
        return _generic_after(cur, kw)
    lo, hi = _paren_inner(cur)
    clauses = _split_top(cur, lo, hi, ";")
    invocations, _, ternaries = _scan_expression(cur, lo, hi, cur.type_refs)
    logical = _scan_expression(cur, *clauses[1], set())[1] if len(clauses) > 1 else 0
    _count(cur, invocations, 1 + ternaries, logical)
    _parse_nested(cur, 0)


def _parse_do_while(cur: _Cursor) -> None:
    cur.advance()
    _parse_nested(cur, 0)
    invocations = logical = ternaries = 0
    if cur.match("while") and cur.check("("):
        invocations, logical, ternaries = _scan_expression(cur, *_paren_inner(cur), cur.type_refs)
    cur.match(";")
    _count(cur, invocations, 1 + ternaries, logical)


def _parse_named_call(cur: _Cursor) -> None:
    """`emit E(...)` or a `require`/`assert`/`revert` guard.

    Neither the guard nor an event or custom error name is an invocation;
    only the argument expressions carry invocations.
    """
    kw = cur.texts[cur.advance()]
    if kw in ("emit", "revert") and cur.kinds[cur.i] == IDENTIFIER:
        cur.skip_path()
    invocations = ternaries = 0
    if cur.check("("):
        invocations, _, ternaries = _scan_expression(cur, *_paren_inner(cur), cur.type_refs)
    cur.match(";")
    _count(cur, invocations, ternaries)


def _parse_unchecked(cur: _Cursor) -> None:
    kw = cur.advance()
    if not cur.check("{"):
        return _generic_after(cur, kw)
    _parse_block(cur)


def _parse_assembly(cur: _Cursor) -> None:
    cur.advance()
    if _skip_to_brace(cur):
        _collect_balanced(cur, "{", "}")
    else:
        cur.match(";")
    _count(cur)


def _parse_try(cur: _Cursor) -> None:
    cur.advance()
    depth = 0
    while cur.i < cur.n:
        text = cur.texts[cur.i]
        if text == "{" and depth == 0:
            # a brace straight after an identifier is call options, not the body
            options = cur.kinds[cur.i - 1] == IDENTIFIER
            _collect_balanced(cur, "{", "}")
            if options:
                continue
            break
        if text == "(":
            depth += 1
        elif text == ")":
            depth = max(0, depth - 1)
        elif text in (";", "}") and depth == 0:
            break
        cur.advance()
    while cur.match("catch") and _skip_to_brace(cur):
        _collect_balanced(cur, "{", "}")
    _count(cur)


def _parse_simple(cur: _Cursor) -> None:
    """An expression or declaration, an empty statement, or an unknown
    block construct swallowed as opaque."""
    lo, hi, opaque = _collect_generic_run(cur)
    if opaque:
        _count(cur)
    else:
        _finish_generic(cur, lo, hi)


def _finish_generic(cur: _Cursor, lo: int, hi: int) -> None:
    invocations, _, ternaries = _scan_expression(cur, lo, hi, cur.type_refs)
    _count(cur, invocations, ternaries)


# The parser of each statement a keyword or a brace introduces; each text is
# always one token kind.
_STATEMENT_PARSERS = {
    "{": _parse_block,
    "if": _parse_conditional,
    "for": _parse_for,
    "while": _parse_conditional,
    "do": _parse_do_while,
    "emit": _parse_named_call,
    "unchecked": _parse_unchecked,
    "assembly": _parse_assembly,
    "try": _parse_try,
}


def _parse_statement(cur: _Cursor) -> None:
    i = cur.i
    if i == cur.n:
        raise cur.unexpected_end("unexpected end of file in statement")
    if cur.depth >= MAX_NESTING:
        raise ParseError("nesting too deep", cur.item_line)
    text = cur.texts[i]
    parse = _STATEMENT_PARSERS.get(text)
    if (
        parse is None
        and text in _GUARD_NAMES
        and cur.kinds[i] == IDENTIFIER
        and i + 1 < cur.n
        and (cur.texts[i + 1] == "(" or text == "revert")
    ):
        parse = _parse_named_call
    cur.depth += 1
    (parse or _parse_simple)(cur)
    cur.depth -= 1


# ---------------------------------------------------------------------------
# declarations


def _split_typed_item(cur: _Cursor, lo: int, hi: int) -> tuple[int, str]:
    """Where the type of a parameter/state-var run ends, and the name after
    it ('' if there is none)."""
    kinds, texts = cur.kinds, cur.texts
    if lo == hi or kinds[lo] not in (KEYWORD, IDENTIFIER):
        return lo, ""
    t0 = texts[lo]
    if kinds[lo] == IDENTIFIER:
        i = _path_end(cur, lo, hi)[1]
    elif t0 in ("mapping", "function"):
        i = _skip_group(cur, lo + 1, hi, "(", ")")
        if t0 == "function":
            while i < hi and kinds[i] == KEYWORD and texts[i] != "returns":
                i += 1
            if i < hi and texts[i] == "returns":
                i = _skip_group(cur, i + 1, hi, "(", ")")
    else:
        i = lo + 1
    while i < hi and texts[i] == "[":
        i = _skip_group(cur, i, hi, "[", "]")
    type_end = i
    while i < hi and kinds[i] == KEYWORD and texts[i] in _STORAGE_KEYWORDS:
        i = _skip_group(cur, i + 1, hi, "(", ")") if texts[i] == "override" else i + 1
    name = texts[i] if i < hi and kinds[i] == IDENTIFIER else ""
    return type_end, name


def _skip_group(cur: _Cursor, i: int, hi: int, open_text: str, close_text: str) -> int:
    """Index past the group opened at ``i`` (``hi`` if it never closes);
    ``i`` itself if no group opens there."""
    if i >= hi or cur.texts[i] != open_text:
        return i
    return _group_end(cur.texts, i, hi, open_text, close_text) or hi


def _add_type_refs(cur: _Cursor, lo: int, hi: int, refs: set[str]) -> None:
    """Add each identifier of a type run that does not follow a '.' to ``refs``,
    save a mapping key or value name or a function type's parameter name."""
    kinds, texts = cur.kinds, cur.texts
    for j in range(lo, hi):
        if kinds[j] == IDENTIFIER and (j == lo or texts[j - 1] != "." and (
                # a name follows a type and ends its item
                texts[j + 1] not in ("=>", ")", ",") or texts[j - 1] in ("(", ",", "=>"))):
            refs.add(texts[j])


def _typed_items(cur: _Cursor) -> list[str]:
    """The name of each item in a parenthesized parameter list; the names
    its types use are added to the contract's ``type_refs``."""
    names = []
    for lo, hi in _split_top(cur, *_paren_inner(cur), ","):
        if lo < hi:
            type_end, name = _split_typed_item(cur, lo, hi)
            _add_type_refs(cur, lo, type_end, cur.type_refs)
            names.append(name)
    return names


def _parse_body(cur: _Cursor, numpar: int) -> FunctionMetrics:
    """Parse a function body, counting its metrics on the cursor."""
    cur.decisions = cur.logical = cur.nos = cur.noi = 0
    cur.nl = cur.nle = cur.max_nl = cur.max_nle = 0
    _parse_block(cur)
    mccc = 1 + cur.decisions
    return FunctionMetrics(
        mccc, mccc + cur.logical, cur.max_nl, cur.max_nle, numpar, cur.nos, cur.noi
    )


def _parse_function_like(cur: _Cursor, kind: str) -> FunctionDef:
    cur.advance()  # function/constructor/fallback/receive/modifier
    name: str | None = None
    if kind in ("function", "modifier-def") and cur.kinds[cur.i] in (IDENTIFIER, KEYWORD):
        name = cur.texts[cur.advance()]
    params: list[str] = []
    if cur.check("("):
        params = _typed_items(cur)
    metrics = _BODYLESS
    while cur.i < cur.n:
        text = cur.texts[cur.i]
        if text == "{":
            metrics = _parse_body(cur, len(params))
            break
        if text == ";":
            cur.advance()
            break
        if text == "}":
            break  # malformed header; let the member loop see the brace
        token_kind = cur.kinds[cur.i]
        if token_kind == KEYWORD and text == "returns":
            cur.advance()
            if cur.check("("):
                _typed_items(cur)
        elif token_kind == IDENTIFIER:
            cur.skip_path()  # modifier invocation (or base constructor call)
            if cur.check("("):
                _collect_balanced(cur, "(", ")")
        else:
            cur.advance()
    return FunctionDef(name, kind, params, metrics)


def _parse_state_var(cur: _Cursor) -> str | None:
    lo, hi, opaque = _collect_generic_run(cur)
    if opaque or lo == hi:
        return None
    lhs_end = _split_top(cur, lo, hi, "=")[0][1]
    type_end, name = _split_typed_item(cur, lo, lhs_end)
    if not name:
        return None
    _add_type_refs(cur, lo, type_end, cur.type_refs)
    _scan_expression(cur, lhs_end + 1, hi, cur.type_refs)
    return name


def _parse_type_decl(cur: _Cursor) -> str:
    """Consume `struct|enum Name { ... }`; returns the name ('' if missing)."""
    cur.advance()
    name = _take_name(cur)
    if cur.check("{"):
        _collect_balanced(cur, "{", "}")
    return name


# ---------------------------------------------------------------------------
# contracts and source units


def _skip_layout(cur: _Cursor) -> None:
    """Consume a storage layout specifier (Solidity 0.8.29), `layout at` and
    its slot expression, up to the `is` or `{` that follows. The expression
    names no type, so it adds nothing to CBO."""
    if cur.check("layout") and cur.check("at", 1):
        while cur.i < cur.n and cur.texts[cur.i] not in ("is", "{"):
            cur.i += 1


def _parse_contract(cur: _Cursor) -> ContractDef:
    first_line = cur.starts[cur.i]
    cur.match("abstract")
    kind_at = cur.advance()
    kind = cur.texts[kind_at]
    if kind not in _CONTRACT_KINDS:
        raise ParseError(f"expected contract keyword, found '{kind}'", cur.starts[kind_at])
    if cur.kinds[cur.i] != IDENTIFIER:
        raise ParseError(f"missing name in {kind} header", cur.starts[cur.i])
    name = cur.texts[cur.advance()]
    base_names: list[str] = []
    type_refs = cur.type_refs = set()
    _skip_layout(cur)
    if cur.match("is"):
        while cur.kinds[cur.i] == IDENTIFIER:
            type_refs.add(cur.texts[cur.i])
            base_names.append(cur.skip_path())
            if cur.check("("):
                _collect_balanced(cur, "(", ")")
            if not cur.match(","):
                break
        _skip_layout(cur)
    if not cur.check("{"):
        raise ParseError(f"expected '{{' in {kind} '{name}' header", cur.starts[cur.i])
    opener = cur.advance()
    contract = ContractDef(name, kind, base_names, (first_line, cur.ends[opener]), type_refs)
    while not cur.check("}"):
        if cur.i == cur.n:
            raise ParseError(f"unbalanced braces in {kind} '{name}'", cur.starts[opener])
        _parse_member(cur, contract)
    contract.span = (first_line, cur.ends[cur.advance()])
    return contract


def _function_member_is_state_var(cur: _Cursor) -> bool:
    """Lookahead: `function (...)` that ends `name ;` or carries a top-level
    `=` is a function-typed state variable, not a definition."""
    kinds, texts = cur.kinds, cur.texts
    if texts[cur.i + 1] != "(":
        return False
    depth = 0
    for j in range(cur.i + 1, cur.n):
        text = texts[j]
        if text in "([":
            depth += 1
        elif text in ")]":
            depth = max(0, depth - 1)
        elif depth == 0:
            if text == "{":
                return False
            if text == "=":
                return True
            if text == ";":
                return kinds[j - 1] == IDENTIFIER
    return False


def _parse_member(cur: _Cursor, contract: ContractDef) -> None:
    i = cur.i
    text = cur.texts[i]
    kind = _FUNCTION_KINDS.get(text)
    if kind is not None and not (kind == "function" and _function_member_is_state_var(cur)):
        contract.functions.append(_parse_function_like(cur, kind))
    elif text == "event":
        cur.advance()
        name = _take_name(cur)
        if cur.check("("):
            _collect_balanced(cur, "(", ")")
        while cur.i < cur.n and not cur.check(";") and not cur.check("}"):
            cur.advance()
        cur.match(";")
        contract.events.append(name)
    elif text in ("struct", "enum"):
        (contract.structs if text == "struct" else contract.enums).append(_parse_type_decl(cur))
    elif text in ("using", "type") or (
        text == "error" and cur.kinds[i + 1] == IDENTIFIER and cur.check("(", 2)
    ):
        _collect_generic_run(cur)
    elif text == ";":
        cur.advance()
    elif (var := _parse_state_var(cur)) is not None:
        contract.state_vars.append(var)


def _item_starts(cur: _Cursor) -> list[int]:
    """Index of the first token of each top-level item: a pragma directive,
    or an ``import``, ``abstract`` or contract keyword, save a contract
    keyword right after ``abstract``, which belongs to it. The lexer gives
    those keyword texts no other kind."""
    texts = cur.texts
    starts = list(compress(count(), map(_TOP_LEVEL_KEYWORDS.__contains__, texts)))
    i = -1
    for _ in range(cur.kinds.count(PRAGMA_DIRECTIVE)):
        insort(starts, i := cur.kinds.index(PRAGMA_DIRECTIVE, i + 1))
    return [i for i in starts if texts[i - 1] != "abstract" or texts[i] not in _CONTRACT_KINDS]


def _skip_toplevel_item(cur: _Cursor) -> None:
    """Skip a file-level item outside a contract: through its braced body or
    its ';' outside parentheses and brackets, or else to the end of its
    window, the next pragma, import or contract header, whatever brackets
    are open. A body that never closes is ``unbalanced '{'``."""
    depth = 0
    while cur.i < cur.n:
        text = cur.texts[cur.i]
        if depth == 0:
            if text == "{":
                _collect_balanced(cur, "{", "}")
                return
            if text == ";":
                cur.i += 1
                return
        if text in "([":
            depth += 1
        elif text in ")]":
            depth = max(0, depth - 1)
        cur.i += 1


def parse_file(tokens: TokenStream, path: str) -> SourceUnit:
    """Parse the stream :func:`tokenize` returns into a source unit.

    The parser reads the stream's code lists and builds no
    :class:`~solmetrics.lexer.Token`.

    Each top-level item ends at the next pragma, import or contract header,
    so a fault inside it never reaches the next one: the file's header
    indexes are found once, and each item is parsed with the cursor's end
    set to the next one. Every well-formed top-level
    contract/interface/library becomes one :class:`ContractDef`. Any other
    file-level item is skipped through its braced body or its ';', or else
    to that end. A malformed top-level item, including a contract whose
    statements nest deeper than :data:`MAX_NESTING`, a file-level body
    left open (``unbalanced '{'``), a pragma inside a contract and an
    import missing its ';' (recorded all the same), becomes one diagnostic
    and parsing resumes at the next header; no input raises. Duplicate
    contract names within a file keep the first definition and diagnose
    the rest. The unit keeps the stream as ``lines`` for
    :func:`line_accounting` and :func:`normalized_contract_text`.
    """
    cur = _Cursor(tokens)
    kinds, texts = cur.kinds, cur.texts
    pragma: str | None = None
    imports: list[str] = []
    contracts: dict[str, ContractDef] = {}
    diagnostics: list[Diagnostic] = []
    for end in [*_item_starts(cur), cur.n]:
        cur.n = end  # the item's window ends before the next header
        while cur.i < end:
            text = texts[cur.i]
            cur.item_line = cur.starts[cur.i]
            try:
                if kinds[cur.i] == PRAGMA_DIRECTIVE:
                    if pragma is None:
                        pragma = text[len("pragma") :].strip().rstrip(";").strip()
                    cur.advance()
                elif text == "import":
                    cur.advance()
                    parts = []
                    while cur.i < cur.n and (part := texts[cur.i]) != ";":
                        parts.append(part)
                        cur.advance()
                    imports.append(" ".join(parts))
                    if not cur.match(";"):
                        raise ParseError("expected ';' after import", cur.item_line)
                elif text in _CONTRACT_KINDS or text == "abstract":
                    contract = _parse_contract(cur)
                    if contract.name in contracts:
                        diagnostics.append(
                            Diagnostic(
                                path,
                                contract.span[0],
                                f"duplicate contract name '{contract.name}'",
                            )
                        )
                    else:
                        contracts[contract.name] = contract
                else:
                    _skip_toplevel_item(cur)
            except ParseError as exc:
                diagnostics.append(Diagnostic(path, exc.line, exc.args[0]))
                cur.depth = 0
                cur.i = end
    return SourceUnit(path, pragma, list(contracts.values()), tokens, imports, diagnostics)


def parse_source(source: str, path: str = "<string>") -> SourceUnit:
    """Convenience wrapper: tokenize then parse."""
    return parse_file(tokenize(source), path)


# ---------------------------------------------------------------------------
# span queries over a unit's token stream


def _lines_in(upto: list[int], first: int, last: int) -> int:
    lo, hi = max(first, 1), min(last, len(upto) - 1)
    return upto[hi] - upto[lo - 1] if lo <= hi else 0


def line_accounting(unit: SourceUnit, contract: ContractDef) -> LineCounts:
    """Source/logical/comment line counts over one contract's span.

    sloc spans the whole contract including blanks; lloc counts lines with
    at least one non-comment token; cloc counts lines touched by a comment
    token. A mixed code+comment line counts toward both lloc and cloc.

    The counts come from the prefix sums of the unit's
    :class:`TokenStream` in O(1). Contracts sharing a line, or a block
    comment crossing a contract boundary, count that line in each span it
    touches.
    """
    first, last = contract.span
    return LineCounts(
        sloc=last - first + 1,
        lloc=_lines_in(unit.lines.code_upto, first, last),
        cloc=_lines_in(unit.lines.comment_upto, first, last),
    )


def normalized_contract_text(unit: SourceUnit, contract: ContractDef) -> str:
    """Comment-stripped, whitespace-normalized text of one contract span.

    Joins the code texts lying wholly inside the span, one slice found by
    bisecting the start and end lines of the unit's :class:`TokenStream`.
    """
    first, last = contract.span
    lines = unit.lines
    n = len(lines.texts) - 1  # the end-of-stream entry is no token
    lo = bisect_left(lines.starts, first, 0, n)
    hi = bisect_right(lines.ends, last, 0, n)
    return " ".join(lines.texts[lo:hi])
