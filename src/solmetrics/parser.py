"""Recursive-descent parser for the supported Solidity subset.

The parser is tolerant by construction: constructs outside the subset are
brace-matched and swallowed as opaque statements, and a malformed
top-level item (contract, file-level struct or function, truncated header,
statements nested deeper than :data:`MAX_NESTING`) produces one diagnostic
while the rest of the file is still parsed (skip-to-next-top-level
recovery).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

from .errors import ParseError
from .lexer import (
    COMMENT_KINDS,
    IDENTIFIER,
    KEYWORD,
    PRAGMA_DIRECTIVE,
    PUNCTUATION,
    Token,
    tokenize,
)
from .nodes import (
    ASSEMBLY_OPAQUE,
    BLOCK,
    BREAK,
    CONTINUE,
    DO_WHILE,
    EMIT,
    EXPRESSION,
    FOR,
    IF,
    REQUIRE_LIKE,
    RETURN,
    UNCHECKED_BLOCK,
    WHILE,
    ContractDef,
    Diagnostic,
    FunctionDef,
    LineCounts,
    Param,
    SourceUnit,
    StateVarDecl,
    Statement,
    TokenIndex,
)

# Deepest nesting of statements inside one function body. Each level costs
# at most three Python frames, so the limit sits well below the default
# recursion limit wherever the parser is called from, and a contract parses
# or fails the same way in-process and in a pool worker.
MAX_NESTING = 200

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
    """Forward-only view over the comment-free token stream.

    ``depth`` counts the statements being parsed inside one another,
    ``item_line`` is the first line of the top-level item being parsed, and
    ``type_refs`` is the :attr:`ContractDef.type_refs` of the contract being
    parsed.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.item_line = 1
        self.type_refs: set[str] = set()

    def peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.tokens[j] if j < len(self.tokens) else None

    def advance(self) -> Token:
        try:
            tok = self.tokens[self.i]
        except IndexError:
            raise ParseError("unexpected end of file", self.line()) from None
        self.i += 1
        return tok

    def jump(self, i: int) -> None:
        """Consume every token before index ``i`` (``i`` > the current index)."""
        self.i = i

    def skip_path(self) -> str:
        """Consume the dotted identifier path at the cursor; returns its text."""
        text, j = _path_end(self.tokens, self.i)
        self.jump(j)
        return text

    @property
    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def check(self, text: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t.text == text

    def match(self, text: str) -> Token | None:
        if self.check(text):
            return self.advance()
        return None

    def line(self) -> int:
        t = self.peek()
        if t is not None:
            return t.start_line
        return self.tokens[-1].end_line if self.tokens else 1


# ---------------------------------------------------------------------------
# token-run helpers


def _group_end(tokens: list[Token], i: int, open_text: str, close_text: str) -> int | None:
    """Index just past the group opened by ``tokens[i]``; None if it never closes."""
    depth = 0
    for j in range(i, len(tokens)):
        text = tokens[j].text
        if text == open_text:
            depth += 1
        elif text == close_text:
            depth -= 1
            if depth == 0:
                return j + 1
    return None


def _collect_balanced(cur: _Cursor, open_text: str, close_text: str) -> list[Token]:
    """Consume a balanced group including both delimiters.

    An unclosed group consumes the rest of the file before raising, so that
    recovery does not resume inside it.
    """
    start = cur.i
    end = _group_end(cur.tokens, start, open_text, close_text)
    if end is None:
        cur.jump(len(cur.tokens))
        raise ParseError(f"unbalanced '{open_text}'", cur.tokens[start].start_line)
    cur.jump(end)
    return cur.tokens[start:end]


def _paren_inner(cur: _Cursor) -> list[Token]:
    return _collect_balanced(cur, "(", ")")[1:-1]


def _split_top(tokens: list[Token], sep: str) -> list[list[Token]]:
    """Split a run at ``sep`` tokens outside brackets; [] for an empty run."""
    groups: list[list[Token]] = [[]]
    depth = 0
    for t in tokens:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        if t.text == sep and depth == 0:
            groups.append([])
        else:
            groups[-1].append(t)
    return [] if groups == [[]] else groups


def _path_end(tokens: list[Token], i: int) -> tuple[str, int]:
    """Longest dotted identifier path starting at i; returns (text, next index)."""
    parts = [tokens[i].text]
    j = i + 1
    while (
        j + 1 < len(tokens)
        and tokens[j].kind == PUNCTUATION
        and tokens[j].text == "."
        and tokens[j + 1].kind == IDENTIFIER
    ):
        parts.append(tokens[j + 1].text)
        j += 2
    return ".".join(parts), j


def _scan_expression(tokens: list[Token], refs: set[str]) -> tuple[int, int, int]:
    """Count a run's invocations (the require/assert/revert guards aside),
    logical-and/or operators and ternaries; the first name of each ``new``
    expression's type is added to ``refs``."""
    invocations = logical = ternaries = 0
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == PUNCTUATION:
            if t.text in ("&&", "||"):
                logical += 1
            elif t.text == "?":
                ternaries += 1
            i += 1
        elif t.kind == KEYWORD and t.text == "new" and i + 1 < n and tokens[i + 1].kind == IDENTIFIER:
            name = tokens[i + 1].text
            i = _path_end(tokens, i + 1)[1]
            if i < n and tokens[i].text == "(":
                invocations += 1
                refs.add(name)
        elif t.kind == IDENTIFIER:
            path, i = _path_end(tokens, i)
            k = i
            if k < n and tokens[k].text == "{":
                # call options: path{value: ...}(args)
                k = _group_end(tokens, k, "{", "}") or n
            if k < n and tokens[k].text == "(" and path not in _GUARD_NAMES:
                invocations += 1
        else:
            i += 1
    return invocations, logical, ternaries


def _collect_generic_run(cur: _Cursor) -> tuple[list[Token], bool]:
    """Consume one generic statement's tokens.

    Stops after a top-level ';', before the enclosing '}', or after a
    brace-balanced unknown construct (reported as opaque). Never consumes
    the closing brace of the surrounding block.
    """
    out: list[Token] = []
    paren = bracket = brace = 0
    while (t := cur.peek()) is not None:
        top = paren == 0 and bracket == 0 and brace == 0
        if top and t.text == ";":
            cur.advance()
            return out, False
        if t.text == "}" and brace == 0:
            return out, False
        if t.text == "{":
            if top:
                prev = out[-1] if out else None
                continuation = prev is not None and (
                    prev.kind == IDENTIFIER or prev.text in (")", "]")
                )
                if not continuation:
                    # unknown block construct: swallow it whole
                    out.extend(_collect_balanced(cur, "{", "}"))
                    cur.match(";")
                    return out, True
            brace += 1
        elif t.text == "}":
            brace -= 1
        elif t.text == "(":
            paren += 1
        elif t.text == ")":
            paren = max(0, paren - 1)
        elif t.text == "[":
            bracket += 1
        elif t.text == "]":
            bracket = max(0, bracket - 1)
        out.append(cur.advance())
    return out, False


def _skip_to_brace(cur: _Cursor) -> bool:
    """Consume a construct's header up to its '{'; False if a ';', '}' or the
    end of file comes first."""
    while (t := cur.peek()) is not None and t.text not in (";", "}"):
        if t.text == "{":
            return True
        cur.advance()
    return False


def _take_name(cur: _Cursor) -> str:
    """Consume an identifier at the cursor and return it; '' if there is none."""
    t = cur.peek()
    return cur.advance().text if t is not None and t.kind == IDENTIFIER else ""


# ---------------------------------------------------------------------------
# statements


def _parse_block(cur: _Cursor) -> Statement:
    opener = cur.advance()  # '{'
    children: list[Statement] = []
    while not cur.check("}"):
        if cur.at_end:
            raise ParseError("unbalanced '{'", opener.start_line)
        children.append(_parse_statement(cur))
    cur.advance()
    return Statement(BLOCK, children)


def _generic_after(cur: _Cursor, kw: Token) -> Statement:
    """A keyword statement missing its opener, parsed as a generic statement."""
    rest, _ = _collect_generic_run(cur)
    return _finish_generic(cur, [kw] + rest)


def _parse_conditional(cur: _Cursor) -> Statement:
    """`if (...) S [else S]` or `while (...) S`."""
    kw = cur.advance()
    if not cur.check("("):
        return _generic_after(cur, kw)
    invocations, logical, ternaries = _scan_expression(_paren_inner(cur), cur.type_refs)
    children = [_parse_statement(cur)]
    has_else = kw.text == "if" and cur.match("else") is not None
    if has_else:
        children.append(_parse_statement(cur))
    return Statement(
        IF if kw.text == "if" else WHILE,
        children,
        condition_ops=logical,
        ternary_ops=ternaries,
        invocations=invocations,
        has_else=has_else,
    )


def _parse_for(cur: _Cursor) -> Statement:
    kw = cur.advance()
    if not cur.check("("):
        return _generic_after(cur, kw)
    header = _paren_inner(cur)
    clauses = _split_top(header, ";")
    invocations, _, ternaries = _scan_expression(header, cur.type_refs)
    logical = _scan_expression(clauses[1], set())[1] if len(clauses) > 1 else 0
    return Statement(FOR, [_parse_statement(cur)], logical, ternaries, invocations)


def _parse_do_while(cur: _Cursor) -> Statement:
    cur.advance()
    body = _parse_statement(cur)
    invocations = logical = ternaries = 0
    if cur.match("while") and cur.check("("):
        invocations, logical, ternaries = _scan_expression(_paren_inner(cur), cur.type_refs)
    cur.match(";")
    return Statement(DO_WHILE, [body], logical, ternaries, invocations)


def _parse_return(cur: _Cursor) -> Statement:
    cur.advance()
    expr, _ = _collect_generic_run(cur)
    invocations, _, ternaries = _scan_expression(expr, cur.type_refs)
    return Statement(RETURN, ternary_ops=ternaries, invocations=invocations)


def _parse_named_call(cur: _Cursor) -> Statement:
    """`emit E(...)` or a `require`/`assert`/`revert` guard.

    Neither the guard nor an event or custom error name is an invocation;
    only the argument expressions carry invocations.
    """
    kw = cur.advance()
    t = cur.peek()
    if kw.text in ("emit", "revert") and t is not None and t.kind == IDENTIFIER:
        cur.skip_path()
    invocations = ternaries = 0
    if cur.check("("):
        invocations, _, ternaries = _scan_expression(_paren_inner(cur), cur.type_refs)
    cur.match(";")
    return Statement(
        EMIT if kw.text == "emit" else REQUIRE_LIKE,
        ternary_ops=ternaries,
        invocations=invocations,
    )


def _parse_unchecked(cur: _Cursor) -> Statement:
    kw = cur.advance()
    if not cur.check("{"):
        return _generic_after(cur, kw)
    return Statement(UNCHECKED_BLOCK, _parse_block(cur).children)


def _parse_assembly(cur: _Cursor) -> Statement:
    cur.advance()
    if _skip_to_brace(cur):
        _collect_balanced(cur, "{", "}")
    else:
        cur.match(";")
    return Statement(ASSEMBLY_OPAQUE)


def _parse_try(cur: _Cursor) -> Statement:
    cur.advance()
    depth = 0
    prev: Token | None = None
    while (t := cur.peek()) is not None:
        if t.text == "{" and depth == 0:
            _collect_balanced(cur, "{", "}")
            # a brace straight after an identifier is call options, not the body
            if prev is not None and prev.kind == IDENTIFIER:
                prev = None
                continue
            break
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth = max(0, depth - 1)
        elif t.text in (";", "}") and depth == 0:
            break
        prev = cur.advance()
    while cur.match("catch") and _skip_to_brace(cur):
        _collect_balanced(cur, "{", "}")
    return Statement(ASSEMBLY_OPAQUE)


def _parse_jump(cur: _Cursor) -> Statement:
    kw = cur.advance()
    cur.match(";")
    return Statement(BREAK if kw.text == "break" else CONTINUE)


def _parse_simple(cur: _Cursor) -> Statement:
    """A pragma, an expression or declaration, an empty statement, or an
    unknown block construct swallowed as opaque."""
    if cur.peek().kind == PRAGMA_DIRECTIVE:
        cur.advance()
        return Statement(EXPRESSION)
    tokens, opaque = _collect_generic_run(cur)
    return Statement(ASSEMBLY_OPAQUE) if opaque else _finish_generic(cur, tokens)


def _finish_generic(cur: _Cursor, tokens: list[Token]) -> Statement:
    invocations, _, ternaries = _scan_expression(tokens, cur.type_refs)
    return Statement(EXPRESSION, ternary_ops=ternaries, invocations=invocations)


# Statements introduced by a keyword or a brace; each text is always one token kind.
_STATEMENT_PARSERS = {
    "{": _parse_block,
    "if": _parse_conditional,
    "for": _parse_for,
    "while": _parse_conditional,
    "do": _parse_do_while,
    "return": _parse_return,
    "emit": _parse_named_call,
    "unchecked": _parse_unchecked,
    "assembly": _parse_assembly,
    "try": _parse_try,
    "break": _parse_jump,
    "continue": _parse_jump,
}


def _parse_statement(cur: _Cursor) -> Statement:
    t = cur.peek()
    if t is None:
        raise ParseError("unexpected end of file in statement", cur.line())
    if cur.depth >= MAX_NESTING:
        raise ParseError("nesting too deep", cur.item_line)
    parse = _STATEMENT_PARSERS.get(t.text)
    if parse is None and t.kind == IDENTIFIER and t.text in _GUARD_NAMES:
        nxt = cur.peek(1)
        if nxt is not None and (nxt.text == "(" or t.text == "revert"):
            parse = _parse_named_call
    cur.depth += 1
    stmt = (parse or _parse_simple)(cur)
    cur.depth -= 1
    return stmt


# ---------------------------------------------------------------------------
# declarations


def _split_typed_item(tokens: list[Token]) -> tuple[int, str]:
    """Where the type of a parameter/state-var fragment ends, and the name
    after it ('' if there is none)."""
    if not tokens or tokens[0].kind not in (KEYWORD, IDENTIFIER):
        return 0, ""
    n = len(tokens)
    t0 = tokens[0]
    if t0.kind == IDENTIFIER:
        i = _path_end(tokens, 0)[1]
    elif t0.text in ("mapping", "function"):
        i = _skip_group(tokens, 1, "(", ")")
        if t0.text == "function":
            while i < n and tokens[i].kind == KEYWORD and tokens[i].text != "returns":
                i += 1
            if i < n and tokens[i].text == "returns":
                i = _skip_group(tokens, i + 1, "(", ")")
    else:
        i = 1
    while i < n and tokens[i].text == "[":
        i = _skip_group(tokens, i, "[", "]")
    type_end = i
    while i < n and tokens[i].kind == KEYWORD and tokens[i].text in _STORAGE_KEYWORDS:
        i = _skip_group(tokens, i + 1, "(", ")") if tokens[i].text == "override" else i + 1
    name = tokens[i].text if i < n and tokens[i].kind == IDENTIFIER else ""
    return type_end, name


def _skip_group(tokens: list[Token], i: int, open_text: str, close_text: str) -> int:
    """Index past the group opened at ``tokens[i]`` (the end of the run if it
    never closes); ``i`` itself if no group opens there."""
    if i >= len(tokens) or tokens[i].text != open_text:
        return i
    return _group_end(tokens, i, open_text, close_text) or len(tokens)


def _add_type_refs(type_tokens: list[Token], refs: set[str]) -> None:
    """Add each identifier of a type that does not follow a '.' to ``refs``."""
    prev = ""
    for t in type_tokens:
        if t.kind == IDENTIFIER and prev != ".":
            refs.add(t.text)
        prev = t.text


def _typed_items(cur: _Cursor) -> list[str]:
    """The name of each item in a parenthesized parameter list; the names
    its types use are added to the contract's ``type_refs``."""
    names = []
    for group in _split_top(_paren_inner(cur), ","):
        if group:
            type_end, name = _split_typed_item(group)
            _add_type_refs(group[:type_end], cur.type_refs)
            names.append(name)
    return names


def _parse_function_like(cur: _Cursor, kind: str) -> FunctionDef:
    cur.advance()  # function/constructor/fallback/receive/modifier
    name: str | None = None
    if kind in ("function", "modifier-def"):
        t = cur.peek()
        if t is not None and t.kind in (IDENTIFIER, KEYWORD):
            name = cur.advance().text
    params: list[Param] = []
    if cur.check("("):
        params = [Param(name) for name in _typed_items(cur)]
    body: Statement | None = None
    while (t := cur.peek()) is not None:
        if t.text == "{":
            body = _parse_block(cur)
            break
        if t.text == ";":
            cur.advance()
            break
        if t.text == "}":
            break  # malformed header; let the member loop see the brace
        if t.kind == KEYWORD and t.text == "returns":
            cur.advance()
            if cur.check("("):
                _typed_items(cur)
        elif t.kind == IDENTIFIER:
            cur.skip_path()  # modifier invocation (or base constructor call)
            if cur.check("("):
                _collect_balanced(cur, "(", ")")
        else:
            cur.advance()
    return FunctionDef(name, kind, params, body)


def _parse_state_var(cur: _Cursor) -> StateVarDecl | None:
    tokens, opaque = _collect_generic_run(cur)
    if opaque or not tokens:
        return None
    lhs = _split_top(tokens, "=")[0]
    rhs = tokens[len(lhs) + 1 :]
    type_end, name = _split_typed_item(lhs)
    if not name:
        return None
    _add_type_refs(lhs[:type_end], cur.type_refs)
    _scan_expression(rhs, cur.type_refs)
    return StateVarDecl(name)


def _parse_type_decl(cur: _Cursor) -> str:
    """Consume `struct|enum Name { ... }`; returns the name ('' if missing)."""
    cur.advance()
    name = _take_name(cur)
    if cur.check("{"):
        _collect_balanced(cur, "{", "}")
    return name


# ---------------------------------------------------------------------------
# contracts and source units


def _parse_contract(cur: _Cursor) -> ContractDef:
    start = cur.peek()
    cur.match("abstract")
    kind_tok = cur.advance()
    if kind_tok.text not in _CONTRACT_KINDS:
        raise ParseError(f"expected contract keyword, found '{kind_tok.text}'", kind_tok.start_line)
    name_tok = cur.peek()
    if name_tok is None or name_tok.kind != IDENTIFIER:
        raise ParseError(f"missing name in {kind_tok.text} header", cur.line())
    cur.advance()
    base_names: list[str] = []
    type_refs = cur.type_refs = set()
    if cur.match("is"):
        while (t := cur.peek()) is not None and t.kind == IDENTIFIER:
            type_refs.add(t.text)
            base_names.append(cur.skip_path())
            if cur.check("("):
                _collect_balanced(cur, "(", ")")
            if not cur.match(","):
                break
    if not cur.check("{"):
        raise ParseError(f"expected '{{' in {kind_tok.text} '{name_tok.text}' header", cur.line())
    opener = cur.advance()
    contract = ContractDef(
        name=name_tok.text,
        kind=kind_tok.text,
        base_names=base_names,
        state_vars=[],
        functions=[],
        span=(start.start_line, opener.end_line),
        type_refs=type_refs,
    )
    while not cur.check("}"):
        if cur.at_end:
            raise ParseError(
                f"unbalanced braces in {kind_tok.text} '{name_tok.text}'", opener.start_line
            )
        _parse_member(cur, contract)
    closer = cur.advance()
    contract.span = (start.start_line, closer.end_line)
    return contract


def _function_member_is_state_var(cur: _Cursor) -> bool:
    """Lookahead: `function (...)` that ends `name ;` or carries a top-level
    `=` is a function-typed state variable, not a definition."""
    nxt = cur.peek(1)
    if nxt is None or nxt.text != "(":
        return False
    i = cur.i + 1
    tokens = cur.tokens
    depth = 0
    prev: Token | None = None
    while i < len(tokens):
        t = tokens[i]
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth = max(0, depth - 1)
        elif depth == 0:
            if t.text == "{":
                return False
            if t.text == "=":
                return True
            if t.text == ";":
                return prev is not None and prev.kind == IDENTIFIER
        prev = t
        i += 1
    return False


def _parse_member(cur: _Cursor, contract: ContractDef) -> None:
    t = cur.peek()
    kind = _FUNCTION_KINDS.get(t.text)
    if kind is not None and not (kind == "function" and _function_member_is_state_var(cur)):
        contract.functions.append(_parse_function_like(cur, kind))
    elif t.text == "event":
        cur.advance()
        name = _take_name(cur)
        if cur.check("("):
            _collect_balanced(cur, "(", ")")
        while not cur.at_end and not cur.check(";") and not cur.check("}"):
            cur.advance()
        cur.match(";")
        contract.events.append(name)
    elif t.text in ("struct", "enum"):
        (contract.structs if t.text == "struct" else contract.enums).append(_parse_type_decl(cur))
    elif t.text in ("using", "type") or (
        t.text == "error"
        and (n1 := cur.peek(1)) is not None
        and n1.kind == IDENTIFIER
        and cur.check("(", 2)
    ):
        _collect_generic_run(cur)
    elif t.kind == PRAGMA_DIRECTIVE or t.text == ";":
        cur.advance()
    elif (var := _parse_state_var(cur)) is not None:
        contract.state_vars.append(var)


def _starts_top_level(t: Token) -> bool:
    """A pragma, an import or a contract header: where recovery resumes."""
    return t.kind == PRAGMA_DIRECTIVE or (t.kind == KEYWORD and t.text in _TOP_LEVEL_KEYWORDS)


def _recover_to_top_level(cur: _Cursor) -> None:
    depth = 0
    while (t := cur.peek()) is not None:
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and _starts_top_level(t):
            return
        cur.advance()


def _skip_toplevel_item(cur: _Cursor) -> None:
    t = cur.peek()
    if t.text == "{":
        cur.jump(_group_end(cur.tokens, cur.i, "{", "}") or len(cur.tokens))
        return
    if t.text in ("struct", "enum"):
        _parse_type_decl(cur)
        return
    cur.advance()
    if t.text == "function":
        # file-level function: skip header and body
        while (nt := cur.peek()) is not None:
            if nt.text == "{":
                _collect_balanced(cur, "{", "}")
                return
            if nt.text == ";":
                cur.advance()
                return
            if nt.text in _CONTRACT_KINDS:
                return
            cur.advance()
        return
    depth = 0
    while (nt := cur.peek()) is not None:
        if depth == 0 and nt.text == ";":
            cur.advance()
            return
        if depth == 0 and _starts_top_level(nt):
            return
        if nt.text in "([{":
            depth += 1
        elif nt.text in ")]}":
            depth = max(0, depth - 1)
        cur.advance()


def _split_comments(tokens: list[Token]) -> TokenIndex:
    """The file's code tokens and per-line code/comment flags, in one pass.

    The flags are sized by the last token's end line, the largest one in
    stream order as :func:`tokenize` returns it. A hand-built list out of
    that order grows them as it goes, so it still indexes without raising.
    """
    n_lines = tokens[-1].span[2] if tokens else 0
    code_lines = bytearray(n_lines + 1)
    comment_lines = bytearray(n_lines + 1)
    code: list[Token] = []
    code_starts: list[int] = []
    code_ends: list[int] = []
    for t in tokens:
        first, _, last, _ = t.span
        if last > n_lines:
            code_lines.extend(bytes(last - n_lines))
            comment_lines.extend(bytes(last - n_lines))
            n_lines = last
        if t.kind in COMMENT_KINDS:
            flags = comment_lines
        else:
            flags = code_lines
            code.append(t)
            code_starts.append(first)
            code_ends.append(last)
        if first == last:
            flags[first] = 1
        else:
            flags[first : last + 1] = b"\x01" * (last + 1 - first)
    return TokenIndex(
        list(accumulate(code_lines)), list(accumulate(comment_lines)), code, code_starts, code_ends
    )


def parse_file(tokens: list[Token], path: str) -> SourceUnit:
    """Parse a token stream into a source unit.

    Every well-formed top-level contract/interface/library becomes one
    :class:`ContractDef`. A malformed top-level item, including a contract
    whose statements nest deeper than :data:`MAX_NESTING`, becomes one
    diagnostic and parsing resumes at the next top-level construct; no
    input raises. Duplicate contract names within a file keep the first
    definition and diagnose the rest. The unit keeps the file's
    :class:`TokenIndex` as ``lines`` for :func:`line_accounting` and
    :func:`normalized_contract_text`.
    """
    lines = _split_comments(tokens)
    cur = _Cursor(lines.code)
    pragma: str | None = None
    imports: list[str] = []
    contracts: list[ContractDef] = []
    diagnostics: list[Diagnostic] = []
    seen_names: set[str] = set()
    while (t := cur.peek()) is not None:
        cur.item_line = t.start_line
        try:
            if t.kind == PRAGMA_DIRECTIVE:
                if pragma is None:
                    pragma = t.text[len("pragma") :].strip().rstrip(";").strip()
                cur.advance()
            elif t.text == "import":
                cur.advance()
                parts = []
                while (nt := cur.peek()) is not None and nt.text != ";":
                    if nt.text in _CONTRACT_KINDS:
                        break
                    parts.append(cur.advance().text)
                cur.match(";")
                imports.append(" ".join(parts))
            elif t.text in _CONTRACT_KINDS or t.text == "abstract":
                contract = _parse_contract(cur)
                if contract.name in seen_names:
                    diagnostics.append(
                        Diagnostic(
                            path,
                            contract.span[0],
                            f"duplicate contract name '{contract.name}'",
                        )
                    )
                else:
                    seen_names.add(contract.name)
                    contracts.append(contract)
            else:
                _skip_toplevel_item(cur)
        except ParseError as exc:
            diagnostics.append(Diagnostic(path, exc.line, exc.args[0]))
            cur.depth = 0
            _recover_to_top_level(cur)
    return SourceUnit(
        path=path,
        pragma=pragma,
        contracts=contracts,
        lines=lines,
        imports=imports,
        diagnostics=diagnostics,
    )


def parse_source(source: str, path: str = "<string>") -> SourceUnit:
    """Convenience wrapper: tokenize then parse."""
    return parse_file(tokenize(source), path)


# ---------------------------------------------------------------------------
# span queries over a unit's line index


def _lines_in(upto: list[int], first: int, last: int) -> int:
    lo, hi = max(first, 1), min(last, len(upto) - 1)
    return upto[hi] - upto[lo - 1] if lo <= hi else 0


def line_accounting(unit: SourceUnit, contract: ContractDef) -> LineCounts:
    """Source/logical/comment line counts over one contract's span.

    sloc spans the whole contract including blanks; lloc counts lines with
    at least one non-comment token; cloc counts lines touched by a comment
    token. A mixed code+comment line counts toward both lloc and cloc.

    The counts come from the unit's :class:`TokenIndex` in O(1). Contracts
    sharing a line, or a block comment crossing a contract boundary, count
    that line in each span it touches.
    """
    first, last = contract.span
    return LineCounts(
        sloc=last - first + 1,
        lloc=_lines_in(unit.lines.code_upto, first, last),
        cloc=_lines_in(unit.lines.comment_upto, first, last),
    )


def normalized_contract_text(unit: SourceUnit, contract: ContractDef) -> str:
    """Comment-stripped, whitespace-normalized text of one contract span.

    Joins the code tokens lying wholly inside the span, found by bisecting
    the unit's :class:`TokenIndex`.
    """
    first, last = contract.span
    lines = unit.lines
    lo = bisect_left(lines.code_starts, first)
    hi = bisect_right(lines.code_ends, last)
    return " ".join([t.text for t in lines.code[lo:hi]])
