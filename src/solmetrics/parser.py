"""Recursive-descent parser for the supported Solidity subset.

The parser is tolerant by construction: constructs outside the subset are
brace-matched and swallowed as opaque statements, and a malformed contract
produces one diagnostic while the rest of the file is still parsed
(skip-to-next-top-level recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    VARIABLE_DECLARATION,
    WHILE,
    CallSite,
    ContractDef,
    Diagnostic,
    FunctionDef,
    LineCounts,
    Param,
    SourceUnit,
    StateVarDecl,
    Statement,
)

_GUARD_NAMES = frozenset({"require", "assert", "revert"})
_CONTRACT_KINDS = frozenset({"contract", "interface", "library"})
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
    """Forward-only view over the comment-free token stream."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.last: Token | None = None

    def peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.tokens[j] if j < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        self.last = tok
        return tok

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
        return self.last.end_line if self.last is not None else 1


# ---------------------------------------------------------------------------
# token-run helpers


def _collect_balanced(cur: _Cursor, open_text: str, close_text: str) -> list[Token]:
    """Consume a balanced group including both delimiters."""
    out = [cur.advance()]  # the opener
    depth = 1
    while depth > 0:
        if cur.at_end:
            raise ParseError(f"unbalanced '{open_text}'", out[0].start_line)
        t = cur.advance()
        if t.text == open_text:
            depth += 1
        elif t.text == close_text:
            depth -= 1
        out.append(t)
    return out


def _paren_inner(cur: _Cursor) -> list[Token]:
    group = _collect_balanced(cur, "(", ")")
    return group[1:-1]


def _split_top_commas(tokens: list[Token]) -> list[list[Token]]:
    groups: list[list[Token]] = [[]]
    depth = 0
    for t in tokens:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        if t.text == "," and depth == 0:
            groups.append([])
        else:
            groups[-1].append(t)
    if groups == [[]]:
        return []
    return groups


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


def _scan_expression(tokens: list[Token]) -> tuple[list[CallSite], int, int]:
    """Extract call sites, logical-and/or count and ternary count from a run."""
    calls: list[CallSite] = []
    logical = 0
    ternaries = 0
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
            continue
        if t.kind == KEYWORD and t.text == "new" and i + 1 < n and tokens[i + 1].kind == IDENTIFIER:
            path, j = _path_end(tokens, i + 1)
            if j < n and tokens[j].text == "(":
                calls.append(CallSite(path, is_builtin_guard=False, is_new_expression=True))
            i = j
            continue
        if t.kind == IDENTIFIER:
            path, j = _path_end(tokens, i)
            k = j
            if k < n and tokens[k].text == "{":
                # call options: path{value: ...}(args)
                depth = 0
                while k < n:
                    if tokens[k].text == "{":
                        depth += 1
                    elif tokens[k].text == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                k += 1
            if k < n and tokens[k].text == "(":
                calls.append(CallSite(path, is_builtin_guard=path in _GUARD_NAMES))
            i = j
            continue
        i += 1
    return calls, logical, ternaries


def _collect_generic_run(cur: _Cursor) -> tuple[list[Token], bool]:
    """Consume one generic statement's tokens.

    Stops after a top-level ';', before the enclosing '}', or after a
    brace-balanced unknown construct (reported as opaque). Never consumes
    the closing brace of the surrounding block.
    """
    out: list[Token] = []
    paren = bracket = brace = 0
    while not cur.at_end:
        t = cur.peek()
        assert t is not None
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
                    if cur.check(";"):
                        cur.advance()
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


def _looks_like_declaration(tokens: list[Token]) -> bool:
    if not tokens:
        return False
    t0 = tokens[0]
    if t0.kind == KEYWORD:
        return t0.text in ("mapping", "function") or _is_type_keyword(t0.text)
    if t0.text == "(":
        # tuple declaration iff a type keyword or adjacent identifiers inside
        depth = 0
        for a, b in zip(tokens, tokens[1:]):
            if a.text == "(":
                depth += 1
            elif a.text == ")":
                depth -= 1
            if depth >= 1 and a.kind == KEYWORD and _is_type_keyword(a.text):
                return True
            if depth >= 1 and a.kind == IDENTIFIER and b.kind == IDENTIFIER:
                return True
        return False
    if t0.kind != IDENTIFIER:
        return False
    _, j = _path_end(tokens, 0)
    while j + 1 < len(tokens) and tokens[j].text == "[":
        depth = 0
        while j < len(tokens):
            if tokens[j].text == "[":
                depth += 1
            elif tokens[j].text == "]":
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            j += 1
    while j < len(tokens) and tokens[j].kind == KEYWORD and tokens[j].text in _STORAGE_KEYWORDS:
        j += 1
    return j < len(tokens) and tokens[j].kind == IDENTIFIER


def _is_type_keyword(text: str) -> bool:
    from .lexer import is_elementary_type

    return is_elementary_type(text)


# ---------------------------------------------------------------------------
# statements


def _parse_block(cur: _Cursor) -> Statement:
    opener = cur.advance()  # '{'
    children: list[Statement] = []
    while not cur.check("}"):
        if cur.at_end:
            raise ParseError("unbalanced '{'", opener.start_line)
        children.append(_parse_statement(cur))
    closer = cur.advance()
    return Statement(BLOCK, (opener.start_line, closer.end_line), children)


def _parse_if(cur: _Cursor) -> Statement:
    kw = cur.advance()
    if not cur.check("("):
        rest, _ = _collect_generic_run(cur)
        return _finish_generic([kw] + rest, kw)
    cond = _paren_inner(cur)
    calls, logical, ternaries = _scan_expression(cond)
    then_stmt = _parse_statement(cur)
    children = [then_stmt]
    has_else = False
    if cur.check("else"):
        cur.advance()
        children.append(_parse_statement(cur))
        has_else = True
    end = children[-1].span[1]
    return Statement(
        IF,
        (kw.start_line, end),
        children,
        condition_ops=logical,
        ternary_ops=ternaries,
        calls=calls,
        has_else=has_else,
    )


def _parse_for(cur: _Cursor) -> Statement:
    kw = cur.advance()
    if not cur.check("("):
        rest, _ = _collect_generic_run(cur)
        return _finish_generic([kw] + rest, kw)
    header = _paren_inner(cur)
    clauses: list[list[Token]] = [[]]
    depth = 0
    for t in header:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        if t.text == ";" and depth == 0:
            clauses.append([])
        else:
            clauses[-1].append(t)
    calls, _, ternaries = _scan_expression(header)
    logical = 0
    if len(clauses) > 1:
        _, logical, _ = _scan_expression(clauses[1])
    body = _parse_statement(cur)
    return Statement(
        FOR,
        (kw.start_line, body.span[1]),
        [body],
        condition_ops=logical,
        ternary_ops=ternaries,
        calls=calls,
    )


def _parse_while(cur: _Cursor) -> Statement:
    kw = cur.advance()
    if not cur.check("("):
        rest, _ = _collect_generic_run(cur)
        return _finish_generic([kw] + rest, kw)
    cond = _paren_inner(cur)
    calls, logical, ternaries = _scan_expression(cond)
    body = _parse_statement(cur)
    return Statement(
        WHILE,
        (kw.start_line, body.span[1]),
        [body],
        condition_ops=logical,
        ternary_ops=ternaries,
        calls=calls,
    )


def _parse_do_while(cur: _Cursor) -> Statement:
    kw = cur.advance()
    body = _parse_statement(cur)
    calls: list[CallSite] = []
    logical = ternaries = 0
    if cur.check("while"):
        cur.advance()
        if cur.check("("):
            cond = _paren_inner(cur)
            calls, logical, ternaries = _scan_expression(cond)
    if cur.check(";"):
        cur.advance()
    end = cur.last.end_line if cur.last is not None else body.span[1]
    return Statement(
        DO_WHILE,
        (kw.start_line, end),
        [body],
        condition_ops=logical,
        ternary_ops=ternaries,
        calls=calls,
    )


def _parse_return(cur: _Cursor) -> Statement:
    kw = cur.advance()
    expr, _ = _collect_generic_run(cur)
    calls, _, ternaries = _scan_expression(expr)
    end = cur.last.end_line if cur.last is not None else kw.end_line
    return Statement(RETURN, (kw.start_line, end), calls=calls, ternary_ops=ternaries)


def _parse_emit(cur: _Cursor) -> Statement:
    kw = cur.advance()
    calls: list[CallSite] = []
    ternaries = 0
    t = cur.peek()
    if t is not None and t.kind == IDENTIFIER:
        # skip the event name; only argument expressions carry invocations
        cur.advance()
        while cur.check(".") and cur.peek(1) is not None and cur.peek(1).kind == IDENTIFIER:
            cur.advance()
            cur.advance()
    if cur.check("("):
        args = _paren_inner(cur)
        calls, _, ternaries = _scan_expression(args)
    if cur.check(";"):
        cur.advance()
    end = cur.last.end_line if cur.last is not None else kw.end_line
    return Statement(EMIT, (kw.start_line, end), calls=calls, ternary_ops=ternaries)


def _parse_require_like(cur: _Cursor) -> Statement:
    name_tok = cur.advance()
    calls = [CallSite(name_tok.text, is_builtin_guard=True)]
    ternaries = 0
    if name_tok.text == "revert":
        t = cur.peek()
        if t is not None and t.kind == IDENTIFIER:
            cur.advance()  # custom error name
            while cur.check(".") and cur.peek(1) is not None and cur.peek(1).kind == IDENTIFIER:
                cur.advance()
                cur.advance()
    if cur.check("("):
        args = _paren_inner(cur)
        inner_calls, _, ternaries = _scan_expression(args)
        calls.extend(inner_calls)
    if cur.check(";"):
        cur.advance()
    end = cur.last.end_line if cur.last is not None else name_tok.end_line
    return Statement(REQUIRE_LIKE, (name_tok.start_line, end), calls=calls, ternary_ops=ternaries)


def _parse_unchecked(cur: _Cursor) -> Statement:
    kw = cur.advance()
    if not cur.check("{"):
        rest, _ = _collect_generic_run(cur)
        return _finish_generic([kw] + rest, kw)
    block = _parse_block(cur)
    return Statement(UNCHECKED_BLOCK, (kw.start_line, block.span[1]), block.children)


def _parse_assembly(cur: _Cursor) -> Statement:
    kw = cur.advance()
    while not cur.at_end and not cur.check("{"):
        t = cur.peek()
        assert t is not None
        if t.text in (";", "}"):
            break
        cur.advance()
    if cur.check("{"):
        _collect_balanced(cur, "{", "}")
    elif cur.check(";"):
        cur.advance()
    end = cur.last.end_line if cur.last is not None else kw.end_line
    return Statement(ASSEMBLY_OPAQUE, (kw.start_line, end))


def _parse_try(cur: _Cursor) -> Statement:
    kw = cur.advance()
    depth = 0
    prev: Token | None = None
    while not cur.at_end:
        t = cur.peek()
        assert t is not None
        if t.text == "{" and depth == 0:
            # a brace straight after an identifier is call options, not the body
            if prev is not None and prev.kind == IDENTIFIER:
                _collect_balanced(cur, "{", "}")
                prev = None
                continue
            _collect_balanced(cur, "{", "}")
            break
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth = max(0, depth - 1)
        elif t.text in (";", "}") and depth == 0:
            break
        prev = cur.advance()
    while cur.check("catch"):
        cur.advance()
        while not cur.at_end and not cur.check("{"):
            t = cur.peek()
            assert t is not None
            if t.text in (";", "}"):
                break
            cur.advance()
        if cur.check("{"):
            _collect_balanced(cur, "{", "}")
        else:
            break
    end = cur.last.end_line if cur.last is not None else kw.end_line
    return Statement(ASSEMBLY_OPAQUE, (kw.start_line, end))


def _finish_generic(tokens: list[Token], first: Token) -> Statement:
    calls, _, ternaries = _scan_expression(tokens)
    kind = VARIABLE_DECLARATION if _looks_like_declaration(tokens) else EXPRESSION
    end = tokens[-1].end_line if tokens else first.end_line
    return Statement(kind, (first.start_line, end), calls=calls, ternary_ops=ternaries)


def _parse_statement(cur: _Cursor) -> Statement:
    t = cur.peek()
    if t is None:
        raise ParseError("unexpected end of file in statement", cur.line())
    if t.text == "{":
        return _parse_block(cur)
    if t.kind == KEYWORD:
        if t.text == "if":
            return _parse_if(cur)
        if t.text == "for":
            return _parse_for(cur)
        if t.text == "while":
            return _parse_while(cur)
        if t.text == "do":
            return _parse_do_while(cur)
        if t.text == "return":
            return _parse_return(cur)
        if t.text == "emit":
            return _parse_emit(cur)
        if t.text == "unchecked":
            return _parse_unchecked(cur)
        if t.text == "assembly":
            return _parse_assembly(cur)
        if t.text == "try":
            return _parse_try(cur)
        if t.text == "break":
            kw = cur.advance()
            if cur.check(";"):
                cur.advance()
            return Statement(BREAK, (kw.start_line, kw.end_line))
        if t.text == "continue":
            kw = cur.advance()
            if cur.check(";"):
                cur.advance()
            return Statement(CONTINUE, (kw.start_line, kw.end_line))
    if t.kind == IDENTIFIER and t.text in _GUARD_NAMES:
        nxt = cur.peek(1)
        if nxt is not None and (nxt.text == "(" or t.text == "revert"):
            return _parse_require_like(cur)
    if t.kind == PRAGMA_DIRECTIVE:
        kw = cur.advance()
        return Statement(EXPRESSION, (kw.start_line, kw.end_line))
    first = t
    tokens, opaque = _collect_generic_run(cur)
    if opaque:
        end = cur.last.end_line if cur.last is not None else first.end_line
        return Statement(ASSEMBLY_OPAQUE, (first.start_line, end))
    if not tokens:
        # bare ';', or a stray '}' we must not consume
        if cur.last is not None and cur.last.text == ";":
            return Statement(EXPRESSION, (first.start_line, cur.last.end_line))
        return Statement(EXPRESSION, (first.start_line, first.start_line))
    return _finish_generic(tokens, first)


# ---------------------------------------------------------------------------
# declarations


def _split_typed_item(tokens: list[Token]) -> tuple[str, str]:
    """Split a parameter/state-var fragment into (type text, name)."""
    if not tokens:
        return "", ""
    type_parts: list[str] = []
    i = 0
    n = len(tokens)
    t0 = tokens[i]
    if t0.kind == KEYWORD and t0.text == "mapping":
        type_parts.append(t0.text)
        i += 1
        i = _append_group(tokens, i, "(", ")", type_parts)
    elif t0.kind == KEYWORD and t0.text == "function":
        type_parts.append(t0.text)
        i += 1
        i = _append_group(tokens, i, "(", ")", type_parts)
        while i < n and tokens[i].kind == KEYWORD and tokens[i].text != "returns":
            type_parts.append(tokens[i].text)
            i += 1
        if i < n and tokens[i].text == "returns":
            type_parts.append(tokens[i].text)
            i += 1
            i = _append_group(tokens, i, "(", ")", type_parts)
    elif t0.kind == KEYWORD:
        type_parts.append(t0.text)
        i += 1
    elif t0.kind == IDENTIFIER:
        path, i = _path_end(tokens, 0)
        type_parts.append(path)
    else:
        return "", ""
    while i < n and tokens[i].text == "[":
        i = _append_group(tokens, i, "[", "]", type_parts)
    while i < n and tokens[i].kind == KEYWORD and tokens[i].text in _STORAGE_KEYWORDS:
        if tokens[i].text == "override" and i + 1 < n and tokens[i + 1].text == "(":
            i += 1
            i = _append_group(tokens, i, "(", ")", [])
        else:
            i += 1
    name = ""
    if i < n and tokens[i].kind == IDENTIFIER:
        name = tokens[i].text
    return " ".join(type_parts), name


def _append_group(tokens: list[Token], i: int, open_text: str, close_text: str, out: list[str]) -> int:
    if i >= len(tokens) or tokens[i].text != open_text:
        return i
    depth = 0
    while i < len(tokens):
        t = tokens[i]
        if t.text == open_text:
            depth += 1
        elif t.text == close_text:
            depth -= 1
        out.append(t.text)
        i += 1
        if depth == 0:
            break
    return i


def _parse_params(cur: _Cursor) -> list[Param]:
    inner = _paren_inner(cur)
    params = []
    for group in _split_top_commas(inner):
        if not group:
            continue
        type_text, name = _split_typed_item(group)
        params.append(Param(name, type_text))
    return params


def _parse_function_like(cur: _Cursor, kind: str) -> FunctionDef:
    intro = cur.advance()  # function/constructor/fallback/receive/modifier
    name: str | None = None
    if kind in ("function", "modifier-def"):
        t = cur.peek()
        if t is not None and t.kind in (IDENTIFIER, KEYWORD) and not t.text == "(":
            name = cur.advance().text
    params: list[Param] = []
    if cur.check("("):
        params = _parse_params(cur)
    return_types: list[str] = []
    body: Statement | None = None
    while not cur.at_end:
        t = cur.peek()
        assert t is not None
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
                inner = _paren_inner(cur)
                for group in _split_top_commas(inner):
                    if group:
                        type_text, _ = _split_typed_item(group)
                        return_types.append(type_text)
            continue
        if t.kind == IDENTIFIER:
            cur.advance()  # modifier invocation (or base constructor call)
            while cur.check(".") and cur.peek(1) is not None and cur.peek(1).kind == IDENTIFIER:
                cur.advance()
                cur.advance()
            if cur.check("("):
                _collect_balanced(cur, "(", ")")
            continue
        cur.advance()
    end = cur.last.end_line if cur.last is not None else intro.end_line
    return FunctionDef(name, kind, params, body, (intro.start_line, end), return_types)


def _parse_state_var(cur: _Cursor) -> StateVarDecl | None:
    first = cur.peek()
    assert first is not None
    tokens, opaque = _collect_generic_run(cur)
    if opaque or not tokens:
        return None
    eq_index = None
    depth = 0
    for idx, t in enumerate(tokens):
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif t.text == "=" and depth == 0:
            eq_index = idx
            break
    lhs = tokens if eq_index is None else tokens[:eq_index]
    rhs = [] if eq_index is None else tokens[eq_index + 1 :]
    type_text, name = _split_typed_item(lhs)
    if not name:
        return None
    new_refs = [c.callee_text for c in _scan_expression(rhs)[0] if c.is_new_expression]
    end = cur.last.end_line if cur.last is not None else first.end_line
    return StateVarDecl(name, type_text, (first.start_line, end), new_refs)


# ---------------------------------------------------------------------------
# contracts and source units


def _parse_contract(cur: _Cursor) -> ContractDef:
    start = cur.peek()
    assert start is not None
    if cur.check("abstract"):
        cur.advance()
    kind_tok = cur.advance()
    if kind_tok.text not in _CONTRACT_KINDS:
        raise ParseError(f"expected contract keyword, found '{kind_tok.text}'", kind_tok.start_line)
    name_tok = cur.peek()
    if name_tok is None or name_tok.kind != IDENTIFIER:
        raise ParseError(f"missing name in {kind_tok.text} header", cur.line())
    cur.advance()
    base_names: list[str] = []
    if cur.check("is"):
        cur.advance()
        while True:
            t = cur.peek()
            if t is None or t.kind != IDENTIFIER:
                break
            idx_text, j = _path_end(cur.tokens, cur.i)
            cur.i = j
            cur.last = cur.tokens[j - 1]
            base_names.append(idx_text)
            if cur.check("("):
                _collect_balanced(cur, "(", ")")
            if cur.check(","):
                cur.advance()
                continue
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
    assert t is not None
    if t.kind == KEYWORD:
        if t.text == "function":
            if _function_member_is_state_var(cur):
                var = _parse_state_var(cur)
                if var is not None:
                    contract.state_vars.append(var)
                return
            contract.functions.append(_parse_function_like(cur, "function"))
            return
        if t.text == "constructor":
            contract.functions.append(_parse_function_like(cur, "constructor"))
            return
        if t.text == "fallback":
            contract.functions.append(_parse_function_like(cur, "fallback"))
            return
        if t.text == "receive":
            contract.functions.append(_parse_function_like(cur, "receive"))
            return
        if t.text == "modifier":
            contract.functions.append(_parse_function_like(cur, "modifier-def"))
            return
        if t.text == "event":
            cur.advance()
            name = ""
            nt = cur.peek()
            if nt is not None and nt.kind == IDENTIFIER:
                name = cur.advance().text
            if cur.check("("):
                _collect_balanced(cur, "(", ")")
            while not cur.at_end and not cur.check(";") and not cur.check("}"):
                cur.advance()
            if cur.check(";"):
                cur.advance()
            contract.events.append(name)
            return
        if t.text in ("struct", "enum"):
            kw = cur.advance()
            name = ""
            nt = cur.peek()
            if nt is not None and nt.kind == IDENTIFIER:
                name = cur.advance().text
            if cur.check("{"):
                _collect_balanced(cur, "{", "}")
            (contract.structs if kw.text == "struct" else contract.enums).append(name)
            return
        if t.text in ("using", "type"):
            _collect_generic_run(cur)
            return
    if t.kind == IDENTIFIER and t.text == "error":
        n1 = cur.peek(1)
        n2 = cur.peek(2)
        if n1 is not None and n1.kind == IDENTIFIER and n2 is not None and n2.text == "(":
            _collect_generic_run(cur)
            return
    if t.kind == PRAGMA_DIRECTIVE or t.text == ";":
        cur.advance()
        return
    var = _parse_state_var(cur)
    if var is not None:
        contract.state_vars.append(var)


def _recover_to_top_level(cur: _Cursor) -> None:
    depth = 0
    while not cur.at_end:
        t = cur.peek()
        assert t is not None
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and (
            (t.kind == KEYWORD and (t.text in _CONTRACT_KINDS or t.text in ("abstract", "import")))
            or t.kind == PRAGMA_DIRECTIVE
        ):
            return
        cur.advance()


def _skip_toplevel_item(cur: _Cursor) -> None:
    t = cur.advance()
    if t.text == "{":
        depth = 1
        while not cur.at_end and depth > 0:
            nt = cur.advance()
            if nt.text == "{":
                depth += 1
            elif nt.text == "}":
                depth -= 1
        return
    if t.kind == KEYWORD and t.text in ("struct", "enum"):
        nt = cur.peek()
        if nt is not None and nt.kind == IDENTIFIER:
            cur.advance()
        if cur.check("{"):
            _collect_balanced(cur, "{", "}")
        return
    if t.kind == KEYWORD and t.text == "function":
        # file-level function: skip header and body
        while not cur.at_end:
            nt = cur.peek()
            assert nt is not None
            if nt.text == "{":
                _collect_balanced(cur, "{", "}")
                return
            if nt.text == ";":
                cur.advance()
                return
            if nt.kind == KEYWORD and nt.text in _CONTRACT_KINDS:
                return
            cur.advance()
        return
    depth = 0
    while not cur.at_end:
        nt = cur.peek()
        assert nt is not None
        if depth == 0 and nt.text == ";":
            cur.advance()
            return
        if depth == 0 and (
            (nt.kind == KEYWORD and (nt.text in _CONTRACT_KINDS or nt.text in ("abstract", "import")))
            or nt.kind == PRAGMA_DIRECTIVE
        ):
            return
        if nt.text in "([{":
            depth += 1
        elif nt.text in ")]}":
            depth = max(0, depth - 1)
        cur.advance()


def parse_file(tokens: list[Token], path: str) -> SourceUnit:
    """Parse a token stream into a source unit.

    Every well-formed top-level contract/interface/library becomes one
    :class:`ContractDef`; a malformed one, or one nested too deep for the
    recursive-descent parser, becomes a diagnostic and parsing resumes at
    the next top-level construct. Duplicate contract names within
    a file keep the first definition and diagnose the rest.
    """
    code = [t for t in tokens if not t.is_comment]
    cur = _Cursor(code)
    pragma: str | None = None
    imports: list[str] = []
    contracts: list[ContractDef] = []
    diagnostics: list[Diagnostic] = []
    seen_names: set[str] = set()
    while not cur.at_end:
        t = cur.peek()
        assert t is not None
        if t.kind == PRAGMA_DIRECTIVE:
            if pragma is None:
                pragma = t.text[len("pragma") :].strip().rstrip(";").strip()
            cur.advance()
            continue
        if t.kind == KEYWORD and t.text == "import":
            cur.advance()
            parts = []
            while not cur.at_end and not cur.check(";"):
                nt = cur.peek()
                assert nt is not None
                if nt.kind == KEYWORD and nt.text in _CONTRACT_KINDS:
                    break
                parts.append(cur.advance().text)
            if cur.check(";"):
                cur.advance()
            imports.append(" ".join(parts))
            continue
        if t.kind == KEYWORD and (t.text in _CONTRACT_KINDS or t.text == "abstract"):
            try:
                contract = _parse_contract(cur)
            except (ParseError, RecursionError) as exc:
                if isinstance(exc, RecursionError):
                    exc = ParseError("nesting too deep", t.start_line)
                diagnostics.append(Diagnostic(path, exc.line, exc.args[0]))
                _recover_to_top_level(cur)
                continue
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
            continue
        _skip_toplevel_item(cur)
    total_lines = max((t.end_line for t in tokens), default=0)
    return SourceUnit(
        path=path,
        pragma=pragma,
        contracts=contracts,
        total_lines=total_lines,
        imports=imports,
        diagnostics=diagnostics,
    )


def parse_source(source: str, path: str = "<string>") -> SourceUnit:
    """Convenience wrapper: tokenize then parse."""
    return parse_file(tokenize(source), path)


@dataclass(frozen=True)
class TokenIndex:
    """Per-file facts that make span queries cost O(contract), not O(file).

    ``code_upto[n]`` and ``comment_upto[n]`` count the lines 1..n touched by
    a code token and by a comment token, so the count over any line span is
    one subtraction. ``code_texts`` lists the code tokens in stream order;
    their ``code_starts`` and ``code_ends`` lines never decrease, so the code
    tokens lying inside a line span are one contiguous slice.
    """

    code_upto: list[int]
    comment_upto: list[int]
    code_texts: list[str]
    code_starts: list[int]
    code_ends: list[int]


def index_tokens(tokens: list[Token]) -> TokenIndex:
    """Build a file's :class:`TokenIndex` in one pass over its tokens."""
    n_lines = tokens[-1].span[2] if tokens else 0
    code = bytearray(n_lines + 1)
    comment = bytearray(n_lines + 1)
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    for t in tokens:
        first, _, last, _ = t.span
        if t.kind in COMMENT_KINDS:
            flags = comment
        else:
            flags = code
            texts.append(t.text)
            starts.append(first)
            ends.append(last)
        for line in range(first, last + 1):
            flags[line] = 1
    return TokenIndex(list(accumulate(code)), list(accumulate(comment)), texts, starts, ends)


def _lines_in(upto: list[int], first: int, last: int) -> int:
    lo, hi = max(first, 1), min(last, len(upto) - 1)
    return upto[hi] - upto[lo - 1] if lo <= hi else 0


def line_accounting(
    source: str, contract: ContractDef, tokens: list[Token], index: TokenIndex | None = None
) -> LineCounts:
    """Source/logical/comment line counts over one contract's span.

    sloc spans the whole contract including blanks; lloc counts lines with
    at least one non-comment token; cloc counts lines touched by a comment
    token. A mixed code+comment line counts toward both lloc and cloc.

    The counts come from the file's :class:`TokenIndex` in O(1); pass the
    index built once per file by :func:`index_tokens`, or omit it to build
    one from ``tokens``. Contracts sharing a line, or a block comment
    crossing a contract boundary, count that line in each span it touches.
    """
    if index is None:
        index = index_tokens(tokens)
    first, last = contract.span
    return LineCounts(
        sloc=last - first + 1,
        lloc=_lines_in(index.code_upto, first, last),
        cloc=_lines_in(index.comment_upto, first, last),
    )
