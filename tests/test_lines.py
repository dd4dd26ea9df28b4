from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from solmetrics.lexer import tokenize
from solmetrics.nodes import LineCounts
from solmetrics.parser import line_accounting, normalized_contract_text, parse_file, parse_source


def counts(source: str, index: int = 0):
    unit = parse_source(source, "x.sol")
    return line_accounting(unit, unit.contracts[index])


def test_one_line_contract():
    c = counts("contract A {}")
    assert (c.sloc, c.lloc, c.cloc) == (1, 1, 0)


def test_blank_and_comment_lines():
    c = counts("contract A {\n\n  // note\n  uint x;\n}")
    assert (c.sloc, c.lloc, c.cloc) == (5, 3, 1)


def test_mixed_line_counts_in_both():
    c = counts("contract A {\n  uint x; // inline\n}")
    assert (c.sloc, c.lloc, c.cloc) == (3, 3, 1)


def test_multiline_block_comment():
    c = counts("contract A {\n/* a\n   b\n   c */\nuint x;\n}")
    assert (c.sloc, c.lloc, c.cloc) == (6, 3, 3)


def test_per_contract_spans():
    src = "contract A {\n  uint x;\n}\n// between\ncontract B {}"
    a = counts(src, 0)
    b = counts(src, 1)
    assert (a.sloc, a.lloc, a.cloc) == (3, 3, 0)
    assert (b.sloc, b.lloc, b.cloc) == (1, 1, 0)


BASE = "contract A {\n  uint x;\n  function f() public {\n    x = 1;\n  }\n}"


@pytest.mark.parametrize("at_line", [2, 3, 4])
def test_inserting_blank_line_changes_only_sloc(at_line):
    lines = BASE.split("\n")
    modified = "\n".join(lines[:at_line] + [""] + lines[at_line:])
    before = counts(BASE)
    after = counts(modified)
    assert after.sloc == before.sloc + 1
    assert after.lloc == before.lloc
    assert after.cloc == before.cloc


@pytest.mark.parametrize("at_line", [2, 3, 4])
def test_inserting_comment_line_changes_sloc_and_cloc(at_line):
    lines = BASE.split("\n")
    modified = "\n".join(lines[:at_line] + ["  // inserted"] + lines[at_line:])
    before = counts(BASE)
    after = counts(modified)
    assert after.sloc == before.sloc + 1
    assert after.cloc == before.cloc + 1
    assert after.lloc == before.lloc


def test_invariant_lloc_cloc_cover_content_lines():
    src = "contract A {\n  uint x; // inline\n  // only\n\n  uint y;\n}"
    c = counts(src)
    assert c.lloc <= c.sloc and c.cloc <= c.sloc
    # lines with any content: 1, 2, 3, 5, 6
    assert c.lloc + c.cloc >= 5


def test_two_contracts_on_one_line():
    src = "contract A { uint x; } contract B {}"
    a, b = counts(src, 0), counts(src, 1)
    assert (a.sloc, a.lloc, a.cloc) == (1, 1, 0)
    assert (b.sloc, b.lloc, b.cloc) == (1, 1, 0)


def test_block_comment_crossing_a_contract_boundary():
    src = "contract A {\n  uint x;\n} /* spans\n   into */ contract B {\n}"
    a, b = counts(src, 0), counts(src, 1)
    # the comment touches A's last line and B's first line
    assert (a.sloc, a.lloc, a.cloc) == (3, 3, 1)
    assert (b.sloc, b.lloc, b.cloc) == (2, 2, 1)


# ---------------------------------------------------------------------------
# the per-file index against a naive rescan of the whole token list


def naive_line_accounting(contract, tokens):
    first, last = contract.span
    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    for t in tokens:
        lo = max(t.start_line, first)
        hi = min(t.end_line, last)
        if lo > hi:
            continue
        target = comment_lines if t.is_comment else code_lines
        target.update(range(lo, hi + 1))
    return LineCounts(sloc=last - first + 1, lloc=len(code_lines), cloc=len(comment_lines))


def naive_normalized_text(tokens, contract):
    first, last = contract.span
    return " ".join(
        t.text
        for t in tokens
        if not t.is_comment and first <= t.start_line and t.end_line <= last
    )


_CONTRACTS = [
    "contract {n} {{}}",
    "contract {n} {{ uint x; }}",
    "contract {n} {{\n  uint x; // inline\n\n"
    "  function f() public {{\n    x = 1; /* c */\n  }}\n}}",
    "library {n} {{\n  /* doc\n     more\n     lines */\n"
    "  function g() internal pure returns (uint) {{ return 1; }}\n}}",
    "interface {n} {{ function h() external; }}",
    "abstract contract {n} is Base {{\n\n  // only a comment\n}}",
]

_TOP_LEVEL = [
    "pragma solidity ^0.8.0;",
    'import "./Other.sol";',
    "// between contracts",
    "/* block\n   between\n   three lines */",
]

# what goes between two pieces: same line, line breaks, blank and
# comment-only lines, and block comments that straddle the boundary
_SEPARATORS = [
    " ",
    "\n",
    "\n\n",
    "\n   \n",
    "\n// note\n",
    " /* a\n b */ ",
    " /* a\n\n c */ ",
    "\n/* c */\n",
    " // tail\n",
]


@st.composite
def _multi_contract_source(draw):
    pieces = draw(st.lists(st.sampled_from(_CONTRACTS + _TOP_LEVEL), min_size=1, max_size=8))
    parts = []
    for i, template in enumerate(pieces):
        if i:
            parts.append(draw(st.sampled_from(_SEPARATORS)))
        parts.append(template.format(n=f"C{i}"))
    return "".join(parts) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(_multi_contract_source())
def test_index_matches_naive_rescan(source):
    tokens = tokenize(source)
    unit = parse_file(tokens, "x.sol")
    assert not unit.diagnostics
    for contract in unit.contracts:
        assert line_accounting(unit, contract) == naive_line_accounting(contract, tokens)
        assert normalized_contract_text(unit, contract) == naive_normalized_text(tokens, contract)
