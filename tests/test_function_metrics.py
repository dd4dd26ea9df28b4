from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import NESTING_SHAPES, nested_source
from solmetrics.nodes import FunctionMetrics
from solmetrics.parser import MAX_NESTING, parse_source


def fn_metrics(body: str, params: str = "") -> FunctionMetrics:
    src = f"contract T {{ function f({params}) public {{ {body} }} }}"
    unit = parse_source(src)
    return unit.contracts[0].functions[0].metrics


def test_empty_body():
    m = fn_metrics("")
    assert (m.mccc, m.nl, m.nle, m.nos, m.noi) == (1, 0, 0, 0, 0)


def test_single_if_with_returns():
    m = fn_metrics("if (a > b) { return a; } return b;", "uint a, uint b")
    assert (m.mccc, m.nl, m.nle, m.numpar, m.nos, m.noi) == (2, 1, 1, 2, 3, 0)


def test_logical_and_adds_to_strict_only():
    m = fn_metrics("if (a && b) { f(); }")
    assert (m.mccc, m.mccc_strict, m.noi) == (2, 3, 1)


def test_bodyless_declaration():
    unit = parse_source("interface I { function f(uint a, uint b) external; }")
    fn = unit.contracts[0].functions[0]
    assert fn.params == ["a", "b"]
    # a declaration counts no parameter toward NUMPAR
    assert fn.metrics == FunctionMetrics(1, 1, 0, 0, 0, 0, 0)


def test_else_if_chain_depth_stays_flat():
    m = fn_metrics(
        "if (a == 1) { return 1; } else if (a == 2) { return 2; } else { return 3; }",
        "uint a",
    )
    assert (m.mccc, m.nl, m.nle, m.nos) == (3, 1, 1, 5)


def test_else_block_with_inner_if_adds_depth():
    m = fn_metrics("if (a == 1) { return 1; } else { if (a == 2) { return 2; } }", "uint a")
    assert (m.nl, m.nle) == (2, 2)


def test_loops_count_for_nl_not_nle():
    m = fn_metrics("for (uint i = 0; i < 9; i++) { if (i > 2) { s += i; } }")
    assert (m.mccc, m.nl, m.nle) == (3, 2, 1)


def test_do_while_nesting():
    m = fn_metrics("do { while (x > 0) { x--; } } while (go);")
    assert (m.mccc, m.nl, m.nle, m.nos) == (3, 2, 0, 3)


def test_ternary_counts_toward_mccc():
    m = fn_metrics("return a > b ? a : b;", "uint a, uint b")
    assert (m.mccc, m.mccc_strict) == (2, 2)


def test_guards_excluded_from_noi():
    m = fn_metrics('require(balanceOf(msg.sender) > 0, "empty"); assert(x > 0);')
    # the nested balanceOf call still counts
    assert m.noi == 1
    assert m.nos == 2


def test_unchecked_wrapper_not_counted():
    plain = fn_metrics("x += 1;")
    wrapped = fn_metrics("unchecked { x += 1; }")
    assert wrapped.nos == plain.nos
    assert wrapped.mccc == plain.mccc


def test_opaque_statement_counts_one():
    m = fn_metrics("assembly { let y := add(1, 2) }")
    assert m.nos == 1
    assert m.noi == 0  # no call extraction inside opaque regions


def test_condition_calls_count():
    m = fn_metrics("if (oracle.ready()) { x = 1; }")
    assert m.noi == 1


# Per repetition of each conftest.NESTING_SHAPES opener: the NL and NLE
# levels, decisions and counted statements it adds.
_PER_OPENER = {
    "block": (0, 0, 0, 0),
    "if-block": (1, 1, 1, 1),
    "if": (1, 1, 1, 1),
    "else-if": (0, 0, 1, 2),  # the if and its `y;`; an else-if keeps the first if's depth
    "for": (1, 0, 1, 1),
    "while": (1, 0, 1, 1),
    "do-while": (1, 0, 1, 1),
    "unchecked": (0, 0, 0, 0),
}


@pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
def test_metrics_at_the_nesting_limit(shape):
    unit = parse_source(nested_source(shape, MAX_NESTING))
    fn = unit.contracts[1].functions[0]
    # the openers, then bare blocks for the levels left over, then `x = 1;`
    openers = (MAX_NESTING - 1) // NESTING_SHAPES[shape][2]
    nl, nle, decisions, nos = (k * openers for k in _PER_OPENER[shape])
    if shape == "else-if":
        nl = nle = 1
    mccc = 1 + decisions
    assert fn.metrics == FunctionMetrics(mccc, mccc, nl, nle, 1, nos + 1, 0)


# The oracle below gives each generated statement the metrics of a function
# whose body holds only that statement, (mccc, mccc_strict, nl, nle, nos, noi),
# worked out from how the statement was built, never from the parser.

# (source, decisions, invocations)
_LEAVES = [
    ("x = 1;", 0, 0),
    ("total += 2;", 0, 0),
    ("return;", 0, 0),
    ("break;", 0, 0),
    ("emit Done(x);", 0, 0),
    ("emit Done(f(x));", 0, 1),
    ("f(x);", 0, 1),
    ("token.transfer(to, 1);", 0, 1),
    ("ok = a && b;", 0, 0),  # a logical operator outside a condition
    ("x = a > b ? a : b;", 1, 0),
    ("return c ? f() : g();", 1, 2),
    ('require(ok(x), "m");', 0, 1),  # the guard is no invocation, its argument is
    ("assert(x > 0);", 0, 0),
    ("revert Failed(x);", 0, 0),
    ("assembly { let y := add(1, 2) }", 0, 0),
]

# (condition, logical operators, ternaries, invocations)
_CONDITIONS = [
    ("a > 0", 0, 0, 0),
    ("a && b", 1, 0, 0),
    ("a || b && c", 2, 0, 0),
    ("ready()", 0, 0, 1),
    ("(c ? a : b) > 0", 0, 1, 0),
]

# (for header, logical operators of its condition, ternaries, invocations)
_FOR_HEADERS = [
    ("uint i = 0; i < 3; i++", 0, 0, 0),
    ("bool ok = a && b; i < 3; i++", 0, 0, 0),  # the init clause is no condition
    ("uint i = 0; i < 3 && ok; i++", 1, 0, 0),
    ("uint i = start(); i < size(); i = next(i)", 0, 0, 3),
    ("uint i = c ? 1 : 2; i < 3; i++", 0, 1, 0),
    (";;", 0, 0, 0),
]


def _side_by_side(*expected):
    """The metrics of a body holding statements with these metrics in a row."""
    return (
        1 + sum(e[0] - 1 for e in expected),
        1 + sum(e[1] - 1 for e in expected),
        max((e[2] for e in expected), default=0),
        max((e[3] for e in expected), default=0),
        sum(e[4] for e in expected),
        sum(e[5] for e in expected),
    )


def _deeper(e, nle):
    """A body's metrics moved one NL level deeper, and ``nle`` NLE levels."""
    return (e[0], e[1], e[2] + 1, e[3] + nle, e[4], e[5])


def _counted(body, decisions, logical, invocations):
    """Add one statement with these counts to a body's metrics."""
    mccc, strict, nl, nle, nos, noi = body
    return (mccc + decisions, strict + decisions + logical, nl, nle, nos + 1, noi + invocations)


@st.composite
def _block(draw, depth, braced):
    """A compound statement's body: one statement, bare unless ``braced``,
    or a braced list."""
    items = draw(st.lists(_statements(depth), min_size=1, max_size=2))
    if len(items) == 1 and not braced and draw(st.booleans()):
        return items[0]
    return "{ " + " ".join(src for src, _ in items) + " }", _side_by_side(*(e for _, e in items))


@st.composite
def _if_statement(draw, depth):
    cond, logical, ternaries, invocations = draw(st.sampled_from(_CONDITIONS))
    branch = draw(st.sampled_from(["none", "else", "else-if"]))
    # a then-branch followed by `else` is braced, so the else cannot bind to an inner if
    then_src, then_e = draw(_block(depth + 1, braced=branch != "none"))
    branches = [_deeper(then_e, 1)]
    src = f"if ({cond}) {then_src}"
    if branch == "else":
        else_src, else_e = draw(_block(depth + 1, braced=False))
        # a bare `if` drawn here makes an else-if too
        branches.append(else_e if else_src.startswith("if ") else _deeper(else_e, 1))
        src += f" else {else_src}"
    elif branch == "else-if":
        else_src, else_e = draw(_if_statement(depth + 1))
        branches.append(else_e)  # an else-if keeps its parent's depth
        src += f" else {else_src}"
    return src, _counted(_side_by_side(*branches), 1 + ternaries, logical, invocations)


@st.composite
def _statements(draw, depth=0):
    """One statement's source and the metrics of a function holding only it."""
    kinds = ["leaf"] * 3
    if depth < 3:
        kinds += ["if", "while", "for", "do-while", "unchecked", "block"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        src, decisions, invocations = draw(st.sampled_from(_LEAVES))
        return src, (1 + decisions, 1 + decisions, 0, 0, 1, invocations)
    if kind == "if":
        return draw(_if_statement(depth))
    if kind in ("unchecked", "block"):
        body_src, body_e = draw(_block(depth + 1, braced=True))
        # a block or unchecked wrapper counts as no statement and nests no deeper
        return ("unchecked " if kind == "unchecked" else "") + body_src, body_e
    body_src, body_e = draw(_block(depth + 1, braced=False))
    loop_body = _deeper(body_e, 0)
    if kind == "for":
        header, logical, ternaries, invocations = draw(st.sampled_from(_FOR_HEADERS))
        src = f"for ({header}) {body_src}"
    else:
        cond, logical, ternaries, invocations = draw(st.sampled_from(_CONDITIONS))
        if kind == "while":
            src = f"while ({cond}) {body_src}"
        else:
            src = f"do {body_src} while ({cond});"
    return src, _counted(loop_body, 1 + ternaries, logical, invocations)


@given(st.lists(_statements(), max_size=4))
def test_function_metrics_match_the_oracle(stmts):
    m = fn_metrics(" ".join(src for src, _ in stmts))
    expected = _side_by_side(*(e for _, e in stmts))
    assert (m.mccc, m.mccc_strict, m.nl, m.nle, m.nos, m.noi) == expected


@given(st.lists(_statements(), min_size=1, max_size=4))
def test_wrapping_in_if_adds_one_decision_and_statement(stmts):
    body = " ".join(src for src, _ in stmts)
    base = fn_metrics(body)
    wrapped = fn_metrics(f"if (cond) {{ {body} }}")
    assert wrapped.mccc == base.mccc + 1
    assert wrapped.nos == base.nos + 1
    assert (wrapped.nl, wrapped.nle) == (base.nl + 1, base.nle + 1)


@given(st.lists(_statements(), min_size=1, max_size=3))
def test_duplicating_a_function_is_additive(stmts):
    body = " ".join(src for src, _ in stmts)
    one = parse_source(f"contract T {{ function f() public {{ {body} }} }}")
    two = parse_source(
        f"contract T {{ function f() public {{ {body} }} function g() public {{ {body} }} }}"
    )
    m1 = one.contracts[0].functions[0].metrics
    m_f, m_g = (f.metrics for f in two.contracts[0].functions)
    assert m_f == m1 and m_g == m1
