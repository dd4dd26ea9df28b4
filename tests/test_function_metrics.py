from __future__ import annotations

from hypothesis import given, strategies as st

from solmetrics.metrics import function_metrics
from solmetrics.nodes import BLOCK, EXPRESSION, IF, FunctionDef, Statement
from solmetrics.parser import parse_source


def fn_metrics(body: str, params: str = ""):
    src = f"contract T {{ function f({params}) public {{ {body} }} }}"
    unit = parse_source(src)
    return function_metrics(unit.contracts[0].functions[0])


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
    m = function_metrics(unit.contracts[0].functions[0])
    assert m == type(m)(1, 1, 0, 0, 0, 0, 0)


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


def test_deep_if_chain_does_not_recurse():
    # built by hand: the parser stops at MAX_NESTING long before this depth
    stmt = Statement(EXPRESSION)
    for _ in range(5000):
        stmt = Statement(IF, [stmt])
    m = function_metrics(FunctionDef("f", "function", [], Statement(BLOCK, [stmt])))
    assert (m.mccc, m.nl, m.nle, m.nos) == (5001, 5000, 5000, 5001)


_simple = st.sampled_from(["x = 1;", "total += 2;", "return;", "emit Done(x);", "f(x);"])


@st.composite
def _statements(draw, depth=0):
    if depth >= 2:
        return draw(_simple)
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind <= 2:
        return draw(_simple)
    inner = draw(_statements(depth=depth + 1))
    if kind == 3:
        return f"if (a > {depth}) {{ {inner} }}"
    if kind == 4:
        return f"while (b < {depth}) {{ {inner} }}"
    return f"for (uint i = 0; i < 3; i++) {{ {inner} }}"


@given(st.lists(_statements(), min_size=1, max_size=4))
def test_wrapping_in_if_adds_one_decision_and_statement(stmts):
    body = " ".join(stmts)
    base = fn_metrics(body)
    wrapped = fn_metrics(f"if (cond) {{ {body} }}")
    assert wrapped.mccc == base.mccc + 1
    assert wrapped.nos == base.nos + 1
    assert wrapped.nl >= base.nl
    assert wrapped.nle >= base.nle


@given(st.lists(_statements(), min_size=1, max_size=3))
def test_duplicating_a_function_is_additive(stmts):
    body = " ".join(stmts)
    one = parse_source(f"contract T {{ function f() public {{ {body} }} }}")
    two = parse_source(
        f"contract T {{ function f() public {{ {body} }} function g() public {{ {body} }} }}"
    )
    m1 = function_metrics(one.contracts[0].functions[0])
    m_f, m_g = (function_metrics(f) for f in two.contracts[0].functions)
    assert m_f == m1 and m_g == m1
