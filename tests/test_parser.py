from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NESTING_SHAPES, nested_source
from golden_corpus import GOLDEN
from solmetrics.lexer import tokenize
from solmetrics.nodes import FunctionMetrics
from solmetrics.parser import MAX_NESTING, parse_source
from test_function_metrics import fn_metrics

BODYLESS = FunctionMetrics(1, 1, 0, 0, 0, 0, 0)


def test_empty_contract():
    unit = parse_source("contract A {}")
    assert len(unit.contracts) == 1
    c = unit.contracts[0]
    assert (c.name, c.kind) == ("A", "contract")
    assert c.functions == [] and c.state_vars == []


def test_base_names_preserve_order():
    unit = parse_source("contract A is B, C {}")
    assert unit.contracts[0].base_names == ["B", "C"]


def test_base_with_constructor_args():
    unit = parse_source("contract A is B(1, 2), C {}")
    assert unit.contracts[0].base_names == ["B", "C"]


def test_nested_if_structure():
    unit = parse_source("contract A { function f() public { if (true) { x = 1; } } }")
    c = unit.contracts[0]
    assert len(c.functions) == 1
    # the if and the assignment count, the block between them does not
    assert c.functions[0].metrics == FunctionMetrics(2, 2, 1, 1, 0, 2, 0)


def test_parse_recovery_keeps_good_contract():
    unit = parse_source("contract { uint x; }\ncontract B { uint y; }")
    assert [c.name for c in unit.contracts] == ["B"]
    assert len(unit.diagnostics) == 1


def test_duplicate_contract_name_diagnosed():
    unit = parse_source("contract A { uint x; }\ncontract A { uint y; }")
    assert len(unit.contracts) == 1
    assert len(unit.diagnostics) == 1
    assert "duplicate" in unit.diagnostics[0].message


def test_unbalanced_braces_diagnosed():
    unit = parse_source("contract A { function f() public { \n")
    assert unit.contracts == []
    assert len(unit.diagnostics) == 1


@pytest.mark.parametrize("opener", ["{", "if (x) {"])
def test_nesting_too_deep_diagnosed_per_contract(opener):
    body = opener * 600 + "x = 1;" + "}" * 600
    source = (
        f"contract A {{}}\ncontract Deep {{\n  function f(uint x) public {{ {body} }}\n}}\n"
        "contract B { function g() public { } }\n"
    )
    unit = parse_source(source, "deep.sol")
    assert [c.name for c in unit.contracts] == ["A", "B"]
    assert [str(d) for d in unit.diagnostics] == ["deep.sol:2: nesting too deep"]


@pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
def test_nesting_limit_per_shape(shape):
    at_limit = parse_source(nested_source(shape, MAX_NESTING), "deep.sol")
    assert [c.name for c in at_limit.contracts] == ["A", "D", "B"]
    assert at_limit.diagnostics == []
    past = parse_source(nested_source(shape, MAX_NESTING + 1), "deep.sol")
    assert [c.name for c in past.contracts] == ["A", "B"]
    assert [str(d) for d in past.diagnostics] == ["deep.sol:2: nesting too deep"]


@pytest.mark.parametrize(
    "tail,message",
    [
        ("abstract", "unexpected end of file"),
        ("struct S {\n  uint a;", "unbalanced '{'"),
        ("function g() pure {\n  return;", "unbalanced '{'"),
        ("contract B { function (", "unbalanced '('"),
    ],
    ids=["bare-abstract", "unterminated-struct", "unterminated-function", "member-function-at-eof"],
)
def test_malformed_file_level_item_is_a_diagnostic(tail, message):
    unit = parse_source("contract A { uint x; }\n" + tail, "bad.sol")
    assert [c.name for c in unit.contracts] == ["A"]
    assert [str(d) for d in unit.diagnostics] == [f"bad.sol:2: {message}"]


_GOLDEN_TOKENS = [tokenize(source) for source, _ in GOLDEN.values()]
# golden tokens plus every word and bracket that starts or ends a construct
_STRUCTURE = tokenize(
    "abstract contract interface library is struct enum event function modifier import"
    " if else for while do unchecked assembly try catch return emit revert require"
    " break continue { } ( ) [ ] ; , . ="
)
_GOLDEN_VOCABULARY = list({t.text: t for tokens in _GOLDEN_TOKENS for t in tokens}.values())


def _parse_soup(tokens, path):
    # one token per line re-lexes to the same code tokens, so the parser
    # reads exactly the soup's code texts
    text = "\n".join(t.text for t in tokens)
    assert tokenize(text).texts[:-1] == [t.text for t in tokens if not t.is_comment]
    parse_source(text, path)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_STRUCTURE) | st.sampled_from(_GOLDEN_VOCABULARY), max_size=40))
def test_parse_file_never_raises_on_token_soup(tokens):
    _parse_soup(tokens, "soup.sol")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_GOLDEN_TOKENS),
    st.integers(0, 400),
    st.integers(0, 40),
    st.sampled_from(["delete", "duplicate", "truncate"]),
)
def test_parse_file_never_raises_on_golden_mutations(tokens, start, length, op):
    start = min(start, len(tokens))
    piece = tokens[start : start + length]
    rest = tokens[start + length :]
    head = tokens[:start]
    mutated = {"delete": head + rest, "duplicate": head + piece + piece + rest, "truncate": head}[op]
    _parse_soup(mutated, "mutant.sol")


def test_pragma_and_imports_recorded():
    unit = parse_source('pragma solidity ^0.8.0;\nimport "./Other.sol";\ncontract A {}')
    assert unit.pragma == "solidity ^0.8.0"
    assert len(unit.imports) == 1
    assert unit.contracts[0].name == "A"


def test_contract_span_covers_children():
    src = "contract A {\n  uint x;\n  function f() public {\n    x = 1;\n  }\n}"
    unit = parse_source(src)
    c = unit.contracts[0]
    assert c.span == (1, 6)


def test_function_kinds_and_params():
    src = """contract A {
        constructor(uint seed) {}
        fallback() external {}
        receive() external payable {}
        modifier guarded() { _; }
        function act(address to, uint256 amount, Lib.Entry e) public returns (bool ok, Vault) {}
    }"""
    unit = parse_source(src)
    fns = unit.contracts[0].functions
    assert [f.kind for f in fns] == ["constructor", "fallback", "receive", "modifier-def", "function"]
    act = fns[-1]
    assert act.params == ["to", "amount", "e"]
    # elementary types are keywords; a name after '.' is a member, not a contract
    assert unit.contracts[0].type_refs == {"Lib", "Vault"}


def test_unnamed_interface_params():
    unit = parse_source("interface I { function f(uint, address) external; }")
    fn = unit.contracts[0].functions[0]
    assert fn.metrics == BODYLESS
    assert fn.params == ["", ""]


def test_contract_level_declarations():
    src = """contract A {
        uint a;
        mapping(address => uint) balances;
        Token token;
        event Done(uint value);
        struct S { uint x; }
        enum E { One, Two }
        using Lib for uint;
        uint public override fee;
    }"""
    unit = parse_source(src)
    c = unit.contracts[0]
    assert c.state_vars == ["a", "balances", "token", "fee"]
    assert c.events == ["Done"] and c.structs == ["S"] and c.enums == ["E"]
    assert c.declaration_count == 7


# A statement of each kind, and the (mccc, nl, nle, nos) of a function holding it
_STATEMENT_KINDS = [
    ("uint x = 1;", (1, 0, 0, 1)),
    ("x = 2;", (1, 0, 0, 1)),
    ("if (x > 0) { x = 3; } else { x = 4; }", (2, 1, 1, 3)),
    ("for (uint i = 0; i < 3; i++) { continue; }", (2, 1, 0, 2)),
    ("while (x > 0) { break; }", (2, 1, 0, 2)),
    ("do { x--; } while (x > 0);", (2, 1, 0, 2)),
    ("unchecked { x += 1; }", (1, 0, 0, 1)),
    ('require(x == 0, "x");', (1, 0, 0, 1)),
    ("emit Done(x);", (1, 0, 0, 1)),
    ("assembly { let y := 1 }", (1, 0, 0, 1)),
    ("return;", (1, 0, 0, 1)),
    ("{ x = 1; y = 2; }", (1, 0, 0, 2)),
    # recovery shapes, pinned as they score today
    ("assembly;", (1, 0, 0, 1)),
    ("for x;", (1, 0, 0, 1)),
    ("unchecked x = 1;", (1, 0, 0, 1)),
    ("pragma solidity ^0.8.0;", (1, 0, 0, 1)),
    # the ';' a bodiless try or catch leaves behind counts as a statement of its own
    ("try foo(); y = 1;", (1, 0, 0, 3)),
    ("try g() {} catch; y = 1;", (1, 0, 0, 3)),
]


def test_statement_kinds():
    for statement, expected in _STATEMENT_KINDS:
        m = fn_metrics(statement)
        assert (m.mccc, m.nl, m.nle, m.nos) == expected, statement
    # side by side in one body, each still parses as its own statement
    m = fn_metrics(" ".join(statement for statement, _ in _STATEMENT_KINDS))
    decisions = sum(mccc - 1 for _, (mccc, _, _, _) in _STATEMENT_KINDS)
    nos = sum(nos for _, (_, _, _, nos) in _STATEMENT_KINDS)
    assert (m.mccc, m.nl, m.nle, m.nos) == (1 + decisions, 1, 1, nos)


def test_try_catch_swallowed_as_opaque():
    m = fn_metrics("try other.run() returns (uint v) { x = v; } catch { x = 0; } x = 1;")
    # the try is one statement; neither its call nor its clauses count
    assert (m.mccc, m.nos, m.noi) == (1, 2, 0)


def test_condition_ops_counted_in_conditions_only():
    in_condition = fn_metrics("if (a && b || c) { x = 1; }")
    assert in_condition.mccc_strict - in_condition.mccc == 2
    in_assignment = fn_metrics("ok = a && b;")
    assert in_assignment.mccc_strict == in_assignment.mccc == 1


def test_ternary_ops_counted():
    assert fn_metrics("x = a > b ? a : b;").mccc == 2


def test_call_sites_and_guards():
    # the guard is not an invocation, a call nested in its arguments is
    assert fn_metrics('require(check(x), "m");').noi == 1
    assert fn_metrics("assert(ok);").noi == 0
    # a dotted path is one invocation
    assert fn_metrics("token.transfer(to, 1);").noi == 1
    # `new X(...)` is an invocation, and X is a name the contract refers to
    assert fn_metrics("y = new Vault(x);").noi == 1
    src = "contract A { function f() public { y = new Vault(x); } }"
    assert parse_source(src).contracts[0].type_refs == {"Vault"}


def test_cast_is_not_a_call():
    assert fn_metrics("x = uint(y) + address(this).balance;").noi == 0


def test_call_options_braces():
    assert fn_metrics('target.call{value: 1}("");').noi == 1


def test_revert_without_parens():
    m = fn_metrics("revert;")
    assert (m.nos, m.noi) == (1, 0)


def test_revert_custom_error():
    # the error name is no invocation
    m = fn_metrics("revert NotAllowed(msg.sender);")
    assert (m.nos, m.noi) == (1, 0)


def test_emit_event_name_not_an_invocation():
    assert fn_metrics("emit Done(compute(x));").noi == 1


def test_loop_header_invocations():
    assert fn_metrics("for (uint i = start(); i < size(); i = next(i)) {}").noi == 3
    assert fn_metrics("do { x = 1; } while (more(x));").noi == 1
    assert fn_metrics("while (ready()) {}").noi == 1


def test_file_level_items_skipped():
    src = """pragma solidity ^0.8.0;
uint constant FEE = 3;
struct Shared { uint a; }
function helper(uint x) pure returns (uint) { return x; }
contract A { uint y; }
"""
    unit = parse_source(src)
    assert [c.name for c in unit.contracts] == ["A"]
    assert not unit.diagnostics
    # a function header that runs into a contract ends there
    unit = parse_source("function broken(uint x)\ncontract B { uint z; }\n")
    assert [(c.name, c.state_vars) for c in unit.contracts] == [("B", ["z"])]
    assert not unit.diagnostics


def test_old_style_unnamed_fallback_function():
    unit = parse_source("contract A { function () public payable {} }")
    fn = unit.contracts[0].functions[0]
    assert fn.kind == "function" and fn.name is None


def test_function_typed_state_variable():
    src = """contract A {
        function(uint) internal pure returns (uint) hook;
        function(uint) internal view returns (bool) checker = defaultChecker;
        function run() public { hook = double; }
    }"""
    unit = parse_source(src)
    c = unit.contracts[0]
    assert c.state_vars == ["hook", "checker"]
    assert [f.name for f in c.functions] == ["run"]


def test_abstract_contract_header():
    unit = parse_source("abstract contract A is B { function f() public virtual; }")
    c = unit.contracts[0]
    assert c.name == "A" and c.base_names == ["B"]
    assert c.functions[0].metrics == BODYLESS


@pytest.mark.parametrize("header", [
    "contract C layout at 0x1234",
    "contract C is B(1) layout at 0x40 + 2**8",
    "contract C layout at uint256(keccak256(\"C\")) - 1 is B(1)",
])
def test_storage_layout_specifier_is_skipped(header):
    unit = parse_source(header + " { uint x; }")
    assert unit.diagnostics == []
    c = unit.contracts[0]
    assert (c.name, c.state_vars) == ("C", ["x"])
    assert c.type_refs == set(c.base_names)


def test_units_compare_and_print_without_their_line_index():
    source = GOLDEN["inheritance_chain_depth_3"][0] + "\n// tail comment\n"
    unit = parse_source(source, "a.sol")
    assert unit == parse_source(source, "a.sol")
    assert " lines=" not in repr(unit) and "TokenStream" not in repr(unit)
