from __future__ import annotations

import pytest

from solmetrics.lexer import tokenize
from solmetrics.nodes import (
    ASSEMBLY_OPAQUE,
    BLOCK,
    DO_WHILE,
    EMIT,
    EXPRESSION,
    IF,
    REQUIRE_LIKE,
    RETURN,
    UNCHECKED_BLOCK,
    VARIABLE_DECLARATION,
)
from solmetrics.parser import parse_file, parse_source


def statements_of(source: str, fn_index: int = 0):
    unit = parse_source(source)
    return unit.contracts[0].functions[fn_index].body.children


def flatten(stmts):
    out = []
    stack = list(stmts)
    while stack:
        s = stack.pop(0)
        out.append(s)
        stack = list(s.children) + stack
    return out


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
    body = c.functions[0].body
    assert [s.kind for s in body.children] == [IF]
    if_stmt = body.children[0]
    assert [s.kind for s in if_stmt.children] == [BLOCK]
    assert [s.kind for s in if_stmt.children[0].children] == [EXPRESSION]


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
    assert [str(d) for d in unit.diagnostics] == ["deep.sol:2: line 2: nesting too deep"]


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
    for child_span in [c.state_vars[0].span, c.functions[0].span]:
        assert c.span[0] <= child_span[0] and child_span[1] <= c.span[1]


def test_function_kinds_and_params():
    src = """contract A {
        constructor(uint seed) {}
        fallback() external {}
        receive() external payable {}
        modifier guarded() { _; }
        function act(address to, uint256 amount) public returns (bool ok) {}
    }"""
    unit = parse_source(src)
    fns = unit.contracts[0].functions
    assert [f.kind for f in fns] == ["constructor", "fallback", "receive", "modifier-def", "function"]
    act = fns[-1]
    assert [p.name for p in act.params] == ["to", "amount"]
    assert [p.type_text for p in act.params] == ["address", "uint256"]
    assert act.return_types == ["bool"]


def test_unnamed_interface_params():
    unit = parse_source("interface I { function f(uint, address) external; }")
    fn = unit.contracts[0].functions[0]
    assert fn.body is None
    assert [p.name for p in fn.params] == ["", ""]


def test_contract_level_declarations():
    src = """contract A {
        uint a;
        mapping(address => uint) balances;
        Token token;
        event Done(uint value);
        struct S { uint x; }
        enum E { One, Two }
        using Lib for uint;
    }"""
    unit = parse_source(src)
    c = unit.contracts[0]
    assert [v.name for v in c.state_vars] == ["a", "balances", "token"]
    assert c.events == ["Done"] and c.structs == ["S"] and c.enums == ["E"]
    assert c.declaration_count == 6


def test_statement_kinds():
    src = """contract A { function f() public {
        uint x = 1;
        x = 2;
        if (x > 0) { x = 3; } else { x = 4; }
        for (uint i = 0; i < 3; i++) { continue; }
        while (x > 0) { break; }
        do { x--; } while (x > 0);
        unchecked { x += 1; }
        require(x == 0, "x");
        emit Done(x);
        assembly { let y := 1 }
        return;
    } }"""
    kinds = [s.kind for s in statements_of(src)]
    assert kinds == [
        VARIABLE_DECLARATION,
        EXPRESSION,
        IF,
        "for",
        "while",
        DO_WHILE,
        UNCHECKED_BLOCK,
        REQUIRE_LIKE,
        EMIT,
        ASSEMBLY_OPAQUE,
        RETURN,
    ]


def test_try_catch_swallowed_as_opaque():
    src = """contract A { function f() public {
        try other.run() returns (uint v) { x = v; } catch { x = 0; }
        x = 1;
    } }"""
    kinds = [s.kind for s in statements_of(src)]
    assert kinds == [ASSEMBLY_OPAQUE, EXPRESSION]


def test_condition_ops_counted_in_conditions_only():
    src = """contract A { function f() public {
        if (a && b || c) { x = 1; }
        ok = a && b;
    } }"""
    stmts = statements_of(src)
    assert stmts[0].condition_ops == 2
    assert stmts[1].condition_ops == 0


def test_ternary_ops_counted():
    src = "contract A { function f() public { x = a > b ? a : b; } }"
    assert statements_of(src)[0].ternary_ops == 1


def test_call_sites_and_guards():
    src = """contract A { function f() public {
        require(check(x), "m");
        token.transfer(to, 1);
        y = new Vault(x);
    } }"""
    stmts = statements_of(src)
    req = stmts[0]
    assert [(c.callee_text, c.is_builtin_guard) for c in req.calls] == [
        ("require", True),
        ("check", False),
    ]
    assert stmts[1].calls[0].callee_text == "token.transfer"
    new_call = stmts[2].calls[0]
    assert new_call.callee_text == "Vault" and new_call.is_new_expression


def test_cast_is_not_a_call():
    src = "contract A { function f() public { x = uint(y) + address(this).balance; } }"
    assert statements_of(src)[0].calls == []


def test_call_options_braces():
    src = 'contract A { function f() public { target.call{value: 1}(""); } }'
    stmts = statements_of(src)
    assert [c.callee_text for c in stmts[0].calls] == ["target.call"]


def test_revert_without_parens():
    src = "contract A { function f() public { revert; } }"
    assert [s.kind for s in statements_of(src)] == [REQUIRE_LIKE]


def test_revert_custom_error():
    src = "contract A { function f() public { revert NotAllowed(msg.sender); } }"
    stmts = statements_of(src)
    assert stmts[0].kind == REQUIRE_LIKE
    assert [c.callee_text for c in stmts[0].calls] == ["revert"]


def test_emit_event_name_not_an_invocation():
    src = "contract A { function f() public { emit Done(compute(x)); } }"
    stmts = statements_of(src)
    assert [c.callee_text for c in stmts[0].calls] == ["compute"]


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
    assert [v.name for v in c.state_vars] == ["hook", "checker"]
    assert [f.name for f in c.functions] == ["run"]


def test_abstract_contract_header():
    unit = parse_source("abstract contract A is B { function f() public virtual; }")
    c = unit.contracts[0]
    assert c.name == "A" and c.base_names == ["B"]
    assert c.functions[0].body is None


def test_total_lines_from_tokens():
    tokens = tokenize("contract A {}\n\n// tail\n")
    unit = parse_file(tokens, "a.sol")
    assert unit.total_lines == 3
