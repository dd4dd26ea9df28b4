from __future__ import annotations

import pytest

from conftest import metrics_for
from golden_corpus import GOLDEN, NAMED_TYPE_GOLDEN
from solmetrics.metrics import DISPLAY_NAMES, METRIC_NAMES
from solmetrics.parser import parse_source


def test_empty_contract_vector_is_zero_except_lines():
    m = metrics_for("contract A {}")["A"]
    assert (m.sloc, m.lloc) == (1, 1)
    for name in METRIC_NAMES:
        if name in ("sloc", "lloc"):
            continue
        assert getattr(m, name) == 0



def test_display_names_follow_the_metric_fields():
    assert tuple(DISPLAY_NAMES) == METRIC_NAMES


def test_nine_line_spec_contract():
    src = (
        "contract A {\n"
        "uint x;\n"
        "function f(uint a, uint b)\n"
        "public returns (uint) {\n"
        "if (a > b) {\n"
        "return a; }\n"
        "return b;\n"
        "}\n"
        "}"
    )
    m = metrics_for(src)["A"]
    assert m.sloc == 9 and m.lloc == 9 and m.cloc == 0
    assert (m.nf, m.wmc, m.nl, m.nle, m.numpar, m.nos) == (1, 2, 1, 1, 2, 4)
    assert (m.dit, m.noa, m.nod, m.cbo, m.na, m.noi) == (0, 0, 0, 0, 1, 0)
    assert (m.avg_mccc, m.avg_nl, m.avg_nle) == (2.0, 1.0, 1.0)
    assert (m.avg_numpar, m.avg_nos, m.avg_noi) == (2.0, 3.0, 0.0)


def test_sibling_inheritance_and_fanout():
    src = "contract B {} contract A is B { function g() public { h(); h(); } }"
    vectors = metrics_for(src)
    a, b = vectors["A"], vectors["B"]
    assert (a.nf, a.noi, a.cbo, a.dit, a.noa) == (1, 2, 1, 1, 1)
    assert b.nod == 1


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(NAMED_TYPE_GOLDEN))
def test_golden_corpus(name):
    source, expected = {**GOLDEN, **NAMED_TYPE_GOLDEN}[name]
    vectors = metrics_for(source)
    assert set(vectors) == set(expected)
    for contract_name, want in expected.items():
        got = vectors[contract_name].as_row()
        assert got[:15] == want[:15], f"{name}/{contract_name} integer metrics"
        for metric, g, w in zip(METRIC_NAMES[15:], got[15:], want[15:]):
            assert g == pytest.approx(w, abs=1e-12), f"{name}/{contract_name}/{metric}"


def test_average_consistency_invariant():
    for name, (source, _) in GOLDEN.items():
        for m in metrics_for(source).values():
            if m.nf == 0:
                for avg in (m.avg_mccc, m.avg_nl, m.avg_nle, m.avg_numpar, m.avg_nos, m.avg_noi):
                    assert avg == 0.0
            else:
                assert abs(m.avg_nl * m.nf - m.nl) <= 1e-9
                assert abs(m.avg_nle * m.nf - m.nle) <= 1e-9
                assert abs(m.avg_numpar * m.nf - m.numpar) <= 1e-9
                assert abs(m.avg_noi * m.nf - m.noi) <= 1e-9


def test_vector_invariants_hold_on_golden():
    for name, (source, _) in GOLDEN.items():
        for m in metrics_for(source).values():
            assert m.lloc <= m.sloc and m.cloc <= m.sloc
            assert m.nl >= m.nle
            if m.nf > 0:
                assert m.wmc >= m.nf
            for value in m.as_row():
                assert value >= 0


def test_alpha_renaming_leaves_metrics_unchanged():
    src = """contract Renamed {
        uint counter;
        function lift(uint amount) public returns (uint) {
            if (amount > counter) { counter = amount; }
            return counter;
        }
    }"""
    renamed = (
        src.replace("counter", "zz_state")
        .replace("amount", "qq_input")
        .replace("lift", "raise_it")
        .replace("Renamed", "Other")
    )
    m1 = next(iter(metrics_for(src).values()))
    m2 = next(iter(metrics_for(renamed).values()))
    assert m1.as_row() == m2.as_row()


def test_duplicating_function_doubles_contribution():
    base = "contract T { function f(uint a) public { if (a > 1) { g(); } } }"
    doubled = (
        "contract T { function f(uint a) public { if (a > 1) { g(); } }"
        " function f2(uint a) public { if (a > 1) { g(); } } }"
    )
    m1 = metrics_for(base)["T"]
    m2 = metrics_for(doubled)["T"]
    assert m2.nf == m1.nf + 1
    for name in ("wmc", "nl", "nle", "numpar", "nos", "noi"):
        assert getattr(m2, name) == 2 * getattr(m1, name)
    assert abs(m2.avg_numpar * m2.nf - m2.numpar) <= 1e-9


def test_modifier_definitions_excluded_from_nf_and_sums():
    src = """contract T {
        modifier only() { require(ok); _; }
        function f() public { x = 1; }
    }"""
    m = metrics_for(src)["T"]
    assert m.nf == 1
    assert m.nos == 1
    assert m.wmc == 1


def test_cbo_counts_distinct_names_once():
    src = """contract T {
        Token a;
        Token b;
        function f(Token c) public returns (Vault) {
            Oracle o = new Oracle();
        }
    }"""
    m = metrics_for(src)["T"]
    assert m.cbo == 3  # Token, Vault, Oracle


def test_cbo_counts_identifier_tokens_of_types():
    src = """contract T is Base, Lib.Parent(1) {
        Lib.Entry Store;
        mapping(address => Lib.Entry) entries;
        uint256 public override(A, B) Total;
        T self;
        function f(Lib.Entry Item) public returns (uint Count) { Vault v = new Vault(); }
    }
    contract C { uint[" Foo "] x; mapping(bool => uint[true ? 1 : 2]) y; }"""
    unit = parse_source(src)
    # declared names, override(...) lists and members after '.' are not refs
    assert unit.contracts[0].type_refs == {"Base", "Lib", "T", "Vault"}
    m = metrics_for(src)
    assert m["T"].cbo == 3  # Base, Lib, Vault; not the contract itself
    # words inside a literal and `true` are not names
    assert m["C"].cbo == 0
