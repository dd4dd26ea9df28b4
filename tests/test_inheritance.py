from __future__ import annotations

import pytest

from solmetrics.errors import CorpusError
from solmetrics.inheritance import build_inheritance_graph
from solmetrics.parser import parse_source


def graph_of(*sources):
    units = [parse_source(src, f"f{i}.sol") for i, src in enumerate(sources)]
    return build_inheritance_graph(units)


def test_single_contract_no_edges():
    g = graph_of("contract A {}")
    assert g.nodes == {("f0.sol", "A")}
    assert g.edges == set() and g.unresolved_bases == set()


def test_simple_edge_and_tree_metrics():
    g = graph_of("contract B {} contract A is B {}")
    a, b = ("f0.sol", "A"), ("f0.sol", "B")
    assert g.edges == {(a, b)}
    assert g.dit(a) == 1 and g.noa(a) == 1 and g.nod(b) == 1
    assert g.dit(b) == 0 and g.nod(a) == 0


def test_unknown_base_unresolved():
    g = graph_of("contract A is Unknown {}")
    a = ("f0.sol", "A")
    assert g.unresolved_bases == {(a, "Unknown")}
    assert g.dit(a) == 1 and g.noa(a) == 1


def test_cross_file_unique_name_resolves():
    g = graph_of("contract Base {}", "contract A is Base {}")
    assert (("f1.sol", "A"), ("f0.sol", "Base")) in g.edges


def test_same_file_shadows_other_files():
    g = graph_of("contract Base {}", "contract Base {} contract A is Base {}")
    assert (("f1.sol", "A"), ("f1.sol", "Base")) in g.edges


def test_ambiguous_cross_file_name_is_unresolved():
    g = graph_of("contract Base {}", "contract Base {}", "contract A is Base {}")
    a = ("f2.sol", "A")
    assert g.unresolved_bases == {(a, "Base")}
    assert g.dit(a) == 1


def test_cycle_raises_and_names_cycle():
    with pytest.raises(CorpusError) as exc:
        graph_of("contract A is B {} contract B is A {}")
    assert "cycle" in str(exc.value)
    assert "A" in str(exc.value) and "B" in str(exc.value)


def test_diamond():
    g = graph_of(
        "contract Base {} contract L is Base {} contract R is Base {} contract D is L, R {}"
    )
    d, base = ("f0.sol", "D"), ("f0.sol", "Base")
    assert g.dit(d) == 2 and g.noa(d) == 3
    assert g.nod(base) == 3


@pytest.mark.parametrize("k", range(7))
def test_linear_chain_oracle(k):
    # brute-force oracle: explicit path counting on a hand-built edge list
    names = [f"C{i}" for i in range(k + 1)]
    parts = ["contract C0 {}"] + [f"contract C{i} is C{i - 1} {{}}" for i in range(1, k + 1)]
    g = graph_of("\n".join(parts))
    for i in range(k + 1):
        key = ("f0.sol", names[i])
        assert g.dit(key) == i
        assert g.noa(key) == i
        assert g.nod(key) == k - i


def test_unresolved_base_of_ancestor_extends_dit():
    g = graph_of("contract B is Unknown {} contract A is B {}")
    a, b = ("f0.sol", "A"), ("f0.sol", "B")
    assert g.dit(b) == 1
    assert g.dit(a) == 2
    # noa counts only the contract's own unresolved bases
    assert g.noa(a) == 1


def test_deep_chain_does_not_recurse():
    depth = 1500
    parts = ["contract C0 {}"] + [f"contract C{i} is C{i - 1} {{}}" for i in range(1, depth)]
    g = graph_of("\n".join(parts))
    leaf, root = ("f0.sol", f"C{depth - 1}"), ("f0.sol", "C0")
    assert g.dit(leaf) == depth - 1
    assert g.noa(leaf) == depth - 1
    assert g.nod(root) == depth - 1
