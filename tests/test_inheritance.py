from __future__ import annotations

import os
import tempfile
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from solmetrics.corpus import parse_files
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


def test_deep_chain_builds_in_linear_time():
    # along a chain each contract's ancestor and descendant bitsets are as
    # wide as the chain, so a build is quadratic in digit operations but with
    # a small constant; the builder reads only the path and each contract's
    # name and base names
    depth = 10_000
    contracts = [
        SimpleNamespace(name=f"C{i}", base_names=[f"C{i - 1}"] if i else []) for i in range(depth)
    ]
    start = time.perf_counter()
    g = build_inheritance_graph([SimpleNamespace(path="chain.sol", contracts=contracts)])
    assert time.perf_counter() - start < 1.0
    leaf, root = ("chain.sol", f"C{depth - 1}"), ("chain.sol", "C0")
    assert (g.dit(leaf), g.noa(leaf), g.nod(leaf)) == (depth - 1, depth - 1, 0)
    assert (g.dit(root), g.noa(root), g.nod(root)) == (0, 0, depth - 1)


def test_two_base_ladder_builds_in_near_linear_time():
    # contract Ci is C(i-1), C(i-2): the two bases' ancestor sets overlap in
    # all but one contract, so counting ancestors one by one is quadratic
    n = 4_000
    contracts = [
        SimpleNamespace(name=f"C{i}", base_names=[f"C{j}" for j in (i - 1, i - 2) if j >= 0])
        for i in range(n)
    ]
    start = time.perf_counter()
    g = build_inheritance_graph([SimpleNamespace(path="ladder.sol", contracts=contracts)])
    assert time.perf_counter() - start < 1.0
    got = [(g.dit(k), g.noa(k), g.nod(k)) for k in (("ladder.sol", f"C{i}") for i in range(n))]
    assert got == [(i, i, n - 1 - i) for i in range(n)]


_NAMES = ("C0", "C1", "C2", "C3", "C4")


@st.composite
def _corpus(draw) -> dict[str, list[tuple[str, list[str]]]]:
    """Up to 8 contracts over up to 3 files, as file -> [(name, base names)].

    A contract named ``Ci`` takes its bases from the names before it and
    from the undefined names X and Y. Resolution then meets diamonds, names
    defined in two files and unresolved bases, but never a cycle.
    """
    files: dict[str, list[tuple[str, list[str]]]] = {
        f"f{i}.sol": [] for i in range(draw(st.integers(1, 3)))
    }
    for _ in range(draw(st.integers(1, 8))):
        contracts = files[draw(st.sampled_from(sorted(files)))]
        taken = {name for name, _ in contracts}
        free = [i for i, name in enumerate(_NAMES) if name not in taken]
        if free:
            i = draw(st.sampled_from(free))
            bases = draw(st.lists(st.sampled_from(_NAMES[:i] + ("X", "Y")), max_size=3))
            contracts.append((_NAMES[i], bases))
    return files


def _brute_force(graph) -> dict:
    """DIT, NOA and NOD of every node, from ``edges`` and ``unresolved_bases``
    alone: every path is enumerated, every ancestor set is built afresh."""
    bases = {k: {b for d, b in graph.edges if d == k} for k in graph.nodes}
    own = {k: {n for d, n in graph.unresolved_bases if d == k} for k in graph.nodes}

    def depth(k):
        return max([1 if own[k] else 0] + [1 + depth(b) for b in bases[k]])

    def ancestors(k):
        return set().union(*({b} | ancestors(b) for b in bases[k]))

    anc = {k: ancestors(k) for k in graph.nodes}
    return {
        k: (depth(k), len(anc[k]) + len(own[k]), sum(k in anc[j] for j in graph.nodes))
        for k in graph.nodes
    }


@settings(max_examples=150, deadline=None)
@given(_corpus())
@example({"f0.sol": [("C0", []), ("C1", ["C0", "C0"]), ("C2", ["C1"])]})
def test_tree_metrics_match_brute_force(files):
    sources = {
        file: "\n".join(f"contract {n}{' is ' + ', '.join(b) if b else ''} {{}}" for n, b in cs)
        for file, cs in files.items()
    }
    g = build_inheritance_graph([parse_source(source, file) for file, source in sources.items()])
    defined = {(file, name) for file, cs in files.items() for name, _ in cs}
    edges, unresolved = set(), set()
    for file, cs in files.items():
        for name, bases in cs:
            for base in bases:
                homes = [k for k in defined if k == (file, base)] or [
                    k for k in defined if k[1] == base
                ]
                if len(homes) == 1:
                    edges.add(((file, name), homes[0]))
                else:
                    unresolved.add(((file, name), base))
    assert (g.nodes, g.edges, g.unresolved_bases) == (defined, edges, unresolved)
    got = {k: (g.dit(k), g.noa(k), g.nod(k)) for k in g.nodes}
    assert got == _brute_force(g)
    unknown = ("nowhere.sol", "C0")
    assert (g.dit(unknown), g.noa(unknown), g.nod(unknown)) == (0, 0, 0)
    # the CLI's vectors: tempfile, as Hypothesis refuses the function-scoped tmp_path
    with tempfile.TemporaryDirectory() as root:
        for file, source in sources.items():
            with open(os.path.join(root, file), "w", encoding="utf-8") as fh:
                fh.write(source)
        parsed = parse_files(root, list(sources), 1)
    vectors = {
        (pf.path, c.name): (c.metrics.dit, c.metrics.noa, c.metrics.nod)
        for pf in parsed
        for c in pf.contracts
    }
    assert vectors == got
