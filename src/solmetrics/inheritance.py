"""Corpus-wide inheritance graph and the tree metrics derived from it."""

from __future__ import annotations

from .errors import CorpusError
from .nodes import SourceUnit

ContractKey = tuple[str, str]  # (file path, contract name)


class InheritanceGraph:
    """Derived-to-base edges over every contract in a corpus.

    A base name resolves to a contract in the same file first, then to a
    corpus-wide unique name. Anything else lands in ``unresolved_bases``
    and still contributes one terminal ancestor to DIT/NOA. The builder
    records every contract's DIT, NOA and NOD, so a query is one lookup
    and an unknown key reads 0.
    """

    __slots__ = ("nodes", "edges", "unresolved_bases", "_dit", "_noa", "_nod")

    def __init__(self) -> None:
        self.nodes: set[ContractKey] = set()
        self.edges: set[tuple[ContractKey, ContractKey]] = set()
        self.unresolved_bases: set[tuple[ContractKey, str]] = set()
        self._dit: dict[ContractKey, int] = {}
        self._noa: dict[ContractKey, int] = {}
        self._nod: dict[ContractKey, int] = {}

    def dit(self, key: ContractKey) -> int:
        """Longest ancestor path; an unresolved base is a path of length 1."""
        return self._dit.get(key, 0)

    def noa(self, key: ContractKey) -> int:
        """Resolved ancestors plus the contract's own unresolved base names."""
        return self._noa.get(key, 0)

    def nod(self, key: ContractKey) -> int:
        """Contracts that have this one among their resolved ancestors."""
        return self._nod.get(key, 0)


def build_inheritance_graph(corpus: list[SourceUnit]) -> InheritanceGraph:
    """Resolve every base name across a parsed corpus and measure the tree.

    Reads only each unit's ``path`` and its contracts' ``name`` and
    ``base_names``, so per-file metric facts serve as well as parse trees.

    One pass serves every inheritance shape. A post-order DFS over the base
    edges finishes each contract after its bases: its DIT is one more than
    its deepest base's, and its resolved ancestors are a Python-int bitset,
    the OR of its bases' sets and bits. A reverse pass ORs each contract's
    descendants and bit into its bases. NOA and NOD are bit counts, plus
    NOA's own unresolved base names. A set is dropped once its last reader
    has read it.

    Raises :class:`CorpusError` naming the cycle if the resolved subgraph
    is cyclic.
    """
    graph = InheritanceGraph()
    by_name: dict[str, list[ContractKey]] = {}
    for unit in corpus:
        for contract in unit.contracts:
            key = (unit.path, contract.name)
            graph.nodes.add(key)
            by_name.setdefault(contract.name, []).append(key)
    bases_of: dict[ContractKey, list[ContractKey]] = {}
    unresolved: dict[ContractKey, set[str]] = {}
    for unit in corpus:
        for contract in unit.contracts:
            key = (unit.path, contract.name)
            bases: list[ContractKey] = []
            for base_name in contract.base_names:
                same_file = (unit.path, base_name)
                if same_file in graph.nodes:
                    bases.append(same_file)
                    continue
                candidates = by_name.get(base_name, [])
                if len(candidates) == 1:
                    bases.append(candidates[0])
                else:
                    graph.unresolved_bases.add((key, base_name))
                    unresolved.setdefault(key, set()).add(base_name)
            bases_of[key] = bases
            graph.edges.update((key, base) for base in bases)
    # A contract's bit numbers it among the contracts of its component
    # (contracts joined by base edges either way) in the order they finish,
    # so a set is as wide as the component, not the corpus.
    component = {key: key for key in graph.nodes}

    def root(key: ContractKey) -> ContractKey:
        while component[key] != key:
            component[key] = key = component[component[key]]
        return key

    for key, base in graph.edges:
        component[root(key)] = root(base)
    bit: dict[ContractKey, int] = {}
    last_bit: dict[ContractKey, int] = {}  # per component root
    readers = dict.fromkeys(graph.nodes, 0)  # reads of a contract's set still to come
    for bases in bases_of.values():
        for base in bases:
            readers[base] += 1
    inherited: dict[ContractKey, int] = {}  # a contract's ancestors and itself
    order: list[ContractKey] = []
    path: dict[ContractKey, None] = {}  # the DFS path in order; a base on it is a cycle
    for start in sorted(graph.nodes):
        if start in bit:
            continue
        stack = [(start, 0)]
        while stack:
            node, idx = stack.pop()
            if idx == 0:
                path[node] = None
            bases = bases_of[node]
            if idx < len(bases):
                stack.append((node, idx + 1))
                nxt = bases[idx]
                if nxt in path:
                    cycle = [*path]
                    cycle = cycle[cycle.index(nxt) :] + [nxt]
                    names = " -> ".join(f"{p}:{n}" for p, n in cycle)
                    raise CorpusError(f"inheritance cycle: {names}")
                if nxt not in bit:
                    stack.append((nxt, 0))
                continue
            # finish the contract after all its bases
            path.popitem()
            order.append(node)
            top = root(node)
            bit[node] = last_bit[top] = last_bit.get(top, -1) + 1
            dit = 1 if node in unresolved else 0
            ancestors = 0
            for base in bases:
                dit = max(dit, graph._dit[base] + 1)
                ancestors |= inherited[base]
                readers[base] -= 1
                if not readers[base]:
                    del inherited[base]
            graph._dit[node] = dit
            graph._noa[node] = ancestors.bit_count() + len(unresolved.get(node, ()))
            if readers[node]:
                inherited[node] = ancestors | 1 << bit[node]
    descendants: dict[ContractKey, int] = {}
    for key in reversed(order):  # every contract before its bases
        below = descendants.pop(key, 0)
        graph._nod[key] = below.bit_count()
        below |= 1 << bit[key]
        for base in bases_of[key]:
            descendants[base] = descendants.get(base, 0) | below
    return graph
