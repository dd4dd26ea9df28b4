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
    order = _check_acyclic(graph, bases_of, unresolved)
    # Ancestor sets can overlap only in a component (contracts joined by
    # base edges either way) where some contract has two resolved bases.
    # Elsewhere each contract has at most one base, so its resolved ancestors
    # are its base's plus the base, and its descendants are its children's
    # plus the children: linear in the number of contracts.
    component = {key: key for key in graph.nodes}

    def root(key: ContractKey) -> ContractKey:
        while component[key] != key:
            component[key] = key = component[component[key]]
        return key

    for key, base in graph.edges:
        component[root(key)] = root(base)
    overlapping = {root(key) for key, bases in bases_of.items() if len(set(bases)) > 1}
    ancestors: dict[ContractKey, int] = {}
    nod = graph._nod = dict.fromkeys(graph.nodes, 0)
    for key in order:  # every contract after its bases
        bases = bases_of[key]
        if root(key) in overlapping:
            # one walk over the resolved ancestors; the set is dropped after it
            seen: set[ContractKey] = set()
            stack = list(bases)
            while stack:
                k = stack.pop()
                if k not in seen:
                    seen.add(k)
                    nod[k] += 1
                    stack.extend(bases_of[k])
            ancestors[key] = len(seen)
        else:
            ancestors[key] = ancestors[bases[0]] + 1 if bases else 0
        graph._noa[key] = ancestors[key] + len(unresolved.get(key, ()))
    for key in reversed(order):  # every contract before its bases
        bases = bases_of[key]
        if bases and root(key) not in overlapping:
            nod[bases[0]] += nod[key] + 1
    return graph


def _check_acyclic(
    graph: InheritanceGraph,
    bases_of: dict[ContractKey, list[ContractKey]],
    unresolved: dict[ContractKey, set[str]],
) -> list[ContractKey]:
    """Post-order DFS over the base edges with an explicit stack. It records
    each contract's DIT when it finishes the contract, after all its bases,
    and returns the contracts in that finishing order; a base still on the
    path is a cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[ContractKey, int] = {k: WHITE for k in graph.nodes}
    order: list[ContractKey] = []
    for start in sorted(graph.nodes):
        if color[start] != WHITE:
            continue
        stack: list[tuple[ContractKey, int]] = [(start, 0)]
        path: list[ContractKey] = []
        while stack:
            node, idx = stack.pop()
            if idx == 0:
                color[node] = GRAY
                path.append(node)
            bases = bases_of[node]
            if idx < len(bases):
                stack.append((node, idx + 1))
                nxt = bases[idx]
                if color[nxt] == GRAY:
                    cycle = path[path.index(nxt) :] + [nxt]
                    names = " -> ".join(f"{p}:{n}" for p, n in cycle)
                    raise CorpusError(f"inheritance cycle: {names}")
                if color[nxt] == WHITE:
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                path.pop()
                order.append(node)
                best = 1 if node in unresolved else 0
                graph._dit[node] = max([best] + [1 + graph._dit[b] for b in bases])
    return order
