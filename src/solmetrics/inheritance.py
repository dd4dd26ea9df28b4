"""Corpus-wide inheritance graph and the tree metrics derived from it."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CorpusError
from .nodes import SourceUnit

ContractKey = tuple[str, str]  # (file path, contract name)


@dataclass
class InheritanceGraph:
    """Derived-to-base edges over every contract in a corpus.

    A base name resolves to a contract in the same file first, then to a
    corpus-wide unique name. Anything else lands in ``unresolved_bases``
    and still contributes one terminal ancestor to DIT/NOA. The builder
    also indexes the unresolved names by contract key, so a query reads
    one contract's unresolved bases with a dict lookup instead of a scan
    of the corpus-wide set.
    """

    nodes: set[ContractKey] = field(default_factory=set)
    edges: set[tuple[ContractKey, ContractKey]] = field(default_factory=set)
    unresolved_bases: set[tuple[ContractKey, str]] = field(default_factory=set)
    _bases: dict[ContractKey, list[ContractKey]] = field(default_factory=dict, repr=False)
    _derived: dict[ContractKey, list[ContractKey]] = field(default_factory=dict, repr=False)
    _unresolved: dict[ContractKey, set[str]] = field(default_factory=dict, repr=False)
    _dit_cache: dict[ContractKey, int] = field(default_factory=dict, repr=False)

    def unresolved_of(self, key: ContractKey) -> set[str]:
        return set(self._unresolved.get(key, ()))

    def dit(self, key: ContractKey) -> int:
        """Longest ancestor path; an unresolved base is a path of length 1.

        Walks the bases in post-order with an explicit stack, memoizing
        every contract it finishes, so chain depth is not bounded by the
        interpreter's recursion limit.
        """
        cache = self._dit_cache
        stack = [key]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            bases = self._bases.get(node, ())
            pending = [b for b in bases if b not in cache]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            best = 1 if node in self._unresolved else 0
            cache[node] = max([best] + [1 + cache[b] for b in bases])
        return cache[key]

    def ancestors(self, key: ContractKey) -> set[ContractKey]:
        return self._reachable(key, self._bases)

    def descendants(self, key: ContractKey) -> set[ContractKey]:
        return self._reachable(key, self._derived)

    def noa(self, key: ContractKey) -> int:
        return len(self.ancestors(key)) + len(self.unresolved_of(key))

    def nod(self, key: ContractKey) -> int:
        return len(self.descendants(key))

    def _reachable(
        self, key: ContractKey, adjacency: dict[ContractKey, list[ContractKey]]
    ) -> set[ContractKey]:
        seen: set[ContractKey] = set()
        stack = list(adjacency.get(key, ()))
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            stack.extend(adjacency.get(k, ()))
        return seen


def build_inheritance_graph(corpus: list[SourceUnit]) -> InheritanceGraph:
    """Resolve every base name across a parsed corpus.

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
                    graph._unresolved.setdefault(key, set()).add(base_name)
            graph._bases[key] = bases
            for base in bases:
                graph.edges.add((key, base))
                graph._derived.setdefault(base, []).append(key)
    _check_acyclic(graph)
    return graph


def _check_acyclic(graph: InheritanceGraph) -> None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[ContractKey, int] = {k: WHITE for k in graph.nodes}
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
            bases = graph._bases.get(node, [])
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
