"""Per-contract complexity metric vectors.

The 21 components: source/logical/comment line counts, function count,
weighted (strict) cyclomatic sum, nesting depths, parameter/statement/
invocation counts, inheritance-tree metrics, coupling and attribute
counts, plus six per-function averages.
"""

from __future__ import annotations

from typing import NamedTuple

from .inheritance import InheritanceGraph
from .nodes import ContractDef, FunctionMetrics, LineCounts

# Each metric's name, value type and display name, in the column order of
# every metric table. The names and types below are read from this table.
METRIC_TABLE: tuple[tuple[str, type, str], ...] = (
    ("sloc", int, "SLOC"), ("lloc", int, "LLOC"), ("cloc", int, "CLOC"), ("nf", int, "NF"),
    ("wmc", int, "WMC"), ("nl", int, "NL"), ("nle", int, "NLE"), ("numpar", int, "NUMPAR"),
    ("nos", int, "NOS"), ("dit", int, "DIT"), ("noa", int, "NOA"), ("nod", int, "NOD"),
    ("cbo", int, "CBO"), ("na", int, "NA"), ("noi", int, "NOI"),
    ("avg_mccc", float, "Avg. McCC"), ("avg_nl", float, "Avg. NL"),
    ("avg_nle", float, "Avg. NLE"), ("avg_numpar", float, "Avg. NUMPAR"),
    ("avg_nos", float, "Avg. NOS"), ("avg_noi", float, "Avg. NOI"),
)
METRIC_FIELDS: tuple[tuple[str, type], ...] = tuple((name, kind) for name, kind, _ in METRIC_TABLE)
METRIC_NAMES: tuple[str, ...] = tuple(name for name, _, _ in METRIC_TABLE)
DISPLAY_NAMES: dict[str, str] = {name: display for name, _, display in METRIC_TABLE}


class ContractMetrics(NamedTuple("ContractMetrics", METRIC_FIELDS)):
    """One contract's metrics: a tuple in ``METRIC_NAMES`` order."""

    __slots__ = ()

    def as_dict(self) -> dict[str, int | float]:
        return dict(zip(METRIC_NAMES, self))

    def as_row(self) -> list[int | float]:
        return list(self)

    def as_cells(self) -> list[str]:
        """The values as table cells; a float's repr reads back exactly."""
        return [repr(v) if isinstance(v, float) else str(v) for v in self]


def contract_metrics(
    contract: ContractDef,
    lines: LineCounts,
    graph: InheritanceGraph,
    path: str = "",
) -> ContractMetrics:
    """Assemble the full 21-component vector for one contract.

    ``path`` locates the contract in the inheritance graph, which gives its
    DIT, NOA and NOD; a contract the graph does not hold reads 0 for all
    three. Function sums run over functions, constructors and
    fallback/receive handlers, never modifier definitions. Averages divide
    function-level totals by nf and are zero for function-less contracts.
    """
    per_fn = [f.metrics for f in contract.functions if f.counts_as_function]
    nf = len(per_fn)
    # one pass over the functions; the leading zero row sums a function-less contract to zeros
    totals = FunctionMetrics._make(map(sum, zip((0,) * len(FunctionMetrics._fields), *per_fn)))
    key = (path, contract.name)

    def avg(total: int) -> float:
        return total / nf if nf else 0.0

    return ContractMetrics(
        sloc=lines.sloc,
        lloc=lines.lloc,
        cloc=lines.cloc,
        nf=nf,
        wmc=totals.mccc_strict,
        nl=totals.nl,
        nle=totals.nle,
        numpar=totals.numpar,
        nos=totals.nos + contract.declaration_count,
        dit=graph.dit(key),
        noa=graph.noa(key),
        nod=graph.nod(key),
        cbo=len(contract.type_refs - {contract.name}),
        na=len(contract.state_vars),
        noi=totals.noi,
        avg_mccc=avg(totals.mccc),
        avg_nl=avg(totals.nl),
        avg_nle=avg(totals.nle),
        avg_numpar=avg(totals.numpar),
        avg_nos=avg(totals.nos),
        avg_noi=avg(totals.noi),
    )
