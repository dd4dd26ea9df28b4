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

    ``path`` locates the contract in the inheritance graph; function sums
    run over functions, constructors and fallback/receive handlers, never
    modifier definitions. Averages divide function-level totals by nf and
    are zero for function-less contracts.
    """
    counted = [f for f in contract.functions if f.counts_as_function]
    per_fn: list[FunctionMetrics] = [f.metrics for f in counted]
    nf = len(counted)
    mccc_total = sum(m.mccc for m in per_fn)
    wmc = sum(m.mccc_strict for m in per_fn)
    nl = sum(m.nl for m in per_fn)
    nle = sum(m.nle for m in per_fn)
    numpar = sum(m.numpar for m in per_fn)
    fn_nos = sum(m.nos for m in per_fn)
    noi = sum(m.noi for m in per_fn)

    key = (path, contract.name)
    if key in graph.nodes:
        dit, noa, nod = graph.dit(key), graph.noa(key), graph.nod(key)
    else:
        dit = 1 if contract.base_names else 0
        noa = len(set(contract.base_names))
        nod = 0

    def avg(total: int) -> float:
        return total / nf if nf else 0.0

    return ContractMetrics(
        sloc=lines.sloc,
        lloc=lines.lloc,
        cloc=lines.cloc,
        nf=nf,
        wmc=wmc,
        nl=nl,
        nle=nle,
        numpar=numpar,
        nos=fn_nos + contract.declaration_count,
        dit=dit,
        noa=noa,
        nod=nod,
        cbo=len(contract.type_refs - {contract.name}),
        na=len(contract.state_vars),
        noi=noi,
        avg_mccc=avg(mccc_total),
        avg_nl=avg(nl),
        avg_nle=avg(nle),
        avg_numpar=avg(numpar),
        avg_nos=avg(fn_nos),
        avg_noi=avg(noi),
    )
