"""Syntax tree for the supported Solidity subset.

The tree keeps only what the metric definitions consume: declarations,
parameter names, and for each function the :class:`FunctionMetrics` the
parser counted over its body; no statement is kept. A contract's ``span``
(inclusive 1-based lines) is the only line range kept; line accounting and
dedupe read it, together with the file's
:class:`~solmetrics.lexer.TokenStream` that a unit keeps as ``lines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import TokenStream


@dataclass(frozen=True)
class FunctionMetrics:
    """One function's cyclomatic complexity (plain and strict), NL and NLE
    nesting depths, and parameter, statement and invocation counts."""

    mccc: int
    mccc_strict: int
    nl: int
    nle: int
    numpar: int
    nos: int
    noi: int


@dataclass
class FunctionDef:
    name: str | None
    kind: str  # function | constructor | fallback | receive | modifier-def
    params: list[str]
    metrics: FunctionMetrics

    @property
    def counts_as_function(self) -> bool:
        return self.kind != "modifier-def"


@dataclass
class StateVarDecl:
    name: str


@dataclass
class ContractDef:
    name: str
    kind: str  # contract | interface | library
    base_names: list[str]
    state_vars: list[StateVarDecl]
    functions: list[FunctionDef]
    span: tuple[int, int]
    events: list[str] = field(default_factory=list)
    structs: list[str] = field(default_factory=list)
    enums: list[str] = field(default_factory=list)
    # The names CBO counts: the first name of each base and of each `new X(`
    # target, and every identifier of a state-variable, parameter or return
    # type that does not follow a '.'.
    type_refs: set[str] = field(default_factory=set)

    @property
    def declaration_count(self) -> int:
        """Contract-level declarations counted toward NOS."""
        return (
            len(self.state_vars)
            + len(self.events)
            + len(self.structs)
            + len(self.enums)
        )


@dataclass(frozen=True)
class Diagnostic:
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


@dataclass
class SourceUnit:
    path: str
    pragma: str | None
    contracts: list[ContractDef]
    lines: TokenStream = field(repr=False, compare=False)
    imports: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class LineCounts:
    """Source / logical / comment line counts over one contract span."""

    sloc: int
    lloc: int
    cloc: int
