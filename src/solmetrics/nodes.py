"""Syntax tree for the supported Solidity subset.

The tree keeps declarations, parameter names, and for each function the
:class:`FunctionMetrics` the parser counted over its body; no statement is
kept. The metrics read counts of the declarations; the names of events,
structs, enums and parameters, a contract's kind, the pragma and the
imports serve library callers and tests. A contract's ``span``
(inclusive 1-based lines) is the only line range kept; line accounting and
dedupe read it, together with the file's
:class:`~solmetrics.lexer.TokenStream` that a unit keeps as ``lines``.
"""

from __future__ import annotations

from typing import NamedTuple

from .lexer import TokenStream


class Record:
    """Base of the slotted classes whose fields change after construction:
    one equals another of its class whose ``_fields`` are equal (so it is
    unhashable), and its repr shows them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        fields = self._fields
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class FunctionMetrics(NamedTuple):
    """One function's cyclomatic complexity (plain and strict), NL and NLE
    nesting depths, and parameter, statement and invocation counts."""

    mccc: int
    mccc_strict: int
    nl: int
    nle: int
    numpar: int
    nos: int
    noi: int


class FunctionDef(Record):
    _fields = __slots__ = ("name", "kind", "params", "metrics")

    def __init__(self, name: str | None, kind: str, params: list[str], metrics: FunctionMetrics):
        self.name = name
        self.kind = kind  # function | constructor | fallback | receive | modifier-def
        self.params = params
        self.metrics = metrics

    @property
    def counts_as_function(self) -> bool:
        return self.kind != "modifier-def"


class ContractDef(Record):
    """``state_vars`` holds the state variables' names. ``type_refs`` holds
    the names CBO counts: the first name of each base and of each `new X(`
    target, and every identifier of a state-variable, parameter or return
    type that does not follow a '.'."""

    _fields = __slots__ = (
        "name", "kind", "base_names", "state_vars", "functions", "span",
        "events", "structs", "enums", "type_refs",
    )

    def __init__(self, name: str, kind: str, base_names: list[str], span: tuple[int, int],
                 type_refs: set[str]):
        self.name = name
        self.kind = kind  # contract | interface | library
        self.base_names = base_names
        self.span = span
        self.type_refs = type_refs
        self.state_vars: list[str] = []
        self.functions: list[FunctionDef] = []
        self.events: list[str] = []
        self.structs: list[str] = []
        self.enums: list[str] = []

    @property
    def declaration_count(self) -> int:
        """Contract-level declarations counted toward NOS."""
        return len(self.state_vars) + len(self.events) + len(self.structs) + len(self.enums)


class Diagnostic(NamedTuple):
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


class SourceUnit(Record):
    """A parsed file. ``lines``, its token stream, takes no part in
    equality or the repr."""

    _fields = ("path", "pragma", "contracts", "imports", "diagnostics")
    __slots__ = _fields + ("lines",)

    def __init__(self, path: str, pragma: str | None, contracts: list[ContractDef],
                 lines: TokenStream, imports: list[str], diagnostics: list[Diagnostic]):
        self.path = path
        self.pragma = pragma
        self.contracts = contracts
        self.lines = lines
        self.imports = imports
        self.diagnostics = diagnostics


class LineCounts(NamedTuple):
    """Source / logical / comment line counts over one contract span."""

    sloc: int
    lloc: int
    cloc: int
