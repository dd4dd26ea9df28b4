from __future__ import annotations

import pytest

from solmetrics.inheritance import build_inheritance_graph
from solmetrics.metrics import ContractMetrics, contract_metrics
from solmetrics.parser import line_accounting, parse_source


def metrics_for(source: str, path: str = "test.sol") -> dict[str, ContractMetrics]:
    """Parse one file and compute the metric vector of every contract."""
    unit = parse_source(source, path)
    graph = build_inheritance_graph([unit])
    out = {}
    for contract in unit.contracts:
        lines = line_accounting(unit, contract)
        out[contract.name] = contract_metrics(contract, lines, graph, path)
    return out


# Every recursive statement shape: (opener, closer, statement levels per repetition).
NESTING_SHAPES = {
    "block": ("{", "}", 1),
    "if-block": ("if (x) {", "}", 2),
    "if": ("if (x) ", "", 1),
    "else-if": ("if (x) y; else ", "", 1),
    "for": ("for (;;) {", "}", 2),
    "while": ("while (x) {", "}", 2),
    "do-while": ("do {", "} while (x);", 2),
    "unchecked": ("unchecked {", "}", 1),
}


def nested_source(shape: str, depth: int) -> str:
    """Contracts A, D and B; D starts on line 2, and its function nests
    statements exactly ``depth`` deep in the given shape."""
    opener, closer, per = NESTING_SHAPES[shape]
    n, pad = divmod(depth - 1, per)
    body = opener * n + "{" * pad + "x = 1;" + "}" * pad + closer * n
    return (
        f"contract A {{}}\ncontract D {{\n  function f(uint x) public {{ {body} }}\n}}\n"
        "contract B {}\n"
    )


@pytest.fixture
def make_corpus(tmp_path):
    """Write .sol files plus a manifest; returns (manifest_path, root)."""

    def _make(files: dict[str, str], entries: list[tuple[str, str, str, str | None]]):
        root = tmp_path / "corpus"
        root.mkdir(exist_ok=True)
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        lines = ["file,contract,label,type"]
        for file, contract, label, vuln_type in entries:
            lines.append(f"{file},{contract},{label},{vuln_type or ''}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(manifest), str(root)

    return _make
