"""Labeled corpus ingestion: manifest loading, dedupe, metric extraction.

The manifest is a header-prefixed CSV (``file,contract,label,type``) that
maps source files to per-contract vulnerability labels. Ingestion parses
every referenced file once, deduplicates contracts by a hash of their
comment- and whitespace-normalized text, builds the corpus-wide
inheritance graph, and joins the metric vectors with the labels.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .errors import CorpusError, LexError
from .inheritance import InheritanceGraph, build_inheritance_graph
from .lexer import Token, tokenize
from .metrics import METRIC_NAMES, ContractMetrics, contract_metrics
from .nodes import ContractDef
from .parser import TokenIndex, index_tokens, line_accounting, parse_file

LABEL_VULNERABLE = "vulnerable"
LABEL_NEUTRAL = "neutral"

# timestamp dependency, block number dependency, dangerous delegatecall,
# Ether frozen, unchecked external call, reentrancy, integer overflow,
# dangerous Ether strict equality
VULNERABILITY_TYPES = frozenset({"TP", "BN", "DG", "EF", "UC", "RE", "OF", "SE"})

MANIFEST_HEADER = ("file", "contract", "label", "type")


@dataclass(frozen=True)
class ManifestEntry:
    file: str
    contract: str
    label: str
    vuln_type: str | None = None


@dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]
    path: str
    content_hash: str


@dataclass(frozen=True)
class ContractRow:
    file: str
    contract: str
    metrics: ContractMetrics
    label: str
    vuln_type: str | None = None

    @property
    def contract_id(self) -> str:
        return f"{self.file}:{self.contract}"


@dataclass
class LabeledContractSet:
    rows: list[ContractRow]
    n_vulnerable: int
    n_neutral: int
    provenance: tuple[str, str] = field(default=("", ""), compare=False)
    diagnostics: list[str] = field(default_factory=list, compare=False)

    @property
    def counts(self) -> tuple[int, int]:
        return (self.n_vulnerable, self.n_neutral)


def _check_label(row: str, label: str, vuln_type: str | None) -> None:
    """The label policy of manifests and imported tables; errors name ``row``."""
    if label not in (LABEL_VULNERABLE, LABEL_NEUTRAL):
        raise CorpusError(f"{row}: unknown label {label!r}")
    if vuln_type is not None:
        if label != LABEL_VULNERABLE:
            raise CorpusError(f"{row}: type tag only allowed on vulnerable rows")
        if vuln_type not in VULNERABILITY_TYPES:
            raise CorpusError(f"{row}: unknown vulnerability type {vuln_type!r}")


def load_manifest(path: str) -> CorpusManifest:
    """Load and validate a corpus manifest.

    Rejects unknown labels, misplaced or unknown vulnerability type tags,
    and duplicate (file, contract) keys, naming the offending row.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorpusError(f"cannot read manifest {path!r}: {exc}") from exc
    content_hash = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"manifest {path!r} is not valid UTF-8") from exc
    entries: list[ManifestEntry] = []
    seen: set[tuple[str, str]] = set()
    lines = text.splitlines()
    if not lines:
        return CorpusManifest((), path, content_hash)
    header = tuple(part.strip() for part in lines[0].split(","))
    if header != MANIFEST_HEADER:
        raise CorpusError(
            f"manifest row 1: expected header {','.join(MANIFEST_HEADER)!r}, got {lines[0]!r}"
        )
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) not in (3, 4):
            raise CorpusError(f"manifest row {lineno}: expected 3 or 4 fields, got {len(parts)}")
        file, contract, label = parts[0], parts[1], parts[2]
        vuln_type = parts[3] if len(parts) == 4 and parts[3] else None
        if not file or not contract:
            raise CorpusError(f"manifest row {lineno}: empty file or contract name")
        _check_label(f"manifest row {lineno}", label, vuln_type)
        key = (file, contract)
        if key in seen:
            raise CorpusError(f"manifest row {lineno}: duplicate entry for {file}:{contract}")
        seen.add(key)
        entries.append(ManifestEntry(file, contract, label, vuln_type))
    return CorpusManifest(tuple(entries), path, content_hash)


def normalized_contract_text(
    tokens: list[Token], contract: ContractDef, index: TokenIndex | None = None
) -> str:
    """Comment-stripped, whitespace-normalized text of one contract span.

    Joins the code tokens lying wholly inside the span, found by bisecting
    the file's :class:`TokenIndex` (built from ``tokens`` when omitted).
    """
    if index is None:
        index = index_tokens(tokens)
    first, last = contract.span
    lo = bisect_left(index.code_starts, first)
    hi = bisect_right(index.code_ends, last)
    return " ".join(index.code_texts[lo:hi])


@dataclass
class ContractFacts:
    """One parsed contract as a worker sends it back, without its parse tree."""

    name: str
    base_names: list[str]
    digest: str
    metrics: ContractMetrics


@dataclass
class _ParsedFile:
    path: str
    error: str | None = None
    contracts: list[ContractFacts] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def _parse_sol_file(args: tuple[str, str]) -> _ParsedFile:
    """Read, parse and measure one file; the parse tree stays in this process.

    Each contract's DIT, NOA and NOD are the ones it gives alone, measured
    against an empty inheritance graph.
    """
    root, file = args
    full = os.path.join(root, file)
    try:
        with open(full, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return _ParsedFile(file, error=f"unreadable file: {exc}")
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError:
        return _ParsedFile(file, error="not valid UTF-8")
    try:
        tokens = tokenize(source)
    except LexError as exc:
        return _ParsedFile(file, error=f"lex error: {exc}")
    unit = parse_file(tokens, file)
    index = index_tokens(tokens)
    alone = InheritanceGraph()
    contracts = []
    for contract in unit.contracts:
        lines = line_accounting(source, contract, tokens, index)
        digest = hashlib.sha256(
            normalized_contract_text(tokens, contract, index).encode("utf-8")
        ).hexdigest()
        metrics = contract_metrics(contract, lines, alone, file)
        contracts.append(ContractFacts(contract.name, contract.base_names, digest, metrics))
    return _ParsedFile(file, contracts=contracts, diagnostics=[str(d) for d in unit.diagnostics])


def parse_files(root: str, files: list[str], jobs: int = 1) -> list[_ParsedFile]:
    """Parse and measure many files, optionally across processes, in input order.

    One inheritance graph over all the files then sets every contract's
    DIT, NOA and NOD. Raises :class:`CorpusError` on an inheritance cycle.
    """
    tasks = [(root, f) for f in files]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parsed = list(pool.map(_parse_sol_file, tasks, chunksize=16))
    else:
        parsed = [_parse_sol_file(t) for t in tasks]
    graph = build_inheritance_graph(parsed)
    for pf in parsed:
        for facts in pf.contracts:
            key = (pf.path, facts.name)
            facts.metrics = replace(
                facts.metrics, dit=graph.dit(key), noa=graph.noa(key), nod=graph.nod(key)
            )
    return parsed


def ingest(
    manifest: CorpusManifest, source_root: str, jobs: int = 1
) -> LabeledContractSet:
    """Join the metric facts of every manifest entry's file with its label.

    Each entry either becomes a row or a skip diagnostic; duplicate
    contract bodies keep their first occurrence. Raises
    :class:`CorpusError` when more than half of the entries skip for
    reasons other than deduplication, or on an inheritance cycle.
    """
    files = list(dict.fromkeys(entry.file for entry in manifest.entries))
    parsed = {pf.path: pf for pf in parse_files(source_root, files, jobs)}
    diagnostics = [d for pf in parsed.values() for d in pf.diagnostics]
    facts_by_key = {(pf.path, c.name): c for pf in parsed.values() for c in pf.contracts}

    rows: list[ContractRow] = []
    seen_hashes: dict[str, str] = {}
    error_skips = 0
    for entry in manifest.entries:
        pf = parsed[entry.file]
        if pf.error is not None:
            diagnostics.append(f"{entry.file}:{entry.contract}: skipped ({pf.error})")
            error_skips += 1
            continue
        facts = facts_by_key.get((entry.file, entry.contract))
        if facts is None:
            diagnostics.append(f"{entry.file}:{entry.contract}: skipped (contract not found)")
            error_skips += 1
            continue
        if facts.digest in seen_hashes:
            diagnostics.append(
                f"{entry.file}:{entry.contract}: duplicate of {seen_hashes[facts.digest]}"
            )
            continue
        seen_hashes[facts.digest] = f"{entry.file}:{entry.contract}"
        rows.append(
            ContractRow(entry.file, entry.contract, facts.metrics, entry.label, entry.vuln_type)
        )

    if len(manifest.entries) > 1 and error_skips / len(manifest.entries) > 0.5:
        raise CorpusError(
            f"corpus unusable: {error_skips} of {len(manifest.entries)} entries skipped"
        )
    rows.sort(key=lambda r: (r.file, r.contract))
    n_vulnerable = sum(1 for r in rows if r.label == LABEL_VULNERABLE)
    return LabeledContractSet(
        rows=rows,
        n_vulnerable=n_vulnerable,
        n_neutral=len(rows) - n_vulnerable,
        provenance=(manifest.path, manifest.content_hash),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# metric table export / import

EXPORT_HEADER = ("file", "contract") + METRIC_NAMES + ("label", "type")

_INT_METRICS = METRIC_NAMES[:15]


def export_metrics(contract_set: LabeledContractSet, path: str, fmt: str = "csv") -> str:
    """Write the joined metric/label table; returns the path written."""
    if not contract_set.rows:
        raise CorpusError("cannot export an empty contract set")
    rows = sorted(contract_set.rows, key=lambda r: (r.file, r.contract))
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EXPORT_HEADER)
            for row in rows:
                writer.writerow(
                    [row.file, row.contract]
                    + [repr(v) if isinstance(v, float) else str(v) for v in row.metrics.as_row()]
                    + [row.label, row.vuln_type or ""]
                )
    elif fmt == "json":
        payload = {
            "provenance": {
                "manifest": contract_set.provenance[0],
                "sha256": contract_set.provenance[1],
            },
            "counts": {
                "vulnerable": contract_set.n_vulnerable,
                "neutral": contract_set.n_neutral,
            },
            "rows": [
                {
                    "file": row.file,
                    "contract": row.contract,
                    "metrics": row.metrics.as_dict(),
                    "label": row.label,
                    "type": row.vuln_type,
                }
                for row in rows
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise CorpusError(f"unknown export format {fmt!r}")
    return path


def _imported_row(
    row: str, file: str, contract: str, values: dict, label: str, vuln_type: str | None
) -> ContractRow:
    _check_label(row, label, vuln_type)
    try:
        metrics = ContractMetrics(
            **{
                name: int(values[name]) if name in _INT_METRICS else float(values[name])
                for name in METRIC_NAMES
            }
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"{row}: bad metric value ({exc!r})") from exc
    return ContractRow(file, contract, metrics, label, vuln_type)


def import_metrics(path: str, fmt: str = "csv") -> LabeledContractSet:
    """Read a table produced by :func:`export_metrics` back into a set.

    Rows are validated like manifest rows; a short row, a bad metric value
    or a bad label raises :class:`CorpusError` naming the row.
    """
    rows: list[ContractRow] = []
    if fmt == "csv":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != EXPORT_HEADER:
                raise CorpusError(f"unexpected export header in {path!r}")
            for lineno, record in enumerate(reader, start=2):
                row = f"{path!r} row {lineno}"
                if len(record) != len(EXPORT_HEADER):
                    raise CorpusError(
                        f"{row}: expected {len(EXPORT_HEADER)} fields, got {len(record)}"
                    )
                values = dict(zip(METRIC_NAMES, record[2:-2]))
                rows.append(
                    _imported_row(row, record[0], record[1], values, record[-2], record[-1] or None)
                )
    elif fmt == "json":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        for i, item in enumerate(payload["rows"]):
            rows.append(
                _imported_row(
                    f"{path!r} rows[{i}]",
                    item["file"],
                    item["contract"],
                    item["metrics"],
                    item["label"],
                    item.get("type"),
                )
            )
    else:
        raise CorpusError(f"unknown import format {fmt!r}")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    n_vulnerable = sum(1 for r in rows if r.label == LABEL_VULNERABLE)
    return LabeledContractSet(
        rows=rows,
        n_vulnerable=n_vulnerable,
        n_neutral=len(rows) - n_vulnerable,
        provenance=(path, digest),
    )
