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
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

from .errors import CorpusError, LexError
from .inheritance import InheritanceGraph, build_inheritance_graph
from .lexer import tokenize
from .metrics import METRIC_NAMES, ContractMetrics, contract_metrics
from .parser import line_accounting, normalized_contract_text, parse_file

LABEL_VULNERABLE = "vulnerable"
LABEL_NEUTRAL = "neutral"

# timestamp dependency, block number dependency, dangerous delegatecall,
# Ether frozen, unchecked external call, reentrancy, integer overflow,
# dangerous Ether strict equality
VULNERABILITY_TYPES = frozenset({"TP", "BN", "DG", "EF", "UC", "RE", "OF", "SE"})

MANIFEST_HEADER = ("file", "contract", "label", "type")

# The bytes a parse pool must take off the critical path before it pays for
# starting its workers. Measured on a 2-vCPU VM with Python 3.11.7: this
# module's pool, forced on, in `metrics --jobs 2` against `--jobs 1`, on
# prefixes of the perfbench small_files and imported_bases corpora (seed 1,
# 24 alternating pairs per prefix). Per pair the pool lost a median 8 ms at
# 81 KB off the path and 4-5 ms at 100 KB, broke even at 120 KB (+0.6 ms on
# one corpus, -0.9 ms on the other) and won 3 ms at 140 KB.
POOL_BREAK_EVEN_BYTES = 120_000


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


def _read_text(path: str, what: str) -> tuple[str, str]:
    """The UTF-8 text of a file and the sha256 of its bytes, read once;
    a leading byte-order mark is dropped from the text, not from the hash.
    An unreadable or undecodable file raises :class:`CorpusError`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{what} {path!r} is not valid UTF-8") from exc
    return text, hashlib.sha256(raw).hexdigest()


def load_manifest(path: str) -> CorpusManifest:
    """Load and validate a corpus manifest.

    Rejects unknown labels, misplaced or unknown vulnerability type tags,
    and duplicate (file, contract) keys, naming the offending row.
    """
    text, content_hash = _read_text(path, "manifest")
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
        unit = parse_file(tokens, file)
        alone = InheritanceGraph()
        contracts = []
        for contract in unit.contracts:
            lines = line_accounting(unit, contract)
            text = normalized_contract_text(unit, contract)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            metrics = contract_metrics(contract, lines, alone, file)
            contracts.append(ContractFacts(contract.name, contract.base_names, digest, metrics))
    except LexError as exc:
        return _ParsedFile(file, error=f"lex error: {exc}")
    except Exception as exc:
        # Last resort: a defect that one input trips skips that file, at any
        # --jobs, instead of aborting the whole run with a traceback.
        return _ParsedFile(file, error=f"internal error: {type(exc).__name__}: {exc}")
    return _ParsedFile(file, contracts=contracts, diagnostics=[str(d) for d in unit.diagnostics])


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, not every CPU of the machine."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_order(root: str, files: list[str], workers: int) -> list[int] | None:
    """The indices of ``files``, largest file first, if a pool of
    ``workers`` can pay for its start; None if this process parses faster.

    A pool takes at least as long as its largest file or an equal share of
    all the bytes, so the other workers take at most the bytes above that
    off the critical path. Sizes come from ``os.stat``; a file that cannot
    be read counts 0 bytes, and its worker reports it.
    """
    sizes = []
    for file in files:
        try:
            sizes.append(os.stat(os.path.join(root, file)).st_size)
        except OSError:
            sizes.append(0)
    total = sum(sizes)
    if total - max(max(sizes), total / workers) < POOL_BREAK_EVEN_BYTES:
        return None
    # Largest first (LPT; Graham, SIAM J. Appl. Math. 1969): a large file
    # handed out last would finish alone after every other worker is idle.
    return sorted(range(len(files)), key=sizes.__getitem__, reverse=True)


def _parse_in_pool(
    tasks: list[tuple[str, str]], order: list[int], workers: int
) -> list[_ParsedFile]:
    """Parse ``tasks`` across ``workers`` processes in ``order``; results
    come back in the order of ``tasks``."""
    # imported here: a run that parses in this process loads no multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers start in milliseconds and share the loaded modules.
    # Python 3.14 defaults to forkserver on Linux; forced on 3.11, it made two
    # workers parse the flattened corpus in 0.132 s against 0.049 s forked,
    # which would move POOL_BREAK_EVEN_BYTES.
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    # at least two chunks per worker, so a few large files spread out
    chunksize = max(1, min(16, len(tasks) // (2 * workers)))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        results = pool.map(_parse_sol_file, [tasks[i] for i in order], chunksize=chunksize)
        by_index = dict(zip(order, results))
    return [by_index[i] for i in range(len(tasks))]


def parse_files(root: str, files: list[str], jobs: int = 1) -> list[_ParsedFile]:
    """Parse and measure many files, optionally across processes, in input order.

    With more than one worker allowed (``jobs``, capped by the files and by
    :func:`available_cpus`), the file sizes decide whether a process pool
    can beat this process (see :func:`_pool_order`). One inheritance graph
    over all the files then sets every contract's DIT, NOA and NOD. Raises
    :class:`CorpusError` on an inheritance cycle.
    """
    tasks = [(root, f) for f in files]
    # no more workers than files or CPUs, whatever --jobs asks for
    workers = min(jobs, len(tasks), available_cpus())
    order = _pool_order(root, files, workers) if workers > 1 else None
    if order is not None:
        parsed = _parse_in_pool(tasks, order, workers)
    else:
        parsed = [_parse_sol_file(t) for t in tasks]
    graph = build_inheritance_graph(parsed)
    for pf in parsed:
        for facts in pf.contracts:
            key = (pf.path, facts.name)
            m = facts.metrics
            m.dit, m.noa, m.nod = graph.dit(key), graph.noa(key), graph.nod(key)
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

# Each metric's value type, as its ContractMetrics field declares it.
_METRIC_TYPES = {f.name: {"int": int, "float": float}[f.type] for f in fields(ContractMetrics)}


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
                    + row.metrics.as_cells()
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
        cells = {name: cast(values[name]) for name, cast in _METRIC_TYPES.items()}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorpusError(f"{row}: bad metric value ({exc!r})") from exc
    for name, value in cells.items():
        # a float cell may read nan or inf (CSV) or NaN or Infinity (JSON)
        if isinstance(value, float) and not math.isfinite(value):
            raise CorpusError(f"{row}: metric {name!r} must be finite, got {value!r}")
    return ContractRow(file, contract, ContractMetrics(**cells), label, vuln_type)


def import_metrics(path: str, fmt: str = "csv") -> LabeledContractSet:
    """Read a table produced by :func:`export_metrics` back into a set.

    Rows are validated like manifest rows; a short row, a bad or
    non-finite metric value or a bad label raises :class:`CorpusError`
    naming the row. In JSON a metric must be a number, and an integer
    metric a JSON integer. A JSON document that nests too deeply or has no
    ``rows`` list raises one naming the file.
    """
    if fmt not in ("csv", "json"):
        raise CorpusError(f"unknown import format {fmt!r}")
    text, digest = _read_text(path, "metric table")
    rows: list[ContractRow] = []
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text, newline=""))
        header = tuple(next(reader, ()))
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
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path!r} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise CorpusError(f"{path!r} nests too deeply to decode") from exc
        items = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(items, list):
            raise CorpusError(f"{path!r}: expected a JSON object with a 'rows' list")
        for i, item in enumerate(items):
            row = f"{path!r} rows[{i}]"
            if not (
                isinstance(item, dict)
                and all(isinstance(item.get(key), str) for key in ("file", "contract", "label"))
                and isinstance(item.get("type"), (str, type(None)))
                and isinstance(item.get("metrics"), dict)
            ):
                raise CorpusError(
                    f"{row}: expected string file, contract and label, a metrics object"
                    " and a string or null type"
                )
            for name, value in item["metrics"].items():
                kind = _METRIC_TYPES.get(name)
                # bool is an int subclass; an int is also a valid float metric
                if kind is not None and (
                    isinstance(value, bool) or not isinstance(value, (int, kind))
                ):
                    expected = "an integer" if kind is int else "a number"
                    raise CorpusError(f"{row}: metric {name!r} must be {expected}, got {value!r}")
            rows.append(
                _imported_row(
                    row,
                    item["file"],
                    item["contract"],
                    item["metrics"],
                    item["label"],
                    item.get("type"),
                )
            )
    n_vulnerable = sum(1 for r in rows if r.label == LABEL_VULNERABLE)
    return LabeledContractSet(
        rows=rows,
        n_vulnerable=n_vulnerable,
        n_neutral=len(rows) - n_vulnerable,
        provenance=(path, digest),
    )
