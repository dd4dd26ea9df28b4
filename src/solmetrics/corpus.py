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
from typing import NamedTuple

from .errors import CorpusError, LexError
from .inheritance import InheritanceGraph, build_inheritance_graph
from .lexer import tokenize
from .metrics import METRIC_FIELDS, METRIC_NAMES, ContractMetrics, contract_metrics
from .nodes import Record
from .parser import line_accounting, normalized_contract_text, parse_file

LABEL_VULNERABLE = "vulnerable"
LABEL_NEUTRAL = "neutral"

# timestamp dependency, block number dependency, dangerous delegatecall,
# Ether frozen, unchecked external call, reentrancy, integer overflow,
# dangerous Ether strict equality
VULNERABILITY_TYPES = frozenset({"TP", "BN", "DG", "EF", "UC", "RE", "OF", "SE"})

MANIFEST_HEADER = ("file", "contract", "label", "type")

# The bytes forked workers must take off the critical path to pay for
# forking. Measured on a 2-vCPU VM, Python 3.11.7: `metrics --jobs 2`, forced
# to fork, against `--jobs 1` on prefixes of the perfbench small_files and
# imported_bases corpora (seed 1, 24 rotated rounds each). Per run forking
# lost 1.9 ms at 10 KB off the path, broke even at 20 KB and won 1.7-2.1 ms at
# 30 KB and 3.4-3.7 ms at 40 KB; twice the break-even leaves slower forks room.
POOL_BREAK_EVEN_BYTES = 40_000


class ManifestEntry(NamedTuple):
    file: str
    contract: str
    label: str
    vuln_type: str | None = None


class CorpusManifest(NamedTuple):
    entries: tuple[ManifestEntry, ...]
    path: str
    content_hash: str


class ContractRow(NamedTuple):
    file: str
    contract: str
    metrics: ContractMetrics
    label: str
    vuln_type: str | None = None

    @property
    def contract_id(self) -> str:
        return f"{self.file}:{self.contract}"


class LabeledContractSet(Record):
    """The labeled rows of a corpus and their counts by label, counted here.
    ``provenance`` (the manifest or table path and its sha256) and
    ``diagnostics`` take no part in equality."""

    _fields = ("rows", "n_vulnerable", "n_neutral")
    __slots__ = _fields + ("provenance", "diagnostics")

    def __init__(self, rows: list[ContractRow], provenance: tuple[str, str] = ("", ""),
                 diagnostics: list[str] | None = None):
        self.rows = rows
        self.n_vulnerable = sum(1 for r in rows if r.label == LABEL_VULNERABLE)
        self.n_neutral = len(rows) - self.n_vulnerable
        self.provenance = provenance
        self.diagnostics = [] if diagnostics is None else diagnostics

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
    and duplicate (file, contract) keys, naming the offending row. A file
    is known by its ``os.path.normpath``, as :func:`parse_files` knows it,
    so ``a.sol`` and ``./a.sol`` name one file.
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
        key = (os.path.normpath(file), contract)
        if key in seen:
            raise CorpusError(f"manifest row {lineno}: duplicate entry for {file}:{contract}")
        seen.add(key)
        entries.append(ManifestEntry(file, contract, label, vuln_type))
    return CorpusManifest(tuple(entries), path, content_hash)


class ContractFacts(NamedTuple):
    """One parsed contract as a worker sends it back, without its parse tree."""

    name: str
    base_names: list[str]
    digest: str
    metrics: ContractMetrics


class _ParsedFile(Record):
    _fields = __slots__ = ("path", "error", "contracts", "diagnostics")

    def __init__(self, path: str, error: str | None = None,
                 contracts: list[ContractFacts] | None = None, diagnostics: list[str] | None = None):
        self.path = path
        self.error = error
        self.contracts = [] if contracts is None else contracts
        self.diagnostics = [] if diagnostics is None else diagnostics


def _parse_sol_file(args: tuple[str, str]) -> _ParsedFile:
    """Read, parse and measure one file; the parse tree stays in this process.

    Each contract is measured against an empty inheritance graph, which
    holds no contract, so its DIT, NOA and NOD read 0 here;
    :func:`parse_files` sets them from the corpus graph.
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
        empty = InheritanceGraph()
        contracts = []
        for contract in unit.contracts:
            lines = line_accounting(unit, contract)
            text = normalized_contract_text(unit, contract)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            metrics = contract_metrics(contract, lines, empty, file)
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


def _plan_shares(root: str, files: list[str], workers: int) -> list[list[int]] | None:
    """The indices of ``files`` split into one share per worker, if
    ``workers`` processes can pay for forking; None if this one parses faster.

    The parse takes at least as long as its largest file or an equal share
    of all the bytes, so the other workers take at most the bytes above that
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
    # Largest first, each to the lightest share (LPT; Graham, SIAM J. Appl.
    # Math. 1969): a large file placed last would finish alone.
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for i in sorted(range(len(files)), key=sizes.__getitem__, reverse=True):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += sizes[i]
    return shares


def _fork_join(tasks: list[tuple[str, str]], shares: list[list[int]]) -> list[_ParsedFile]:
    """Parse the first share here and each other share in a forked child
    that pipes its results back; results come back in the order of
    ``tasks``. A child that fails costs time: its share is parsed here.
    So does a pipe or fork that fails: no more children are forked, and
    every share without one is parsed here."""
    import pickle  # imported here: a run that parses in this process pickles nothing

    children = []
    try:
        for share in shares[1:]:
            fds = ()
            try:
                fds = reader, writer = os.pipe()
                pid = os.fork()
            except OSError:  # EAGAIN, EMFILE, ENOMEM: no child for this share or the rest
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:  # the child never returns into its caller's frames
                try:
                    with open(writer, "wb") as out:
                        pickle.dump([_parse_sol_file(tasks[i]) for i in share], out)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(writer)  # or the next child holds it, and reading waits for it
            children.append((pid, open(reader, "rb")))
        here = [shares[0], *shares[1 + len(children) :]]
        parsed = {i: _parse_sol_file(tasks[i]) for share in here for i in share}
        payloads = [pipe.read() for _, pipe in children]
    finally:
        for _, pipe in children:
            pipe.close()  # a child still writing ends, and no child outlives the join
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for share, payload, status in zip(shares[1:], payloads, statuses):
        try:  # a failed exit or a short or unreadable payload costs time, not output
            parsed.update(zip(share, pickle.loads(payload) if status == 0 else (), strict=True))
        except Exception:
            parsed.update((i, _parse_sol_file(tasks[i])) for i in share)
    return [parsed[i] for i in range(len(tasks))]


def parse_files(root: str, files: list[str], jobs: int = 1) -> list[_ParsedFile]:
    """Parse and measure each distinct file of ``files``, optionally across processes.

    Spellings with one ``os.path.normpath`` (``a.sol``, ``./a.sol``,
    ``sub/../a.sol``) name one file; the rule is lexical and follows no
    link. Each file is read once, under its first spelling, and the results
    come in the order the files are first named: one per distinct
    normalized path, so ``len(result)`` can be less than ``len(files)``.

    With more than one worker allowed (``jobs``, capped by the files and by
    :func:`available_cpus`) and ``os.fork`` at hand, the file sizes decide
    whether forked workers can beat this process (see :func:`_plan_shares`).
    One inheritance graph over all the files then sets every contract's DIT,
    NOA and NOD. Raises :class:`CorpusError` on an inheritance cycle.
    """
    firsts: dict[str, str] = {}
    for file in files:
        firsts.setdefault(os.path.normpath(file), file)
    files = list(firsts.values())
    tasks = [(root, f) for f in files]
    # no more workers than files or CPUs, whatever --jobs asks for
    workers = min(jobs, len(tasks), available_cpus())
    shares = _plan_shares(root, files, workers) if workers > 1 and hasattr(os, "fork") else None
    if shares is not None:
        parsed = _fork_join(tasks, shares)
    else:
        parsed = [_parse_sol_file(t) for t in tasks]
    graph = build_inheritance_graph(parsed)
    for pf in parsed:
        for i, facts in enumerate(pf.contracts):
            key = (pf.path, facts.name)
            m = facts.metrics
            tree = graph.dit(key), graph.noa(key), graph.nod(key)
            if tree != (m.dit, m.noa, m.nod):  # 0, 0, 0 as the worker measured them
                dit, noa, nod = tree
                pf.contracts[i] = facts._replace(metrics=m._replace(dit=dit, noa=noa, nod=nod))
    return parsed


def ingest(
    manifest: CorpusManifest, source_root: str, jobs: int = 1
) -> LabeledContractSet:
    """Join the metric facts of every manifest entry's file with its label.

    Entries are matched to files as :func:`parse_files` tells files apart,
    and each row and diagnostic keeps the spelling its entry wrote. Each
    entry either becomes a row or a skip diagnostic; duplicate contract
    bodies keep their first occurrence. Raises :class:`CorpusError` when
    more than half of the entries skip for reasons other than
    deduplication, or on an inheritance cycle.
    """
    files = [entry.file for entry in manifest.entries]
    parsed = {os.path.normpath(pf.path): pf for pf in parse_files(source_root, files, jobs)}
    diagnostics = [d for pf in parsed.values() for d in pf.diagnostics]
    facts_by_key = {(path, c.name): c for path, pf in parsed.items() for c in pf.contracts}

    rows: list[ContractRow] = []
    seen_hashes: dict[str, str] = {}
    error_skips = 0
    for entry in manifest.entries:
        path = os.path.normpath(entry.file)
        pf = parsed[path]
        if pf.error is not None:
            diagnostics.append(f"{entry.file}:{entry.contract}: skipped ({pf.error})")
            error_skips += 1
            continue
        facts = facts_by_key.get((path, entry.contract))
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
    return LabeledContractSet(rows, (manifest.path, manifest.content_hash), diagnostics)


# ---------------------------------------------------------------------------
# metric table export / import

EXPORT_HEADER = ("file", "contract") + METRIC_NAMES + ("label", "type")

# The formats a metric table is exported to and imported from.
TABLE_FORMATS = ("csv", "json")

# Each metric's value type, as METRIC_TABLE declares it.
_METRIC_TYPES = dict(METRIC_FIELDS)


class _JsonLayout(json.JSONEncoder):
    """The layout of every JSON file the package writes: two-space indent,
    sorted keys and a trailing newline."""

    def iterencode(self, o: object, _one_shot: bool = False):
        yield from super().iterencode(o, _one_shot)
        yield "\n"


JSON_ENCODER = _JsonLayout(indent=2, sort_keys=True)


def write_json(path: str, payload: object) -> None:
    """Stream ``payload`` to ``path`` in the package's JSON layout, its
    lines ending in ``\\n`` on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(JSON_ENCODER.iterencode(payload))


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
        write_json(path, payload)
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
    if fmt not in TABLE_FORMATS:
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
    return LabeledContractSet(rows, (path, digest))
