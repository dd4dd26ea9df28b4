#!/usr/bin/env python3
"""Build a corpus manifest from a tree of .sol files.

Walks a source root, reads every file through ``solmetrics.corpus.parse_files``
to enumerate its contracts, and writes the `file,contract,label,type`
manifest the analyzer consumes. Labels come from an optional labels CSV;
anything unlabeled gets --default-label.

Files are read as the corpus commands read them, with the same skips and
the same forked workers where they pay. A skipped file and each parse
diagnostic are reported on stderr as ``skipped ...`` lines. An inheritance
cycle, which every corpus command refuses, exits 1 before any manifest is
written.

Labels CSV rows are either per-contract or per-file:

    file,contract,label[,type]     one contract in that file
    file,label[,type]              every contract in that file

A label row's file is a path under the source root, and spellings with
one ``os.path.normpath`` (``a.sol``, ``./a.sol``) name one file. A label
row that labels no contract is reported on stderr as
``skipped LABELS:LINE: ...``: no such file or contract, a file that does
not parse, or a per-file row whose contracts all have rows of their own.
Two rows for one key (a file and contract, or a file) exit 1 naming both
lines.

Example:

    python3 tools/build_manifest.py dataset/contracts \\
        --labels dataset/labels.csv --out dataset/manifest.csv

The resulting directory (manifest.csv next to the source tree root given
here) is what SOLMETRICS_DATASET should point at for the dataset-gated
acceptance tests.
"""

from __future__ import annotations

import argparse
import os
import sys

from solmetrics.corpus import (
    LABEL_NEUTRAL,
    LABEL_VULNERABLE,
    MANIFEST_HEADER,
    VULNERABILITY_TYPES,
    available_cpus,
    parse_files,
)
from solmetrics.errors import CorpusError

LABELS = (LABEL_VULNERABLE, LABEL_NEUTRAL)


def load_labels(path: str) -> dict[tuple[str, str | None], tuple[str, str, int]]:
    """Each label row as ``(label, type, line)``, keyed by its normalized
    file path and its contract name, or None for a per-file row."""
    labels: dict[tuple[str, str | None], tuple[str, str, int]] = {}
    # utf-8-sig drops the byte-order mark spreadsheet tools save CSV with
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and parts[0] == "file":
                continue  # header
            if len(parts) >= 3 and parts[2] in LABELS:
                file, contract, rest = parts[0], parts[1], parts[2:]
            elif len(parts) >= 2 and parts[1] in LABELS:
                file, contract, rest = parts[0], None, parts[1:]
            else:
                sys.exit(f"{path}:{lineno}: cannot interpret label row: {line!r}")
            key = (os.path.normpath(file), contract)
            if key in labels:
                sys.exit(f"{path}:{lineno}: repeats the label row on line {labels[key][2]}")
            labels[key] = (rest[0], rest[1] if len(rest) > 1 else "", lineno)
    return labels


def _manifest_can_hold(path: str) -> bool:
    """Whether ``load_manifest`` reads ``path`` back unchanged from one field."""
    return "," not in path and path.splitlines() == [path] and path.strip() == path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", help="directory tree of .sol files")
    parser.add_argument("--labels", help="labels CSV (per-contract or per-file rows)")
    parser.add_argument("--out", default="manifest.csv", help="manifest path to write")
    parser.add_argument("--default-label", default=LABEL_NEUTRAL, choices=LABELS)
    args = parser.parse_args(argv)

    labels = load_labels(args.labels) if args.labels else {}

    walked: list[str] = []
    for dirpath, dirnames, filenames in os.walk(args.root):
        dirnames.sort()
        walked.extend(
            os.path.relpath(os.path.join(dirpath, name), args.root)
            for name in sorted(filenames)
            if name.endswith(".sol")
        )
    files = [rel for rel in walked if _manifest_can_hold(rel)]
    try:
        parsed = {pf.path: pf for pf in parse_files(args.root, files, available_cpus())}
    except CorpusError as exc:
        sys.exit(str(exc))

    rows: list[str] = []
    skipped: list[str] = []
    labeled: set[tuple[str, str | None]] = set()  # the keys of labels that label a contract
    counts = {LABEL_VULNERABLE: 0, LABEL_NEUTRAL: 0}
    for rel in walked:
        pf = parsed.get(rel)
        if pf is None:
            skipped.append(f"{rel!r}: a comma, line break or edge blank in the path")
            continue
        if pf.error is not None:
            skipped.append(f"{rel}: {pf.error}")
        skipped.extend(pf.diagnostics)
        for contract in pf.contracts:
            key = (rel, contract.name) if (rel, contract.name) in labels else (rel, None)
            labeled.add(key)
            label, vuln_type, _ = labels.get(key, (args.default_label, "", 0))
            if label == LABEL_NEUTRAL:
                vuln_type = ""
            if vuln_type and vuln_type not in VULNERABILITY_TYPES:
                skipped.append(f"{rel}:{contract.name}: unknown type {vuln_type!r}")
                vuln_type = ""
            rows.append(f"{rel},{contract.name},{label},{vuln_type}")
            counts[label] += 1
    for (file, contract), (_, _, line) in sorted(labels.items(), key=lambda item: item[1][2]):
        if (file, contract) not in labeled:
            target = file if contract is None else f"{file}:{contract}"
            skipped.append(f"{args.labels}:{line}: label row for {target} labels no contract")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(MANIFEST_HEADER) + "\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))

    print(
        f"wrote {len(rows)} entries to {args.out} "
        f"({counts[LABEL_VULNERABLE]} vulnerable, {counts[LABEL_NEUTRAL]} neutral)"
    )
    for message in skipped:
        print(f"skipped {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
