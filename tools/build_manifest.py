#!/usr/bin/env python3
"""Build a corpus manifest from a tree of .sol files.

Walks a source root, reads every file through ``solmetrics.corpus.parse_files``
to enumerate its contracts, and writes the `file,contract,label,type`
manifest the analyzer consumes. Labels come from an optional labels CSV;
anything unlabeled gets --default-label.

Files are read as the corpus commands read them, with the same skips and
the same forked workers where they pay. A skipped file and each parse
diagnostic are reported on stderr as ``skipped ...`` lines.

Labels CSV rows are either per-contract or per-file; blank lines and
``#`` lines are skipped, and the first other row may be a ``file,...``
header:

    file,contract,label[,type]     one contract in that file
    file,label[,type]              every contract in that file

The labels CSV is read and its labels and types are checked as
``solmetrics.corpus.load_manifest`` reads and checks a manifest, so the
manifest written is one it reads back with the same label and type on
every row. A label row's file is a path under the source root, and
spellings with one ``os.path.normpath`` (``a.sol``, ``./a.sol``) name one
file. A label row that labels no contract is reported on stderr as
``skipped LABELS:LINE: ...``: no such file or contract, a file that does
not parse, or a per-file row whose contracts all have rows of their own.

These exit 1 with one line on stderr, before any manifest is written:

- a labels CSV that cannot be read or is not valid UTF-8;
- a label row of neither form, extra fields included;
- a label row ``load_manifest`` would refuse: a type on a neutral row,
  or a type other than the eight of ``VULNERABILITY_TYPES``;
- two label rows for one key (a file and contract, or a file), naming
  both lines;
- a source root that is not a directory;
- an inheritance cycle, which every corpus command refuses;
- an ``--out`` that cannot be written, as ``cannot write output
  '<path>': <reason>``.

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
    _check_label,
    _read_text,
    available_cpus,
    parse_files,
)
from solmetrics.errors import CorpusError

LABELS = (LABEL_VULNERABLE, LABEL_NEUTRAL)


def load_labels(path: str) -> dict[tuple[str, str | None], tuple[str, str, int]]:
    """Each label row as ``(label, type, line)``, keyed by its normalized
    file path and its contract name, or None for a per-file row; the type
    is empty on a row without one. Raises :class:`CorpusError` naming the
    file or the row."""
    labels: dict[tuple[str, str | None], tuple[str, str, int]] = {}
    text, _ = _read_text(path, "labels CSV")
    seen_row = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        is_header = not seen_row and parts[0] == "file"
        seen_row = True
        if is_header:
            continue
        if len(parts) in (3, 4) and parts[2] in LABELS:
            file, contract, rest = parts[0], parts[1], parts[2:]
        elif len(parts) in (2, 3) and parts[1] in LABELS:
            file, contract, rest = parts[0], None, parts[1:]
        else:
            raise CorpusError(
                f"{path}:{lineno}: expected file,contract,label[,type] or file,label[,type],"
                f" got {line!r}"
            )
        label, vuln_type = rest[0], rest[1] if len(rest) > 1 else ""
        _check_label(f"{path}:{lineno}", label, vuln_type or None)
        key = (os.path.normpath(file), contract)
        if key in labels:
            raise CorpusError(f"{path}:{lineno}: repeats the label row on line {labels[key][2]}")
        labels[key] = (label, vuln_type, lineno)
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

    walked: list[str] = []
    try:
        labels = load_labels(args.labels) if args.labels else {}
        if not os.path.isdir(args.root):
            raise CorpusError(f"source root {args.root!r} is not a directory")
        for dirpath, dirnames, filenames in os.walk(args.root):
            dirnames.sort()
            walked.extend(
                os.path.relpath(os.path.join(dirpath, name), args.root)
                for name in sorted(filenames)
                if name.endswith(".sol")
            )
        files = [rel for rel in walked if _manifest_can_hold(rel)]
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
            rows.append(f"{rel},{contract.name},{label},{vuln_type}")
            counts[label] += 1
    for (file, contract), (_, _, line) in sorted(labels.items(), key=lambda item: item[1][2]):
        if (file, contract) not in labeled:
            target = file if contract is None else f"{file}:{contract}"
            skipped.append(f"{args.labels}:{line}: label row for {target} labels no contract")

    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(",".join(MANIFEST_HEADER) + "\n")
            fh.write("\n".join(rows) + ("\n" if rows else ""))
    except OSError as exc:
        sys.exit(f"cannot write output {args.out!r}: {exc.strerror or exc}")

    print(
        f"wrote {len(rows)} entries to {args.out} "
        f"({counts[LABEL_VULNERABLE]} vulnerable, {counts[LABEL_NEUTRAL]} neutral)"
    )
    for message in skipped:
        print(f"skipped {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
