"""Command-line surface: metric extraction, full analysis, single runners.

Exit codes: 0 clean, 1 nothing usable / global failure, 2 finished with
diagnostics (partial skips).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

from . import __version__
from .config import ANALYSES, RunConfig, check_jobs
from .corpus import available_cpus, export_metrics, ingest, load_manifest, parse_files
from .errors import CorpusError, InputError
# Not called here since ingest owns them, but perfbench/trace_child.py wraps them on this module.
from .inheritance import build_inheritance_graph  # noqa: F401
from .metrics import METRIC_NAMES, contract_metrics  # noqa: F401

if TYPE_CHECKING:
    from .pipeline import run_analysis, run_record, run_section
    from .reports import hash_outputs, write_report, write_run_manifest, write_section

# The analysis commands' functions. Importing the pipeline, statistics and
# report modules costs more than `metrics` and `export` need, so these are
# bound as module globals only when an analysis command runs or a caller
# reads one.
_PIPELINE_NAMES = ("run_analysis", "run_record", "run_section")
_REPORT_NAMES = ("hash_outputs", "write_report", "write_run_manifest", "write_section")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIAGNOSTICS = 2


def _load_analysis() -> None:
    """Bind the pipeline and report functions as globals of this module.

    A name already bound is kept, so a replacement set on this module (as
    a tracer does) is the function the commands call.
    """
    from . import pipeline, reports

    names = globals()
    for module, attrs in ((pipeline, _PIPELINE_NAMES), (reports, _REPORT_NAMES)):
        for attr in attrs:
            names.setdefault(attr, getattr(module, attr))


def __getattr__(name: str):
    if name in _PIPELINE_NAMES or name in _REPORT_NAMES:
        _load_analysis()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _formats(value: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in value.split(",") if p.strip())
    unknown = set(parts) - {"csv", "json", "md"}
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown format(s): {', '.join(sorted(unknown))}")
    return parts


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--manifest", required=True, help="corpus manifest CSV")
    sub.add_argument("--root", required=True, help="source root for manifest paths")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--ci-level", type=float, default=0.95)
    sub.add_argument("--redundancy-threshold", type=float, default=0.9)
    sub.add_argument("--significance", type=float, default=0.05)
    sub.add_argument("--format", type=_formats, default=("csv", "json", "md"))
    sub.add_argument("--jobs", type=int, default=available_cpus())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solmetrics",
        description="Solidity complexity metrics and vulnerability statistics",
    )
    parser.add_argument("--version", action="version", version=f"solmetrics {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_metrics = subs.add_parser("metrics", help="print per-contract metric rows as CSV")
    p_metrics.add_argument("paths", nargs="+", help=".sol files to analyze")
    p_metrics.add_argument("--jobs", type=int, default=available_cpus())

    p_analyze = subs.add_parser("analyze", help="run all four analyses over a labeled corpus")
    _add_run_flags(p_analyze)

    for key in ANALYSES:
        p_single = subs.add_parser(key, help=f"run only the {key} analysis")
        _add_run_flags(p_single)

    p_export = subs.add_parser("export", help="ingest a corpus and export the metric table")
    _add_run_flags(p_export)

    return parser


def cmd_metrics(paths: list[str], jobs: int) -> int:
    check_jobs(jobs)
    diagnostics: list[str] = []
    rows = []
    # A file named twice (b.sol, ./b.sol) would measure its contracts twice and
    # make their names ambiguous; it is measured once, under its first spelling.
    files: dict[str, str] = {}
    for path in paths:
        files.setdefault(os.path.normpath(path), path)
    for pf in parse_files("", list(files.values()), jobs):
        if pf.error is not None:
            diagnostics.append(f"{pf.path}:1: {pf.error}")
        diagnostics.extend(pf.diagnostics)
        rows.extend((pf.path, facts.name, facts.metrics) for facts in pf.contracts)
    rows.sort(key=lambda r: (r[0], r[1]))
    for message in diagnostics:
        print(message, file=sys.stderr)
    if not rows:
        print("no parsable contract in any input", file=sys.stderr)
        return EXIT_ERROR
    writer = csv.writer(sys.stdout)
    writer.writerow(("file", "contract") + METRIC_NAMES)
    for file, name, metrics in rows:
        writer.writerow([file, name] + metrics.as_cells())
    return EXIT_DIAGNOSTICS if diagnostics else EXIT_OK


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        source_root=args.root,
        manifest=args.manifest,
        output_dir=args.out,
        seed=args.seed,
        ci_level=args.ci_level,
        redundancy_threshold=args.redundancy_threshold,
        significance=args.significance,
        formats=args.format,
        jobs=args.jobs,
    )


def _ingest_for(config: RunConfig):
    manifest = load_manifest(config.manifest)
    contract_set = ingest(manifest, config.source_root, config.jobs)
    for message in contract_set.diagnostics:
        print(message, file=sys.stderr)
    return contract_set


@contextmanager
def _writing_to(outdir: str):
    """Turn a failed write under ``--out`` into a :class:`CorpusError` naming the path."""
    try:
        yield
    except OSError as exc:
        path = exc.filename or outdir
        raise CorpusError(f"cannot write output {path!r}: {exc.strerror or exc}") from exc


@contextmanager
def _output_dir(outdir: str):
    """Create ``--out`` before any source is read, so a path that cannot
    hold the outputs fails at once. If the command then fails, the
    directories made here are removed again while they are empty."""
    made = []
    path = os.path.abspath(outdir)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    with _writing_to(outdir):
        os.makedirs(outdir, exist_ok=True)
    try:
        yield
    except BaseException:
        for path in made:
            try:
                os.rmdir(path)
            except OSError:
                break
        raise


def cmd_analyze(config: RunConfig) -> int:
    contract_set = _ingest_for(config)
    _load_analysis()
    report = run_analysis(contract_set, config)
    with _writing_to(config.output_dir):
        outputs = write_report(report, config.output_dir, config.formats)
        write_run_manifest(config.output_dir, report.config, __version__, outputs)
    return EXIT_DIAGNOSTICS if contract_set.diagnostics else EXIT_OK


def cmd_single(key: str, config: RunConfig) -> int:
    contract_set = _ingest_for(config)
    _load_analysis()
    section = run_section(key, contract_set, config)
    with _writing_to(config.output_dir):
        written = write_section(key, section, config.output_dir, config.formats)
        outputs = hash_outputs(config.output_dir, written)
        write_run_manifest(config.output_dir, run_record(contract_set, config), __version__, outputs)
    return EXIT_DIAGNOSTICS if contract_set.diagnostics else EXIT_OK


def cmd_export(config: RunConfig) -> int:
    contract_set = _ingest_for(config)
    formats = [f for f in config.formats if f in ("csv", "json")] or ["csv"]
    with _writing_to(config.output_dir):
        for fmt in formats:
            export_metrics(contract_set, os.path.join(config.output_dir, f"metrics.{fmt}"), fmt)
    return EXIT_DIAGNOSTICS if contract_set.diagnostics else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "metrics":
            return cmd_metrics(args.paths, args.jobs)
        config = _config_from_args(args)
        with _output_dir(config.output_dir):
            if args.command == "analyze":
                return cmd_analyze(config)
            if args.command in ANALYSES:
                return cmd_single(args.command, config)
            if args.command == "export":
                return cmd_export(config)
    except (CorpusError, InputError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    parser.error(f"unknown command {args.command!r}")
    return EXIT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
