"""Command-line surface: metric extraction, and the commands that read a
labeled corpus (all four analyses, one analysis, or the metric table).

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
from .config import ANALYSES, FORMATS, RunConfig, check_jobs
from .corpus import TABLE_FORMATS, available_cpus, export_metrics, ingest, load_manifest
from .corpus import parse_files
from .errors import CorpusError, InputError
# Not called here since ingest owns them, but perfbench/trace_child.py wraps them on this module.
from .inheritance import build_inheritance_graph  # noqa: F401
from .metrics import METRIC_NAMES, contract_metrics  # noqa: F401
from .nodes import Diagnostic

if TYPE_CHECKING:
    from .pipeline import run_analysis, run_record, run_section
    from .reports import write_report, write_run_manifest, write_section

# The analysis commands' functions. Importing the pipeline, statistics and
# report modules costs more than `metrics` and `export` need, so these are
# bound as module globals only when an analysis command runs or a caller
# reads one.
_PIPELINE_NAMES = ("run_analysis", "run_record", "run_section")
_REPORT_NAMES = ("write_report", "write_run_manifest", "write_section")

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
    unknown = set(parts) - set(FORMATS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown format(s): {', '.join(sorted(unknown))}")
    return parts


# The commands that read a labeled corpus, in the order --help lists them.
_RUN_COMMANDS = {
    "analyze": "run all four analyses over a labeled corpus",
    **{key: f"run only the {key} analysis" for key in ANALYSES},
    "export": "ingest a corpus and export the metric table",
}


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

    for command, help_text in _RUN_COMMANDS.items():
        # Each dest is a RunConfig field, and a flag left out sets nothing, so
        # RunConfig's default holds; only --jobs defaults to all usable CPUs.
        sub = subs.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        sub.add_argument("--manifest", required=True, help="corpus manifest CSV")
        sub.add_argument("--root", dest="source_root", metavar="ROOT", required=True,
                         help="source root for manifest paths")
        sub.add_argument("--out", dest="output_dir", metavar="OUT", required=True,
                         help="output directory")
        sub.add_argument("--seed", type=int)
        sub.add_argument("--ci-level", type=float)
        sub.add_argument("--redundancy-threshold", type=float)
        sub.add_argument("--significance", type=float)
        sub.add_argument("--format", dest="formats", metavar="FORMAT", type=_formats)
        sub.add_argument("--jobs", type=int, default=available_cpus())

    return parser


def cmd_metrics(paths: list[str], jobs: int) -> int:
    check_jobs(jobs)
    diagnostics: list[str] = []
    rows = []
    for pf in parse_files("", paths, jobs):
        if pf.error is not None:
            diagnostics.append(str(Diagnostic(pf.path, 1, pf.error)))
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


def cmd_run(command: str, config: RunConfig) -> int:
    """Ingest the manifest's corpus, then write what ``command`` makes of it
    under ``--out``: every analysis (``analyze``), one of :data:`ANALYSES`,
    or the metric table (``export``, which imports no analysis)."""
    contract_set = ingest(load_manifest(config.manifest), config.source_root, config.jobs)
    for message in contract_set.diagnostics:
        print(message, file=sys.stderr)
    with _writing_to(config.output_dir):
        if command == "export":
            for fmt in [f for f in config.formats if f in TABLE_FORMATS] or ["csv"]:
                export_metrics(contract_set, os.path.join(config.output_dir, f"metrics.{fmt}"), fmt)
        else:
            _load_analysis()
            if command == "analyze":
                report = run_analysis(contract_set, config)
                outputs = write_report(report, config.output_dir, config.formats)
                record = report.config
            else:
                section = run_section(command, contract_set, config)
                outputs = write_section(command, section, config.output_dir, config.formats)
                record = run_record(contract_set, config)
            write_run_manifest(config.output_dir, record, __version__, outputs)
    return EXIT_DIAGNOSTICS if contract_set.diagnostics else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "metrics":
            return cmd_metrics(args.paths, args.jobs)
        config = RunConfig(**{k: v for k, v in vars(args).items() if k != "command"})
        with _output_dir(config.output_dir):
            return cmd_run(args.command, config)
    except (CorpusError, InputError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
