"""Run settings shared by the CLI and the analysis pipeline.

This module imports nothing of the statistics layer, so a command that
computes no statistic (``export``) validates its settings with the same
messages as ``analyze`` without importing that layer.
"""

from __future__ import annotations

from .errors import InputError

ANALYSES = ("rq1", "rq2", "rq3", "rq4")
FORMATS = ("csv", "json", "md")


def check_jobs(jobs: int) -> None:
    """Reject a ``--jobs`` value below one, for every command."""
    if jobs < 1:
        raise InputError("jobs must be at least 1")


class RunConfig:
    """The settings of one run; a value out of range raises :class:`InputError`."""

    __slots__ = (
        "source_root", "manifest", "output_dir", "seed", "ci_level",
        "redundancy_threshold", "significance", "formats", "jobs",
    )

    def __init__(
        self, source_root: str = "", manifest: str = "", output_dir: str = "", seed: int = 42,
        ci_level: float = 0.95, redundancy_threshold: float = 0.9, significance: float = 0.05,
        formats: tuple[str, ...] = FORMATS, jobs: int = 1,
    ) -> None:
        if not 0.0 < ci_level < 1.0:
            raise InputError("ci_level must lie strictly between 0 and 1")
        if not 0.0 < significance < 1.0:
            raise InputError("significance must lie strictly between 0 and 1")
        if not 0.0 < redundancy_threshold <= 1.0:
            raise InputError("redundancy_threshold must lie in (0, 1]")
        check_jobs(jobs)
        unknown = set(formats) - set(FORMATS)
        if unknown:
            raise InputError(f"unknown formats: {sorted(unknown)}")
        self.source_root = source_root
        self.manifest = manifest
        self.output_dir = output_dir
        self.seed = seed
        self.ci_level = ci_level
        self.redundancy_threshold = redundancy_threshold
        self.significance = significance
        self.formats = formats
        self.jobs = jobs
