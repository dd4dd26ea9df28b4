"""Run settings shared by the CLI and the analysis pipeline.

This module imports nothing of the statistics layer, so a command that
computes no statistic (``export``) validates its settings with the same
messages as ``analyze`` without importing that layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

ANALYSES = ("rq1", "rq2", "rq3", "rq4")


def check_jobs(jobs: int) -> None:
    """Reject a ``--jobs`` value below one, for every command."""
    if jobs < 1:
        raise InputError("jobs must be at least 1")


@dataclass
class RunConfig:
    source_root: str = ""
    manifest: str = ""
    output_dir: str = ""
    seed: int = 42
    ci_level: float = 0.95
    redundancy_threshold: float = 0.9
    significance: float = 0.05
    formats: tuple[str, ...] = ("csv", "json", "md")
    jobs: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.ci_level < 1.0:
            raise InputError("ci_level must lie strictly between 0 and 1")
        if not 0.0 < self.significance < 1.0:
            raise InputError("significance must lie strictly between 0 and 1")
        if not 0.0 < self.redundancy_threshold <= 1.0:
            raise InputError("redundancy_threshold must lie in (0, 1]")
        check_jobs(self.jobs)
        unknown = set(self.formats) - {"csv", "json", "md"}
        if unknown:
            raise InputError(f"unknown formats: {sorted(unknown)}")
