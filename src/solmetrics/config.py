"""Run settings shared by the CLI and the analysis pipeline.

This module imports nothing of the statistics layer, so a command that
computes no statistic (``export``) validates its settings with the same
messages as ``analyze`` without importing that layer. The ``DEFAULT_*``
values are the settings' only defaults; the analyses and statistics read them.
"""

from __future__ import annotations

from .errors import InputError

ANALYSES = ("rq1", "rq2", "rq3", "rq4")
FORMATS = ("csv", "json", "md")

DEFAULT_SEED = 42  # rq3's size-matched neutral subsample
DEFAULT_CI_LEVEL = 0.95
DEFAULT_REDUNDANCY_THRESHOLD = 0.9  # rq1 reports pairs with |rho| above it
DEFAULT_SIGNIFICANCE = 0.05


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
        self, source_root: str = "", manifest: str = "", output_dir: str = "",
        seed: int = DEFAULT_SEED, ci_level: float = DEFAULT_CI_LEVEL,
        redundancy_threshold: float = DEFAULT_REDUNDANCY_THRESHOLD,
        significance: float = DEFAULT_SIGNIFICANCE, formats: tuple[str, ...] = FORMATS,
        jobs: int = 1,
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
