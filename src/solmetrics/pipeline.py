"""The four analyses over a labeled contract set.

rq1: cross-metric redundancy (per-group correlation matrices).
rq2: per-metric association with the 0/1 vulnerability label.
rq3: discriminative power via paired t-tests on a seeded size-matched
     neutral subsample, with Welch on the full groups as a robustness
     column.
rq4: per-group mean confidence intervals and their direction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .corpus import LABEL_VULNERABLE, LabeledContractSet
from .errors import DegenerateInputError, InputError
from .metrics import METRIC_NAMES
from .stats import (
    ConfidenceInterval,
    CorrelationMatrix,
    SpearmanResult,
    TTestResult,
    correlation_matrix,
    mean_confidence_interval,
    paired_t_test,
    spearman,
    welch_t_test,
)

GROUP_VULNERABLE = "vulnerable"
GROUP_NEUTRAL = "neutral"

HIGHER_IN_VULNERABLE = "higher-in-vulnerable"
HIGHER_IN_NEUTRAL = "higher-in-neutral"
OVERLAPPING = "overlapping"


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
        if self.jobs < 1:
            raise InputError("jobs must be at least 1")
        unknown = set(self.formats) - {"csv", "json", "md"}
        if unknown:
            raise InputError(f"unknown formats: {sorted(unknown)}")


@dataclass(frozen=True)
class RedundancyFinding:
    group: str
    rho: float
    p_value: float
    reliable: bool


@dataclass(frozen=True)
class RedundantPair:
    metric_a: str
    metric_b: str
    findings: tuple[RedundancyFinding, ...]


@dataclass(frozen=True)
class Rq1Section:
    vulnerable: CorrelationMatrix
    neutral: CorrelationMatrix
    redundant_pairs: tuple[RedundantPair, ...]
    threshold: float


@dataclass(frozen=True)
class Rq2Row:
    metric: str
    result: SpearmanResult | None  # None: metric column constant


@dataclass(frozen=True)
class Rq2Section:
    rows: tuple[Rq2Row, ...]


@dataclass(frozen=True)
class Rq3Row:
    metric: str
    paired: TTestResult | None
    welch: TTestResult | None
    discriminative: bool
    degenerate: bool = False


@dataclass(frozen=True)
class Rq3Section:
    rows: tuple[Rq3Row, ...]
    seed: int
    sample_size: int


@dataclass(frozen=True)
class Rq4Row:
    metric: str
    vulnerable: ConfidenceInterval
    neutral: ConfidenceInterval
    direction: str


@dataclass(frozen=True)
class Rq4Section:
    rows: tuple[Rq4Row, ...]
    level: float


@dataclass
class AnalysisReport:
    rq1: Rq1Section
    rq2: Rq2Section
    rq3: Rq3Section
    rq4: Rq4Section
    counts: tuple[int, int]
    config: dict = field(default_factory=dict)


def metric_columns(contract_set: LabeledContractSet) -> list[tuple[str, np.ndarray]]:
    """The 21 metric columns over all rows, in canonical order."""
    rows = contract_set.rows
    columns = []
    for name in METRIC_NAMES:
        columns.append(
            (name, np.array([getattr(r.metrics, name) for r in rows], dtype=np.float64))
        )
    return columns


def label_vector(contract_set: LabeledContractSet) -> np.ndarray:
    """0/1 encoding: neutral = 0, vulnerable = 1."""
    return np.array(
        [1.0 if r.label == LABEL_VULNERABLE else 0.0 for r in contract_set.rows],
        dtype=np.float64,
    )


def _split_columns(
    contract_set: LabeledContractSet,
) -> tuple[list[tuple[str, np.ndarray]], list[tuple[str, np.ndarray]]]:
    labels = label_vector(contract_set)
    vuln_mask = labels == 1.0
    columns = metric_columns(contract_set)
    vuln = [(name, col[vuln_mask]) for name, col in columns]
    neut = [(name, col[~vuln_mask]) for name, col in columns]
    return vuln, neut


def rq1_redundancy(
    contract_set: LabeledContractSet,
    threshold: float = 0.9,
    alpha: float = 0.05,
) -> Rq1Section:
    """Per-group correlation matrices and the |rho| > threshold pair list."""
    vuln_cols, neut_cols = _split_columns(contract_set)
    if vuln_cols[0][1].size < 3 or neut_cols[0][1].size < 3:
        raise InputError("each label group needs at least 3 rows for a correlation matrix")
    vuln_matrix = correlation_matrix(vuln_cols, alpha)
    neut_matrix = correlation_matrix(neut_cols, alpha)
    pairs: list[RedundantPair] = []
    k = len(METRIC_NAMES)
    for i in range(k):
        for j in range(i + 1, k):
            findings = []
            for group, matrix in (
                (GROUP_VULNERABLE, vuln_matrix),
                (GROUP_NEUTRAL, neut_matrix),
            ):
                cell = matrix.entries[i][j]
                if cell is not None and abs(cell.rho) > threshold:
                    findings.append(
                        RedundancyFinding(group, cell.rho, cell.p_value, cell.significant)
                    )
            if findings:
                pairs.append(
                    RedundantPair(METRIC_NAMES[i], METRIC_NAMES[j], tuple(findings))
                )
    return Rq1Section(vuln_matrix, neut_matrix, tuple(pairs), threshold)


def rq2_metric_vs_vulnerability(
    contract_set: LabeledContractSet, alpha: float = 0.05
) -> Rq2Section:
    """Spearman between each metric column and the 0/1 label column."""
    labels = label_vector(contract_set)
    if contract_set.n_vulnerable == 0 or contract_set.n_neutral == 0:
        raise InputError("rq2 needs both vulnerable and neutral rows")
    rows = []
    for name, col in metric_columns(contract_set):
        try:
            result = spearman(col, labels, alpha)
        except DegenerateInputError:
            result = None
        rows.append(Rq2Row(name, result))
    return Rq2Section(tuple(rows))


def rq3_discriminative(
    contract_set: LabeledContractSet, seed: int, alpha: float = 0.05
) -> Rq3Section:
    """Paired t-tests against one seeded size-matched neutral subsample.

    A single draw (uniform, without replacement) is shared by all metrics;
    pairing is by index order. Welch's test on the full groups is attached
    as a robustness column.
    """
    n_vuln = contract_set.n_vulnerable
    n_neut = contract_set.n_neutral
    if n_vuln < 2:
        raise InputError("rq3 needs at least 2 vulnerable rows")
    if n_neut < n_vuln:
        raise InputError("rq3 needs at least as many neutral rows as vulnerable rows")
    sample = random.Random(seed).sample(range(n_neut), n_vuln)
    vuln_cols, neut_cols = _split_columns(contract_set)
    rows = []
    for (name, vuln_col), (_, neut_col) in zip(vuln_cols, neut_cols):
        neut_sample = neut_col[sample]
        degenerate = False
        try:
            paired = paired_t_test(vuln_col, neut_sample)
        except DegenerateInputError:
            paired = None
            degenerate = True
        try:
            welch = welch_t_test(vuln_col, neut_col)
        except DegenerateInputError:
            welch = None
        discriminative = paired is not None and paired.p_value <= alpha
        rows.append(Rq3Row(name, paired, welch, discriminative, degenerate))
    return Rq3Section(tuple(rows), seed, n_vuln)


def rq4_interval_comparison(
    contract_set: LabeledContractSet, level: float = 0.95
) -> Rq4Section:
    """Group mean confidence intervals with a separation direction flag."""
    vuln_cols, neut_cols = _split_columns(contract_set)
    if vuln_cols[0][1].size < 2 or neut_cols[0][1].size < 2:
        raise InputError("each label group needs at least 2 rows for an interval")
    rows = []
    for (name, vuln_col), (_, neut_col) in zip(vuln_cols, neut_cols):
        vuln_ci = mean_confidence_interval(vuln_col, level)
        neut_ci = mean_confidence_interval(neut_col, level)
        if vuln_ci.lower > neut_ci.upper:
            direction = HIGHER_IN_VULNERABLE
        elif neut_ci.lower > vuln_ci.upper:
            direction = HIGHER_IN_NEUTRAL
        else:
            direction = OVERLAPPING
        rows.append(Rq4Row(name, vuln_ci, neut_ci, direction))
    return Rq4Section(tuple(rows), level)


ANALYSES = ("rq1", "rq2", "rq3", "rq4")


def run_section(
    key: str, contract_set: LabeledContractSet, config: RunConfig
) -> Rq1Section | Rq2Section | Rq3Section | Rq4Section:
    """Run the analysis named by one of :data:`ANALYSES` under ``config``."""
    alpha = config.significance
    if key == "rq1":
        return rq1_redundancy(contract_set, config.redundancy_threshold, alpha)
    if key == "rq2":
        return rq2_metric_vs_vulnerability(contract_set, alpha)
    if key == "rq3":
        return rq3_discriminative(contract_set, config.seed, alpha)
    if key == "rq4":
        return rq4_interval_comparison(contract_set, config.ci_level)
    raise InputError(f"unknown analysis {key!r}")


def run_record(contract_set: LabeledContractSet, config: RunConfig) -> dict:
    """The ``config`` block of ``run_manifest.json``: settings plus dataset provenance."""
    return {
        "source_root": config.source_root,
        "manifest": config.manifest,
        "seed": config.seed,
        "ci_level": config.ci_level,
        "redundancy_threshold": config.redundancy_threshold,
        "significance": config.significance,
        "dataset": {
            "manifest_path": contract_set.provenance[0],
            "sha256": contract_set.provenance[1],
            "n_vulnerable": contract_set.n_vulnerable,
            "n_neutral": contract_set.n_neutral,
        },
    }


def run_analysis(contract_set: LabeledContractSet, config: RunConfig) -> AnalysisReport:
    """Execute all four analyses under one configuration."""
    sections = {key: run_section(key, contract_set, config) for key in ANALYSES}
    return AnalysisReport(
        **sections, counts=contract_set.counts, config=run_record(contract_set, config)
    )
