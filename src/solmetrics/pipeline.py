"""The four analyses over a labeled contract set.

rq1: cross-metric redundancy (per-group correlation matrices).
rq2: per-metric association with the 0/1 vulnerability label.
rq3: discriminative power via paired t-tests on a seeded size-matched
     neutral subsample, with Welch on the full groups as a robustness
     column.
rq4: per-group mean confidence intervals and their direction.

Each analysis reads the metric columns of :class:`MetricColumns`, over all
rows and split by label. :func:`run_analysis` builds them once and hands
them to all four, which share each column's ranks and moments.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import NamedTuple

from .config import ANALYSES, DEFAULT_CI_LEVEL, DEFAULT_SIGNIFICANCE, RunConfig
from .config import DEFAULT_REDUNDANCY_THRESHOLD
from .corpus import LABEL_NEUTRAL, LABEL_VULNERABLE, LabeledContractSet
from .errors import DegenerateInputError, InputError
from .metrics import METRIC_NAMES
from .stats import (
    ConfidenceInterval,
    CorrelationMatrix,
    Sample,
    SpearmanResult,
    TTestResult,
    correlation_matrix,
    mean_confidence_interval,
    paired_t_test,
    spearman,
    welch_t_test,
)

HIGHER_IN_VULNERABLE = "higher-in-vulnerable"
HIGHER_IN_NEUTRAL = "higher-in-neutral"
OVERLAPPING = "overlapping"


class RedundancyFinding(NamedTuple):
    group: str
    rho: float
    p_value: float
    reliable: bool


class RedundantPair(NamedTuple):
    metric_a: str
    metric_b: str
    findings: tuple[RedundancyFinding, ...]


class Rq1Section(NamedTuple):
    vulnerable: CorrelationMatrix
    neutral: CorrelationMatrix
    redundant_pairs: tuple[RedundantPair, ...]
    threshold: float


class Rq2Row(NamedTuple):
    metric: str
    result: SpearmanResult | None  # None: metric column constant


class Rq2Section(NamedTuple):
    rows: tuple[Rq2Row, ...]


class Rq3Row(NamedTuple):
    metric: str
    paired: TTestResult | None
    welch: TTestResult | None
    discriminative: bool
    degenerate: bool = False


class Rq3Section(NamedTuple):
    rows: tuple[Rq3Row, ...]
    seed: int
    sample_size: int


class Rq4Row(NamedTuple):
    metric: str
    vulnerable: ConfidenceInterval
    neutral: ConfidenceInterval
    direction: str


class Rq4Section(NamedTuple):
    rows: tuple[Rq4Row, ...]
    level: float


class AnalysisReport(NamedTuple):
    rq1: Rq1Section
    rq2: Rq2Section
    rq3: Rq3Section
    rq4: Rq4Section
    counts: tuple[int, int]
    config: dict  # the run_manifest.json config block


class MetricColumns(NamedTuple):
    """The metric columns of a labeled set, as :class:`Sample`s in ``METRIC_NAMES`` order.

    ``pooled`` holds each metric over all rows, ``vulnerable`` and
    ``neutral`` over the rows of one label; ``labels`` is 1 for a
    vulnerable row and 0 for a neutral one.
    """

    labels: Sample
    pooled: list[Sample]
    vulnerable: list[Sample]
    neutral: list[Sample]
    n_vulnerable: int
    n_neutral: int


def metric_columns(data: LabeledContractSet | MetricColumns) -> MetricColumns:
    """The columns of ``data``; columns already built are returned as they are."""
    if isinstance(data, MetricColumns):
        return data
    table = [r.metrics for r in data.rows]
    flags = [r.label == LABEL_VULNERABLE for r in data.rows]
    pooled, vulnerable, neutral = (
        [Sample(col, name) for name, col in zip(METRIC_NAMES, zip(*rows))]
        for rows in (table, compress(table, flags), compress(table, [not f for f in flags]))
    )
    return MetricColumns(
        labels=Sample(map(int, flags), "y"),
        pooled=pooled,
        vulnerable=vulnerable,
        neutral=neutral,
        n_vulnerable=sum(flags),
        n_neutral=len(flags) - sum(flags),
    )


def rq1_redundancy(
    contract_set: LabeledContractSet | MetricColumns,
    threshold: float = DEFAULT_REDUNDANCY_THRESHOLD,
    alpha: float = DEFAULT_SIGNIFICANCE,
) -> Rq1Section:
    """Per-group correlation matrices and the |rho| > threshold pair list."""
    columns = metric_columns(contract_set)
    if columns.n_vulnerable < 3 or columns.n_neutral < 3:
        raise InputError("each label group needs at least 3 rows for a correlation matrix")
    vuln_matrix = correlation_matrix(list(zip(METRIC_NAMES, columns.vulnerable)), alpha)
    neut_matrix = correlation_matrix(list(zip(METRIC_NAMES, columns.neutral)), alpha)
    pairs: list[RedundantPair] = []
    k = len(METRIC_NAMES)
    for i in range(k):
        for j in range(i + 1, k):
            findings = []
            for group, matrix in (
                (LABEL_VULNERABLE, vuln_matrix),
                (LABEL_NEUTRAL, neut_matrix),
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
    contract_set: LabeledContractSet | MetricColumns, alpha: float = DEFAULT_SIGNIFICANCE
) -> Rq2Section:
    """Spearman between each metric column and the 0/1 label column."""
    columns = metric_columns(contract_set)
    if columns.n_vulnerable == 0 or columns.n_neutral == 0:
        raise InputError("rq2 needs both vulnerable and neutral rows")
    rows = []
    for name, col in zip(METRIC_NAMES, columns.pooled):
        try:
            result = spearman(col, columns.labels, alpha)
        except DegenerateInputError:
            result = None
        rows.append(Rq2Row(name, result))
    return Rq2Section(tuple(rows))


def rq3_discriminative(
    contract_set: LabeledContractSet | MetricColumns, seed: int,
    alpha: float = DEFAULT_SIGNIFICANCE,
) -> Rq3Section:
    """Paired t-tests against one seeded size-matched neutral subsample.

    A single draw (uniform, without replacement) is shared by all metrics;
    pairing is by index order. Welch's test on the full groups is attached
    as a robustness column.
    """
    columns = metric_columns(contract_set)
    n_vuln = columns.n_vulnerable
    n_neut = columns.n_neutral
    if n_vuln < 2:
        raise InputError("rq3 needs at least 2 vulnerable rows")
    if n_neut < n_vuln:
        raise InputError("rq3 needs at least as many neutral rows as vulnerable rows")
    draw = random.Random(seed).sample(range(n_neut), n_vuln)
    rows = []
    for name, vuln_col, neut_col in zip(METRIC_NAMES, columns.vulnerable, columns.neutral):
        degenerate = False
        try:
            paired = paired_t_test(vuln_col, list(map(neut_col.values.__getitem__, draw)))
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
    contract_set: LabeledContractSet | MetricColumns, level: float = DEFAULT_CI_LEVEL
) -> Rq4Section:
    """Group mean confidence intervals with a separation direction flag."""
    columns = metric_columns(contract_set)
    if columns.n_vulnerable < 2 or columns.n_neutral < 2:
        raise InputError("each label group needs at least 2 rows for an interval")
    rows = []
    for name, vuln_col, neut_col in zip(METRIC_NAMES, columns.vulnerable, columns.neutral):
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


def run_section(
    key: str, contract_set: LabeledContractSet | MetricColumns, config: RunConfig
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
    columns = metric_columns(contract_set)
    sections = {key: run_section(key, columns, config) for key in ANALYSES}
    return AnalysisReport(
        **sections, counts=contract_set.counts, config=run_record(contract_set, config)
    )
