"""Solidity complexity metrics and vulnerability statistics toolkit."""

import importlib

from .config import RunConfig
from .corpus import (
    CorpusManifest,
    LabeledContractSet,
    export_metrics,
    import_metrics,
    ingest,
    load_manifest,
)
from .errors import (
    CorpusError,
    DegenerateInputError,
    InputError,
    LexError,
    ParseError,
)
from .inheritance import InheritanceGraph, build_inheritance_graph
from .lexer import Token, tokenize
from .metrics import (
    DISPLAY_NAMES,
    METRIC_NAMES,
    ContractMetrics,
    FunctionMetrics,
    contract_metrics,
)
from .nodes import ContractDef, FunctionDef, LineCounts, SourceUnit
from .parser import line_accounting, parse_file, parse_source

# The statistics layer's names resolve at first access, so a command that
# computes no statistic never pays for importing it.
_LAZY = {
    **dict.fromkeys(
        (
            "AnalysisReport",
            "rq1_redundancy",
            "rq2_metric_vs_vulnerability",
            "rq3_discriminative",
            "rq4_interval_comparison",
            "run_analysis",
        ),
        "pipeline",
    ),
    **dict.fromkeys(
        (
            "ConfidenceInterval",
            "CorrelationMatrix",
            "RankedVector",
            "SpearmanResult",
            "TTestResult",
            "correlation_matrix",
            "mean_confidence_interval",
            "paired_t_test",
            "rank",
            "spearman",
            "student_t_cdf",
            "student_t_quantile",
            "welch_t_test",
        ),
        "stats",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ConfidenceInterval",
    "ContractDef",
    "ContractMetrics",
    "CorpusError",
    "CorpusManifest",
    "CorrelationMatrix",
    "DISPLAY_NAMES",
    "DegenerateInputError",
    "FunctionDef",
    "FunctionMetrics",
    "InheritanceGraph",
    "InputError",
    "LabeledContractSet",
    "LexError",
    "LineCounts",
    "METRIC_NAMES",
    "ParseError",
    "RankedVector",
    "RunConfig",
    "SourceUnit",
    "SpearmanResult",
    "TTestResult",
    "Token",
    "build_inheritance_graph",
    "contract_metrics",
    "correlation_matrix",
    "export_metrics",
    "import_metrics",
    "ingest",
    "line_accounting",
    "load_manifest",
    "mean_confidence_interval",
    "paired_t_test",
    "parse_file",
    "parse_source",
    "rank",
    "rq1_redundancy",
    "rq2_metric_vs_vulnerability",
    "rq3_discriminative",
    "rq4_interval_comparison",
    "run_analysis",
    "spearman",
    "student_t_cdf",
    "student_t_quantile",
    "tokenize",
    "welch_t_test",
]
