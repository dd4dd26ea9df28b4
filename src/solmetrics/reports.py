"""Serialization of analysis reports: JSON, CSV and Markdown tables.

Every float is rendered with at least six significant digits; JSON files
carry full-precision values. Output is deterministic byte-for-byte for a
fixed report. Each file is built as one text and written once by
:func:`_write`, which returns the sha256 of the bytes it wrote; the run
manifest records those digests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from typing import Any, Callable, NamedTuple

from .corpus import JSON_ENCODER
from .metrics import DISPLAY_NAMES
from .pipeline import ANALYSES, AnalysisReport, Rq1Section, Rq2Section, Rq3Section, Rq4Section
from .stats import CorrelationMatrix


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.9g}"


def _matrix_dict(m: CorrelationMatrix) -> dict[str, Any]:
    return {
        "metrics": list(m.metric_ids),
        "rho": [[None if c is None else c.rho for c in row] for row in m.entries],
        "p_value": [[None if c is None else c.p_value for c in row] for row in m.entries],
    }


def _plain(value: Any) -> Any:
    """``value`` as JSON holds it: a NamedTuple, such as a section, row or
    test result, becomes an object keyed by its fields, any other tuple a
    list; both recursively."""
    if isinstance(value, tuple):
        items = list(map(_plain, value))
        return dict(zip(value._fields, items)) if hasattr(value, "_fields") else items
    return value


def rq1_dict(section: Rq1Section) -> dict[str, Any]:
    return {
        "threshold": section.threshold,
        "vulnerable_matrix": _matrix_dict(section.vulnerable),
        "neutral_matrix": _matrix_dict(section.neutral),
        "redundant_pairs": _plain(section.redundant_pairs),
    }


# ---------------------------------------------------------------------------
# tables: rows carry metric ids; only Markdown shows their display names


def _rq1_table(section: Rq1Section) -> tuple[list[str], list[list[str]]]:
    header = ["metric_a", "metric_b", "group", "rho", "p_value", "reliable"]
    rows = []
    for pair in section.redundant_pairs:
        for f in pair.findings:
            rows.append(
                [pair.metric_a, pair.metric_b, f.group, _fmt(f.rho), _fmt(f.p_value),
                 str(f.reliable).lower()]
            )
    return header, rows


def _rq2_table(section: Rq2Section) -> tuple[list[str], list[list[str]]]:
    header = ["metric", "correlation_coefficient", "p_value", "strength", "significant"]
    rows = []
    for row in section.rows:
        if row.result is None:
            rows.append([row.metric, "undefined", "", "", ""])
        else:
            r = row.result
            rows.append(
                [row.metric, _fmt(r.rho), _fmt(r.p_value), r.strength, str(r.significant).lower()]
            )
    return header, rows


def _rq3_table(section: Rq3Section) -> tuple[list[str], list[list[str]]]:
    header = [
        "metric",
        "discriminative",
        "p_value",
        "t_statistic",
        "welch_p_value",
        "welch_t_statistic",
    ]
    rows = []
    for row in section.rows:
        paired = row.paired
        welch = row.welch
        rows.append(
            [
                row.metric,
                "yes" if row.discriminative else "no",
                _fmt(paired.p_value) if paired else "degenerate",
                _fmt(paired.t_statistic) if paired else "",
                _fmt(welch.p_value) if welch else "",
                _fmt(welch.t_statistic) if welch else "",
            ]
        )
    return header, rows


def _rq4_table(section: Rq4Section) -> tuple[list[str], list[list[str]]]:
    header = [
        "metric",
        "vulnerable_mean",
        "vulnerable_lower",
        "vulnerable_upper",
        "neutral_mean",
        "neutral_lower",
        "neutral_upper",
        "direction",
    ]
    rows = []
    for row in section.rows:
        rows.append(
            [
                row.metric,
                _fmt(row.vulnerable.mean),
                _fmt(row.vulnerable.lower),
                _fmt(row.vulnerable.upper),
                _fmt(row.neutral.mean),
                _fmt(row.neutral.lower),
                _fmt(row.neutral.upper),
                row.direction,
            ]
        )
    return header, rows


def _matrix_table(matrix: CorrelationMatrix) -> tuple[list[str], list[list[str]]]:
    header = ["metric"] + list(matrix.metric_ids)
    rows = []
    for name, row in zip(matrix.metric_ids, matrix.entries):
        rows.append([name] + [_fmt(c.rho) if c is not None else "" for c in row])
    return header, rows


class _Analysis(NamedTuple):
    """How one analysis section is reported: its Markdown title, its JSON
    form, its table and the number of leading cells of a row that name
    metrics."""

    title: str
    to_json: Callable[[Any], Any]
    table: Callable[[Any], tuple[list[str], list[list[str]]]]
    metric_cells: int


# rq2-rq4 serialize field by field; rq1's matrices have their own shape
_ANALYSIS_OUTPUT = {
    "rq1": _Analysis("Cross-metric redundancy (|rho| above threshold)", rq1_dict, _rq1_table, 2),
    "rq2": _Analysis("Correlation between each metric and vulnerability", _plain, _rq2_table, 1),
    "rq3": _Analysis("Paired t-test discrimination between groups", _plain, _rq3_table, 1),
    "rq4": _Analysis("Group mean confidence intervals", _plain, _rq4_table, 1),
}


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _md_text(analysis: _Analysis, header: list[str], rows: list[list[str]]) -> str:
    n = analysis.metric_cells
    cells = [header] + [[DISPLAY_NAMES[c] for c in row[:n]] + row[n:] for row in rows]
    lines = ["| " + " | ".join(row) + " |" for row in cells]
    lines.insert(1, "|" + "---|" * len(header))
    return f"# {analysis.title}\n\n" + "\n".join(lines) + "\n"


def _write(outdir: str, name: str, text: str) -> str:
    """Write ``text`` to ``outdir/name`` as UTF-8 bytes, so its newlines are
    the same on every platform; returns the sha256 of the bytes written."""
    data = text.encode("utf-8")
    with open(os.path.join(outdir, name), "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "config": report.config,
        "counts": {"vulnerable": report.counts[0], "neutral": report.counts[1]},
    }
    for key in ANALYSES:
        payload[key] = _ANALYSIS_OUTPUT[key].to_json(getattr(report, key))
    return payload


def write_section(
    key: str,
    section: Rq1Section | Rq2Section | Rq3Section | Rq4Section,
    outdir: str,
    formats: tuple[str, ...],
) -> dict[str, str]:
    """Write one analysis section's table files into the existing ``outdir``;
    returns the sha256 of each file written, keyed by its name."""
    analysis = _ANALYSIS_OUTPUT[key]
    header, rows = analysis.table(section)
    texts = {}
    if "json" in formats:
        texts[f"{key}.json"] = JSON_ENCODER.encode(analysis.to_json(section))
    if "csv" in formats:
        texts[f"{key}.csv"] = _csv_text(header, rows)
    if "md" in formats:
        texts[f"{key}.md"] = _md_text(analysis, header, rows)
    if key == "rq1" and "csv" in formats:
        # heatmap data for the two correlation matrices
        texts["rq1_rho_vulnerable.csv"] = _csv_text(*_matrix_table(section.vulnerable))
        texts["rq1_rho_neutral.csv"] = _csv_text(*_matrix_table(section.neutral))
    return {name: _write(outdir, name, text) for name, text in texts.items()}


def write_report(report: AnalysisReport, outdir: str, formats: tuple[str, ...]) -> dict[str, str]:
    """Write report.json plus one table per analysis per requested format.

    Returns the sha256 of each file written, keyed by its name.
    """
    os.makedirs(outdir, exist_ok=True)
    text = JSON_ENCODER.encode(report_to_dict(report))
    outputs = {"report.json": _write(outdir, "report.json", text)}
    for key in ANALYSES:
        outputs.update(write_section(key, getattr(report, key), outdir, formats))
    return outputs


def write_run_manifest(
    outdir: str,
    config: dict[str, Any],
    tool_version: str,
    outputs: dict[str, str],
) -> str:
    """Write run_manifest.json; returns the sha256 of its bytes."""
    manifest = {"config": config, "tool_version": tool_version, "outputs": outputs}
    return _write(outdir, "run_manifest.json", JSON_ENCODER.encode(manifest))
